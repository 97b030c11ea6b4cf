(** The domain work pool — see the interface. *)

exception Nested

(* Every task runs with this domain-local flag set — on workers and on
   the coordinator alike — so [on_worker] really means "inside a pool
   task", which is exactly the re-entrancy that must be refused. *)
let in_task_key : bool ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref false)

let on_worker () = !(Domain.DLS.get in_task_key)

type t = {
  jobs : int;
  m : Mutex.t;
  work : Condition.t;  (** signalled on new tasks and on shutdown *)
  queue : (unit -> unit) Queue.t;
  mutable closing : bool;
  mutable workers : unit Domain.t list;
}

(* Tasks never let an exception escape (map wraps them in a result
   capture), so the only job here is maintaining the re-entrancy flag. *)
let run_task task =
  let flag = Domain.DLS.get in_task_key in
  let saved = !flag in
  flag := true;
  Fun.protect ~finally:(fun () -> flag := saved) task

let rec worker_loop t =
  Mutex.lock t.m;
  let rec next () =
    match Queue.take_opt t.queue with
    | Some task -> Some task
    | None ->
      if t.closing then None
      else begin
        Condition.wait t.work t.m;
        next ()
      end
  in
  match next () with
  | None -> Mutex.unlock t.m
  | Some task ->
    Mutex.unlock t.m;
    run_task task;
    worker_loop t

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  if on_worker () then raise Nested;
  {
    jobs;
    m = Mutex.create ();
    work = Condition.create ();
    queue = Queue.create ();
    closing = false;
    workers = [];
  }

(* Under [t.m]; a closed pool starts none, so [shutdown] joins all. *)
let ensure_workers t n =
  if not t.closing then
    for _ = List.length t.workers + 1 to n do
      t.workers <- Domain.spawn (fun () -> worker_loop t) :: t.workers
    done

let shutdown t =
  Mutex.lock t.m;
  t.closing <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  List.iter Domain.join t.workers;
  t.workers <- []

let run ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let jobs t = t.jobs

(* ------------------------------------------------------------------ *)
(* Futures: submit-without-participating, for sys-threads             *)
(* ------------------------------------------------------------------ *)

type 'a future = {
  fm : Mutex.t;
  done_ : Condition.t;
  mutable result : ('a, exn * Printexc.raw_backtrace) result option;
}

let async t f =
  let fut =
    { fm = Mutex.create (); done_ = Condition.create (); result = None }
  in
  let deadline = Budget.current () in
  let task () =
    let r =
      match Budget.with_inherited deadline f with
      | v -> Ok v
      | exception e -> Error (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock fut.fm;
    fut.result <- Some r;
    Condition.broadcast fut.done_;
    Mutex.unlock fut.fm
  in
  Mutex.lock t.m;
  if t.closing then begin
    Mutex.unlock t.m;
    invalid_arg "Pool.async: pool is shut down"
  end;
  (* The submitter only waits, so all [jobs] workers are needed. *)
  ensure_workers t t.jobs;
  Queue.add task t.queue;
  Condition.signal t.work;
  Mutex.unlock t.m;
  fut

let await fut =
  Mutex.lock fut.fm;
  let rec wait () =
    match fut.result with
    | Some r -> r
    | None ->
      Condition.wait fut.done_ fut.fm;
      wait ()
  in
  let r = wait () in
  Mutex.unlock fut.fm;
  match r with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let map t f xs =
  if on_worker () then raise Nested;
  match xs with
  | [] -> []
  | [ x ] -> [ run_task (fun () -> f x) ]
  | xs ->
    (* The submitting domain's budget deadline travels with the tasks:
       a budget on the coordinator bounds the whole fan-out. *)
    let deadline = Budget.current () in
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let results = Array.make n None in
    let remaining = ref n in (* guarded by t.m *)
    let all_done = Condition.create () in
    let task i () =
      let r =
        match Budget.with_inherited deadline (fun () -> f arr.(i)) with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock t.m;
      results.(i) <- Some r;
      decr remaining;
      if !remaining = 0 then Condition.broadcast all_done;
      Mutex.unlock t.m
    in
    Mutex.lock t.m;
    (* The caller runs tasks too, so [jobs - 1] workers suffice. *)
    ensure_workers t (t.jobs - 1);
    for i = 0 to n - 1 do
      Queue.add (task i) t.queue
    done;
    Condition.broadcast t.work;
    (* The caller helps drain the queue, then waits for stragglers
       running on other domains. The queue may also hold {!async}
       tasks from other threads; executing those here is harmless
       helping — [remaining] only counts this map's tasks, and the
       condition wait covers the case where the queue empties before
       they finish. *)
    let rec drain () =
      match Queue.take_opt t.queue with
      | Some task ->
        Mutex.unlock t.m;
        run_task task;
        Mutex.lock t.m;
        drain ()
      | None ->
        if !remaining > 0 then begin
          Condition.wait all_done t.m;
          drain ()
        end
    in
    drain ();
    Mutex.unlock t.m;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
           | None -> assert false)
         results)
