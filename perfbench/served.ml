(* The served side: spawn a real [rw serve], replay a workload's ops
   over at most two connections in a closed loop (each connection
   sends its next op only after the previous reply arrived), and
   record per-op timings, reply payloads and the server's own
   counters. *)

module J = Rw_service.Json

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

(* Every live child, so an exit on any path reaps it. *)
let children : int list ref = ref []

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

let () = at_exit kill_children

type conn = {
  wfd : Unix.file_descr;
  rfd : Unix.file_descr;
  pending : Buffer.t;
  chunk : Bytes.t;
}

type server = {
  pid : int;
  conns : conn array;
  stderr_path : string;
  workload : string;
}

let op_timeout = 120.0

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let stderr_tail srv =
  match In_channel.with_open_bin srv.stderr_path In_channel.input_all with
  | s ->
    let n = String.length s in
    if n > 600 then String.sub s (n - 600) 600 else s
  | exception Sys_error _ -> ""

(* Pop one complete line off the connection's buffer, if any. *)
let take_line c =
  let s = Buffer.contents c.pending in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear c.pending;
    Buffer.add_substring c.pending s (i + 1) (String.length s - i - 1);
    Some (String.sub s 0 i)

(* Read what is available; [false] on EOF (the server went away). *)
let fill c =
  match Unix.read c.rfd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> false
  | n ->
    Buffer.add_subbytes c.pending c.chunk 0 n;
    true
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> false

let died srv what =
  fail "workload %s: server exited or closed the connection during %s; stderr tail:\n%s"
    srv.workload what (stderr_tail srv)

(* Blocking request/reply on one connection. *)
let rpc srv ci ~what line =
  let c = srv.conns.(ci) in
  (try write_all c.wfd (line ^ "\n")
   with Unix.Unix_error _ -> died srv what);
  let deadline = Clock.now () +. op_timeout in
  let rec wait () =
    match take_line c with
    | Some l -> l
    | None ->
      let left = deadline -. Clock.now () in
      if left <= 0.0 then
        fail "workload %s: no reply within %.0fs to %s" srv.workload op_timeout what;
      (match Unix.select [ c.rfd ] [] [] left with
      | [], _, _ -> ()
      | _ -> if not (fill c) then died srv what);
      wait ()
  in
  wait ()

let connect_unix path ~pid ~workload ~stderr_path =
  let deadline = Clock.now () +. 60.0 in
  let rec go () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
      children := List.filter (( <> ) pid) !children;
      let tail = { pid; conns = [||]; stderr_path; workload } in
      fail "workload %s: server exited at start-up; stderr tail:\n%s" workload
        (stderr_tail tail));
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if Clock.now () > deadline then
        fail "workload %s: server socket %s never accepted" workload path;
      Unix.sleepf 0.002;
      go ()
  in
  go ()

let mk_conn wfd rfd =
  { wfd; rfd; pending = Buffer.create 4096; chunk = Bytes.create 65536 }

(* Spawn [rw serve] for workload [w], its socket, store and stderr in
   [dir]. *)
let spawn ~rw ~dir ~tag (w : Workload.t) =
  let stderr_path = Filename.concat dir (tag ^ ".stderr") in
  let err = Unix.openfile stderr_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let sock = Filename.concat dir "rw.sock" in
  let args =
    [ rw; "serve"; "--jobs"; "2"; "--cache"; string_of_int w.cache ]
    @ (if w.store then [ "--store"; Filename.concat dir "answers.rws" ]
       else [ "--no-store" ])
    @ if w.listen then [ "--listen"; sock ] else []
  in
  let argv = Array.of_list args in
  if w.listen then begin
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
    let pid = Unix.create_process rw argv devnull err err in
    Unix.close devnull;
    Unix.close err;
    children := pid :: !children;
    let conns =
      Array.init w.connections (fun _ ->
          let fd = connect_unix sock ~pid ~workload:w.name ~stderr_path in
          mk_conn fd fd)
    in
    { pid; conns; stderr_path; workload = w.name }
  end
  else begin
    let in_r, in_w = Unix.pipe ~cloexec:true () in
    let out_r, out_w = Unix.pipe ~cloexec:true () in
    let pid = Unix.create_process rw argv in_r out_w err in
    Unix.close in_r;
    Unix.close out_w;
    Unix.close err;
    children := pid :: !children;
    { pid; conns = [| mk_conn in_w out_r |]; stderr_path; workload = w.name }
  end

let peak_rss_mb srv =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" srv.pid) In_channel.input_lines with
  | lines -> (
    match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
    | Some l ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | None -> nan)
  | exception Sys_error _ -> nan

let reap srv =
  let deadline = Clock.now () +. 30.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when Clock.now () < deadline ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ ->
      Unix.kill srv.pid Sys.sigkill;
      ignore (Unix.waitpid [] srv.pid);
      `Killed
    | _, Unix.WEXITED 0 -> `Clean
    | _, _ -> `Crashed
  in
  let r = wait () in
  children := List.filter (( <> ) srv.pid) !children;
  Array.iter
    (fun c ->
      (try Unix.close c.wfd with Unix.Unix_error _ -> ());
      if c.rfd != c.wfd then try Unix.close c.rfd with Unix.Unix_error _ -> ())
    srv.conns;
  r

let shutdown srv =
  let reply = rpc srv 0 ~what:"shutdown" {|{"op":"shutdown"}|} in
  (match J.of_string reply with
  | Ok j when J.member "ok" j = Some (J.Bool true) -> ()
  | _ -> fail "workload %s: bad shutdown reply %s" srv.workload reply);
  match reap srv with
  | `Clean -> ()
  | `Killed -> fail "workload %s: server did not exit after shutdown" srv.workload
  | `Crashed ->
    fail "workload %s: server exited non-zero after shutdown; stderr tail:\n%s"
      srv.workload (stderr_tail srv)

let stats srv =
  let reply = rpc srv 0 ~what:"stats" {|{"op":"stats"}|} in
  match J.of_string reply with
  | Ok j -> (
    match J.member "stats" j with
    | Some s -> s
    | None -> fail "workload %s: stats reply without stats" srv.workload)
  | Error e -> fail "workload %s: unreadable stats reply: %s" srv.workload e

(* ------------------------------------------------------------------ *)
(* Replies                                                            *)
(* ------------------------------------------------------------------ *)

type samples = {
  mutable update_ms : float list;
  mutable server_self_ms : float list;  (** query RTT - reply elapsed_ms *)
  mutable update_server_ms : float list;  (** session_update elapsed_ms *)
  mutable reply_bytes : float list;
  mutable trace_events : float list;  (** per explained reply *)
  mutable pool_eff : float list;  (** per fanned-out batch *)
  mutable answers : int;  (** query replies and batch items answered *)
  mutable ops : int;
  mutable completed : completion list;  (** timed ops, latest first *)
  mutable rss_mb : float;  (** peak RSS after [rss_after] timed ops *)
  mutable steal : (float * int) list;
      (** (time, host steal ticks so far), sampled each second of the
          timed phase, latest first *)
}

and completion = {
  at : float;
  carried : int;  (** answers the op carried *)
  latency : float option;  (** RTT of a query or batch op *)
}

let samples () =
  {
    update_ms = [];
    server_self_ms = [];
    update_server_ms = [];
    reply_bytes = [];
    trace_events = [];
    pool_eff = [];
    answers = 0;
    ops = 0;
    completed = [];
    rss_mb = nan;
    steal = [];
  }

let float_member k j = Option.bind (J.member k j) J.to_float

(* Check one reply against its op and record its payload. [state] is
   the KB state the op ran against. *)
let absorb (chk : Check.t) (s : samples) ~timed ~state ~rtt_ms op line =
  let reply = match J.of_string line with Ok j -> Some j | Error _ -> None in
  let ok =
    match reply with
    | Some j -> J.member "ok" j = Some (J.Bool true)
    | None -> false
  in
  let record_answer q a =
    match Check.key_of_answer_json a with
    | Some k -> ignore (Check.record chk ~state q k)
    | None -> Check.malformed chk
  in
  s.ops <- s.ops + 1;
  let answers0 = s.answers in
  if not ok then Check.malformed chk
  else begin
    let j = Option.get reply in
    match (op : Workload.op) with
    | Query { q; explain } -> (
      match J.member "answer" j with
      | Some a ->
        record_answer q a;
        s.answers <- s.answers + 1;
        if timed then begin
          s.reply_bytes <- float_of_int (String.length line) :: s.reply_bytes;
          (match float_member "elapsed_ms" a with
          | Some e -> s.server_self_ms <- (rtt_ms -. e) :: s.server_self_ms
          | None -> ());
          if explain then
            match Option.bind (J.member "trace" j) J.to_list with
            | Some evs -> s.trace_events <- float_of_int (List.length evs) :: s.trace_events
            | None -> ()
        end
      | None -> Check.malformed chk)
    | Batch qs -> (
      match Option.bind (J.member "answers" j) J.to_list with
      | Some items when List.length items = List.length qs ->
        let busy = ref 0.0 in
        List.iter2
          (fun q item ->
            match (J.member "ok" item, J.member "answer" item) with
            | Some (J.Bool true), Some a ->
              record_answer q a;
              s.answers <- s.answers + 1;
              busy := !busy +. Option.value (float_member "elapsed_ms" a) ~default:0.0
            | _ -> Check.malformed chk)
          qs items;
        if timed then begin
          match float_member "elapsed_ms" j with
          | Some wall when wall > 0.0 && List.length qs >= 8 ->
            s.pool_eff <-
              (!busy /. (float_of_int Workload.batch_jobs *. wall)) :: s.pool_eff
          | _ -> ()
        end
      | _ -> Check.malformed chk)
    | Update _ ->
      if timed then begin
        s.update_ms <- rtt_ms :: s.update_ms;
        match float_member "elapsed_ms" j with
        | Some e -> s.update_server_ms <- e :: s.update_server_ms
        | None -> ()
      end
    | Load_kb _ | Persist _ -> ()
  end
  ;
  if timed then begin
    let latency =
      match op with
      | (Query _ | Batch _) when ok -> Some rtt_ms
      | _ -> None
    in
    s.completed <- { at = Clock.now (); carried = s.answers - answers0; latency } :: s.completed
  end

(* CPU time the hypervisor gave to other guests, in ticks (10 ms)
   summed over this machine's CPUs: the 8th field of /proc/stat's
   first line. 0 where it cannot be read. *)
let steal_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | _ :: fields when List.length fields >= 8 ->
      Option.value (int_of_string_opt (List.nth fields 7)) ~default:0
    | _ -> 0)
  | None | (exception Sys_error _) -> 0

let changes_kb = function
  | Workload.Load_kb _ | Workload.Update _ -> true
  | _ -> false

(* Run [ops] one at a time on connection 0, starting at KB [state];
   returns the state after them. *)
let sequential srv chk s ~state ops =
  List.fold_left
    (fun state op ->
      let state = if changes_kb op then state + 1 else state in
      let t0 = Clock.now () in
      let req = Workload.to_line ~id:0 op in
      let line = rpc srv 0 ~what:req req in
      absorb chk s ~timed:false ~state ~rtt_ms:(Clock.ms_since t0) op line;
      state)
    state ops

(* The timed closed loop. Ops are issued in stream order to whichever
   connection is idle; the loop stops issuing at the first multiple of
   [unit_len] past [deadline] and waits for the replies in flight.
   Returns (ops issued, wall seconds). *)
let timed_loop srv chk s (w : Workload.t) ~state ~deadline =
  let next = w.stream () in
  let n = Array.length srv.conns in
  let busy = Array.make n None in
  let issued = ref 0 in
  let state = ref state in
  let stopping () = !issued mod w.unit_len = 0 && Clock.now () >= deadline in
  let t_start = Clock.now () in
  let issue ci =
    let op = next () in
    if changes_kb op then incr state;
    let line = Workload.to_line ~id:!issued op in
    incr issued;
    let c = srv.conns.(ci) in
    let t0 = Clock.now () in
    (try write_all c.wfd (line ^ "\n") with Unix.Unix_error _ -> died srv line);
    busy.(ci) <- Some (op, !state, t0, line)
  in
  let next_mark = ref t_start in
  let mark () =
    let now = Clock.now () in
    if now >= !next_mark then begin
      s.steal <- (now, steal_ticks ()) :: s.steal;
      next_mark := !next_mark +. 1.0
    end
  in
  let rec loop () =
    mark ();
    if not (stopping ()) then
      Array.iteri (fun ci b -> if b = None && not (stopping ()) then issue ci) busy;
    let fds =
      List.filter_map
        (fun ci -> if busy.(ci) <> None then Some srv.conns.(ci).rfd else None)
        (List.init n Fun.id)
    in
    if fds <> [] then begin
      (match Unix.select fds [] [] op_timeout with
      | [], _, _ ->
        fail "workload %s: no reply within %.0fs (op %d)" w.name op_timeout !issued
      | ready, _, _ ->
        Array.iteri
          (fun ci b ->
            match b with
            | Some (op, st, t0, sent) when List.memq srv.conns.(ci).rfd ready ->
              if not (fill srv.conns.(ci)) then died srv sent;
              (match take_line srv.conns.(ci) with
              | Some line ->
                let rtt = Clock.ms_since t0 in
                busy.(ci) <- None;
                absorb chk s ~timed:true ~state:st ~rtt_ms:rtt op line;
                if s.ops = w.rss_after then s.rss_mb <- peak_rss_mb srv
              | None -> ())
            | _ -> ())
          busy);
      loop ()
    end
  in
  loop ();
  s.steal <- (Clock.now (), steal_ticks ()) :: s.steal;
  (!issued, Clock.now () -. t_start)
