(** Engine instrumentation — see the interface.

    Counters are sharded per domain: [record] only ever touches the
    calling domain's own table (under that table's uncontended mutex),
    and [snapshot]/[reset] walk a registry of every shard ever created.
    A shard outlives its domain — counts recorded on a pool worker
    survive the pool — so sums over [snapshot] are exact whatever the
    interleaving. *)

type entry = { engine : string; count : int; seconds : float }

type cell = { mutable n : int; mutable secs : float }

(* One shard per domain that has recorded anything. The shard mutex
   orders [record] against [snapshot]/[reset]; [record] never takes the
   registry mutex, so the hot path costs one domain-local read and one
   uncontended lock. *)
type shard = { m : Mutex.t; tbl : (string, cell) Hashtbl.t }

let registry_m = Mutex.create ()
let registry : shard list ref = ref []

let shard_key : shard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s = { m = Mutex.create (); tbl = Hashtbl.create 16 } in
      Mutex.protect registry_m (fun () -> registry := s :: !registry);
      s)

let record ~engine ~seconds =
  let s = Domain.DLS.get shard_key in
  Mutex.protect s.m (fun () ->
      let cell =
        match Hashtbl.find_opt s.tbl engine with
        | Some c -> c
        | None ->
          let c = { n = 0; secs = 0.0 } in
          Hashtbl.add s.tbl engine c;
          c
      in
      cell.n <- cell.n + 1;
      cell.secs <- cell.secs +. seconds)

let shards () = Mutex.protect registry_m (fun () -> !registry)

let snapshot () =
  let merged : (string, cell) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun s ->
      Mutex.protect s.m (fun () ->
          Hashtbl.iter
            (fun engine c ->
              match Hashtbl.find_opt merged engine with
              | Some m ->
                m.n <- m.n + c.n;
                m.secs <- m.secs +. c.secs
              | None -> Hashtbl.add merged engine { n = c.n; secs = c.secs })
            s.tbl))
    (shards ());
  Hashtbl.fold
    (fun engine c acc -> { engine; count = c.n; seconds = c.secs } :: acc)
    merged []
  |> List.sort (fun a b -> Stdlib.compare a.engine b.engine)

let reset () =
  List.iter (fun s -> Mutex.protect s.m (fun () -> Hashtbl.reset s.tbl)) (shards ())
