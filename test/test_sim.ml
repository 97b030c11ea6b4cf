(* The simulator's own regression surface: the RNG registry's
   determinism contract (the property everything else leans on), op
   serialization round-trips, whole-run bit-identity, the fault plane
   actually firing, and replay of every pinned counterexample in
   sim_corpus/ — each of those documents a bug fixed in this tree. *)

open Rw_sim
module Prng = Rw_mc.Prng
module Pool = Rw_pool.Pool

let corpus_dir = "sim_corpus"

(* ------------------------------------------------------------------ *)
(* Seed parsing                                                       *)
(* ------------------------------------------------------------------ *)

let test_seed_parse () =
  let ok s = match Seed.parse s with Ok n -> n | Error e -> Alcotest.failf "%S rejected: %s" s e in
  Alcotest.(check int) "plain" 42 (ok "42");
  Alcotest.(check int) "zero" 0 (ok "0");
  Alcotest.(check int) "whitespace trimmed" 7 (ok "  7 ");
  let rejected s =
    match Seed.parse s with
    | Error _ -> ()
    | Ok n -> Alcotest.failf "%S accepted as %d, expected rejection" s n
  in
  rejected "";
  rejected "-1";
  rejected "+1";
  rejected "0x10";
  rejected "1_000";
  rejected "12ab";
  (* max_int + 1: must be refused, not silently wrapped. *)
  rejected "4611686018427387904";
  Alcotest.(check int) "max_int accepted" max_int (ok (string_of_int max_int))

(* ------------------------------------------------------------------ *)
(* RNG registry                                                       *)
(* ------------------------------------------------------------------ *)

let draws rng n = List.init n (fun _ -> Prng.int rng 1_000_000)

let test_registry_deterministic () =
  let a = Rng_registry.create 99 and b = Rng_registry.create 99 in
  List.iter
    (fun name ->
      Alcotest.(check (list int))
        (name ^ " reproducible across registries")
        (draws (Rng_registry.stream a name) 16)
        (draws (Rng_registry.stream b name) 16))
    [ "gen.kb"; "gen.query"; "sched"; "fault" ];
  let c = Rng_registry.create 100 in
  Alcotest.(check bool)
    "different root seed, different stream" false
    (draws (Rng_registry.stream a "sched") 16
    = draws (Rng_registry.stream c "sched") 16)

let test_registry_interleaving_independent () =
  (* Reference: drain each stream alone. *)
  let reference name =
    let r = Rng_registry.create 4242 in
    draws (Rng_registry.stream r name) 24
  in
  let names = [ "gen.kb"; "gen.query"; "sched"; "fault" ] in
  let want = List.map reference names in
  (* Now interleave: one draw per stream, round-robin, 24 rounds. *)
  let r = Rng_registry.create 4242 in
  let acc = Hashtbl.create 4 in
  for _ = 1 to 24 do
    List.iter
      (fun name ->
        let d = Prng.int (Rng_registry.stream r name) 1_000_000 in
        Hashtbl.replace acc name (d :: (try Hashtbl.find acc name with Not_found -> [])))
      names
  done;
  List.iter2
    (fun name w ->
      Alcotest.(check (list int))
        (name ^ " unchanged by interleaving")
        w
        (List.rev (Hashtbl.find acc name)))
    names want

let test_registry_parallel_matrix () =
  (* The property the whole event-log determinism contract rests on:
     per-domain named streams draw the same values whatever the pool
     width. Worker [i] owns stream "worker.<i>"; at jobs 1, 2 and 8
     every worker must see the same sequence as the sequential
     reference. *)
  let workers = List.init 8 (fun i -> i) in
  let reference =
    let r = Rng_registry.create 7 in
    List.map
      (fun i -> draws (Rng_registry.stream r (Printf.sprintf "worker.%d" i)) 8)
      workers
  in
  List.iter
    (fun jobs ->
      let r = Rng_registry.create 7 in
      let got =
        Pool.run ~jobs (fun pool ->
            Pool.map pool
              (fun i ->
                draws (Rng_registry.stream r (Printf.sprintf "worker.%d" i)) 8)
              workers)
      in
      Alcotest.(check (list (list int)))
        (Printf.sprintf "jobs=%d matches sequential reference" jobs)
        reference got)
    [ 1; 2; 8 ]

let test_registry_names () =
  let r = Rng_registry.create 1 in
  ignore (Rng_registry.stream r "b.two");
  ignore (Rng_registry.stream r "a.one");
  ignore (Rng_registry.stream r "b.two");
  Alcotest.(check (list string)) "sorted, deduplicated" [ "a.one"; "b.two" ]
    (Rng_registry.names r);
  Alcotest.(check int) "root seed kept" 1 (Rng_registry.seed r)

(* ------------------------------------------------------------------ *)
(* Op serialization                                                   *)
(* ------------------------------------------------------------------ *)

let test_op_roundtrip () =
  (* Drive the real generator so the round-trip covers every alphabet
     letter with realistic payloads, including fault sequences. *)
  let registry = Rng_registry.create 5 in
  let g = Op.generator ~registry ~max_size:4 ~faults:true in
  for i = 0 to 199 do
    let op = Op.next g ~shadow:[] in
    let line = Op.render op in
    match Op.parse line with
    | Error msg -> Alcotest.failf "op %d: %S failed to parse back: %s" i line msg
    | Ok op' ->
      Alcotest.(check string)
        (Printf.sprintf "op %d round-trips" i)
        line (Op.render op')
  done

let test_op_parse_rejects () =
  List.iter
    (fun line ->
      match Op.parse line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S parsed, expected rejection" line)
    [ "frobnicate"; "jobs 0"; "jobs x"; "fault no.such.point"; "query )(" ]

(* ------------------------------------------------------------------ *)
(* Whole runs                                                         *)
(* ------------------------------------------------------------------ *)

let test_run_deterministic () =
  let go () = Sim.run ~max_size:3 ~seed:11 ~steps:25 () in
  let a = go () and b = go () in
  Alcotest.(check string) "same digest" a.Sim.digest b.Sim.digest;
  Alcotest.(check (list string)) "same event log" a.Sim.events b.Sim.events;
  Alcotest.(check int) "all steps ran" 25 a.Sim.steps;
  Alcotest.(check int) "no violations" 0 (List.length a.Sim.violations)

(* The run's pool width is pure mechanism: seed 3 draws a width-4
   pool, and replaying its ops on replay's width-2 pool reproduces the
   event log byte for byte, fan-outs and faults included. *)
let test_run_width_invariant () =
  Alcotest.(check bool) "seed 3 draws width 4" false
    (Rw_mc.Prng.bool
       (Rng_registry.stream (Rng_registry.create 3) "pool.width"));
  let r = Sim.run ~max_size:3 ~faults:true ~seed:3 ~steps:80 () in
  Alcotest.(check string) "replay at width 2" r.Sim.digest
    (Sim.replay r.Sim.ops).Sim.digest

let test_run_seed_sensitive () =
  let a = Sim.run ~max_size:3 ~seed:11 ~steps:10 ()
  and b = Sim.run ~max_size:3 ~seed:12 ~steps:10 () in
  Alcotest.(check bool) "different seeds diverge" false
    (String.equal a.Sim.digest b.Sim.digest)

(* Seed 3 was found empirically: all five catalog points fire within
   120 steps. Trimmed to 80 here — still all five — to keep tier-1
   fast. If the generator's draw layout changes this pin moves. *)
let test_faults_all_fire () =
  let r = Sim.run ~max_size:3 ~faults:true ~seed:3 ~steps:80 () in
  Alcotest.(check int) "no violations" 0 (List.length r.Sim.violations);
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " fired") true (List.mem p r.Sim.fired))
    Fault.points

(* ------------------------------------------------------------------ *)
(* Corpus                                                             *)
(* ------------------------------------------------------------------ *)

let test_case_roundtrip () =
  let ops =
    [
      Op.parse "load_kb P(C) /\\ Q(D)";
      Op.parse "fault store.sync";
      Op.parse "persist";
      Op.parse "batch P(C) ;; Q(D)";
      Op.parse "restart";
    ]
    |> List.map (function Ok o -> o | Error e -> Alcotest.failf "setup: %s" e)
  in
  let path = Filename.temp_file "rw-sim-case" ".sim" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sim.save_case ~path ~description:"round-trip fixture" ~seed:17
        ~faults:true ops;
      match Sim.load_case path with
      | Error msg -> Alcotest.failf "load_case: %s" msg
      | Ok case ->
        Alcotest.(check (option int)) "seed" (Some 17) case.Sim.case_seed;
        Alcotest.(check bool) "faults" true case.Sim.case_faults;
        Alcotest.(check (list string))
          "ops preserved"
          (List.map Op.render ops)
          (List.map Op.render case.Sim.ops))

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".sim")
  |> List.sort String.compare
  |> List.map (Filename.concat corpus_dir)

let test_corpus_loads () =
  let files = corpus_files () in
  Alcotest.(check bool)
    "at least 5 pinned cases checked in" true
    (List.length files >= 5);
  List.iter
    (fun path ->
      match Sim.load_case path with
      | Ok case ->
        Alcotest.(check bool)
          (path ^ " has a description") true
          (String.length case.Sim.description > 0)
      | Error msg -> Alcotest.failf "%s: %s" path msg)
    files

let test_corpus_replays_clean () =
  List.iter
    (fun path ->
      match Sim.load_case path with
      | Error msg -> Alcotest.failf "%s: %s" path msg
      | Ok case -> (
        match Sim.replay case.Sim.ops with
        | { Sim.violations = []; _ } -> ()
        | r ->
          let _, v = List.hd r.Sim.violations in
          Alcotest.failf "%s: replay found a violation (a fix regressed?): %s"
            path
            (Fmt.str "%a" Invariant.pp_violation v)))
    (corpus_files ())

let suite =
  [
    Alcotest.test_case "seed parse" `Quick test_seed_parse;
    Alcotest.test_case "registry deterministic" `Quick
      test_registry_deterministic;
    Alcotest.test_case "registry interleaving-independent" `Quick
      test_registry_interleaving_independent;
    Alcotest.test_case "registry parallel matrix jobs=1/2/8" `Quick
      test_registry_parallel_matrix;
    Alcotest.test_case "registry names" `Quick test_registry_names;
    Alcotest.test_case "op render/parse round-trip" `Quick test_op_roundtrip;
    Alcotest.test_case "op parse rejects garbage" `Quick test_op_parse_rejects;
    Alcotest.test_case "run is deterministic" `Slow test_run_deterministic;
    Alcotest.test_case "run is seed-sensitive" `Slow test_run_seed_sensitive;
    Alcotest.test_case "run is pool-width invariant" `Slow
      test_run_width_invariant;
    Alcotest.test_case "all fault points fire (pinned seed)" `Slow
      test_faults_all_fire;
    Alcotest.test_case "case save/load round-trip" `Quick test_case_roundtrip;
    Alcotest.test_case "corpus loads" `Quick test_corpus_loads;
    Alcotest.test_case "corpus replays clean" `Slow test_corpus_replays_clean;
  ]
