(* The domain pool and everything that had to become domain-safe for
   it: task ordering and exception transparency, the nested-use
   refusal, jobs-invariant Monte-Carlo answers, the sharded Instr
   counters, the mutex-guarded LRU, and budget degradation under a
   parallel batch. *)

open Rw_logic
open Randworlds

(* ------------------------------------------------------------------ *)
(* Pool mechanics                                                     *)
(* ------------------------------------------------------------------ *)

let test_map_order () =
  let xs = List.init 100 Fun.id in
  let got = Rw_pool.Pool.run ~jobs:4 (fun p -> Rw_pool.Pool.map p (fun x -> x * x) xs) in
  Alcotest.(check (list int)) "results in input order" (List.map (fun x -> x * x) xs) got;
  (* Degenerate shapes stay on the caller. *)
  Alcotest.(check (list int))
    "empty map" []
    (Rw_pool.Pool.run ~jobs:2 (fun p -> Rw_pool.Pool.map p (fun x -> x) []));
  Alcotest.(check (list int))
    "singleton map" [ 9 ]
    (Rw_pool.Pool.run ~jobs:2 (fun p -> Rw_pool.Pool.map p (fun x -> x * x) [ 3 ]))

exception Boom of int

let test_map_exception () =
  (* The first (lowest-index) failing task's exception surfaces; the
     other tasks still run to completion first. *)
  let ran = Atomic.make 0 in
  let raised =
    try
      ignore
        (Rw_pool.Pool.run ~jobs:4 (fun p ->
             Rw_pool.Pool.map p
               (fun i ->
                 Atomic.incr ran;
                 if i mod 3 = 1 then raise (Boom i) else i)
               (List.init 20 Fun.id)));
      None
    with Boom i -> Some i
  in
  Alcotest.(check (option int)) "lowest failing index wins" (Some 1) raised;
  Alcotest.(check int) "every task ran despite the failure" 20 (Atomic.get ran)

let test_nested_refused () =
  let got =
    Rw_pool.Pool.run ~jobs:2 (fun p ->
        Rw_pool.Pool.map p
          (fun () ->
            (* Both fanning out again and spinning up a second pool
               from inside a task must be refused. *)
            let map_refused =
              match Rw_pool.Pool.map p Fun.id [ 1; 2 ] with
              | _ -> false
              | exception Rw_pool.Pool.Nested -> true
            in
            let create_refused =
              match Rw_pool.Pool.run ~jobs:2 (fun _ -> ()) with
              | () -> false
              | exception Rw_pool.Pool.Nested -> true
            in
            map_refused && create_refused)
          [ (); () ])
  in
  Alcotest.(check (list bool)) "nested use refused on every task" [ true; true ] got;
  (* ... and the flag is scoped to the task: after the pool is gone,
     fan-out works again. *)
  Alcotest.(check (list int))
    "pool usable after a nested refusal" [ 2; 4 ]
    (Rw_pool.Pool.run ~jobs:2 (fun p -> Rw_pool.Pool.map p (fun x -> 2 * x) [ 1; 2 ]))

let test_jobs_validation () =
  Alcotest.check_raises "jobs = 0 rejected" (Invalid_argument "Pool.create: jobs must be >= 1")
    (fun () -> Rw_pool.Pool.run ~jobs:0 ignore)

(* The submitter of a future only waits, so even a width-1 pool starts
   a worker to run it. *)
let test_async_width_one () =
  let got =
    Rw_pool.Pool.run ~jobs:1 (fun p ->
        Rw_pool.Pool.await (Rw_pool.Pool.async p (fun () -> 6 * 7)))
  in
  Alcotest.(check int) "width-1 future answered" 42 got

(* ------------------------------------------------------------------ *)
(* One borrowed pool per process                                      *)
(* ------------------------------------------------------------------ *)

(* Domain ids only grow, one per spawn: the id a fresh probe domain
   gets counts every domain started before it. *)
let probe_domain_id () =
  Domain.join (Domain.spawn (fun () -> (Domain.self () :> int)))

let hep_kb = "Jaun(Eric) /\\ ||Hep(x) | Jaun(x)||_x ~=_1 0.8"

(* Eight queries: the default parallel threshold, so each batch fans
   out. *)
let hep_batch =
  List.map Parser.formula_exn
    [
      "Hep(Eric)"; "~Hep(Eric)"; "Jaun(Eric)"; "Hep(Eric) /\\ Jaun(Eric)";
      "Hep(Dana)"; "Jaun(Dana)"; "Hep(Eric) \\/ Hep(Dana)"; "Hep(Kim)";
    ]

let test_batches_share_one_pool () =
  let before = probe_domain_id () in
  Rw_pool.Pool.run ~jobs:2 (fun pool ->
      let svc = Rw_service.Service.create ~pool () in
      Rw_service.Service.load_kb svc (Parser.formula_exn hep_kb);
      for _ = 1 to 20 do
        List.iter
          (function
            | Ok _ -> () | Error msg -> Alcotest.failf "batch item: %s" msg)
          (Rw_service.Service.batch svc hep_batch)
      done);
  let after = probe_domain_id () in
  (* One worker for the whole run, plus the second probe itself. *)
  Alcotest.(check bool)
    (Printf.sprintf "20 batches started %d domains (at most 1 worker)"
       (after - before - 1))
    true
    (after - before <= 2)

(* The width is pure mechanism: services borrowing pools of width 1, 2
   and 4 answer a batch identically, Monte-Carlo items included (the
   binary predicate routes them past the unary and enum engines). *)
let test_batch_width_invariant () =
  let qs =
    hep_batch
    @ List.map Parser.formula_exn
        [ "Hep(Eric) /\\ R0(Eric, Eric)"; "Hep(Eric) /\\ R1(Eric, Eric)" ]
  in
  let config =
    {
      Rw_service.Service.default_config with
      Rw_service.Service.engine_options =
        {
          Engine.default_options with
          Engine.mc_samples = Some 2_000;
          mc_sizes = Some [ 8 ];
        };
    }
  in
  let answers jobs =
    Rw_pool.Pool.run ~jobs (fun pool ->
        let svc = Rw_service.Service.create ~config ~pool () in
        Rw_service.Service.load_kb svc (Parser.formula_exn hep_kb);
        List.map
          (function
            | Ok ((a : Answer.t), _) -> (a.Answer.engine, a.Answer.result)
            | Error msg -> Alcotest.failf "batch item: %s" msg)
          (Rw_service.Service.batch svc qs))
  in
  let reference = answers 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "width %d matches width 1" jobs)
        true
        (answers jobs = reference))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Seed stability: the tentpole determinism contract                  *)
(* ------------------------------------------------------------------ *)

(* A fixed-sample workload (half-width target 0 disables early
   stopping) so every job count does the same number of rounds. *)
let mc_outcome ~jobs =
  let kb = Parser.formula_exn "Jaun(Eric) /\\ ||Hep(x) | Jaun(x)||_x ~=_1 0.8" in
  let q = Parser.formula_exn "Hep(Eric)" in
  let vocab = Vocab.of_formulas [ kb; q ] in
  let config =
    {
      Rw_mc.Estimator.default_config with
      Rw_mc.Estimator.max_samples = 16_384;
      target_halfwidth = 0.0;
    }
  in
  let run pool =
    Rw_mc.Estimator.estimate ~config ?pool ~seed:42 ~vocab ~n:16
      ~tol:(Tolerance.uniform 0.2) ~kb q
  in
  let outcome = Rw_pool.Pool.run ~jobs (fun p -> run (Some p)) in
  (* Everything but the wall-clock field must be jobs-invariant. *)
  match outcome with
  | Rw_mc.Estimator.Estimate { mean; ci; stats } ->
    `Estimate (mean, ci, { stats with Rw_mc.Estimator.seconds = 0.0 })
  | Rw_mc.Estimator.Starved stats ->
    `Starved { stats with Rw_mc.Estimator.seconds = 0.0 }

let test_estimator_seed_stable () =
  let reference = mc_outcome ~jobs:1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d bit-identical to sequential" jobs)
        true
        (mc_outcome ~jobs = reference))
    [ 2; 4; 8 ]

(* Ten fuzz-generated KBs through the full Mc engine at three job
   counts: the verdicts (not the wall-clock notes) must agree. *)
let test_determinism_matrix () =
  let options =
    {
      Engine.default_options with
      Engine.mc_samples = Some 2_000;
      mc_ci_width = Some 0.2;
      mc_sizes = Some [ 8 ];
      tols = Some [ Tolerance.uniform 0.2 ];
    }
  in
  List.iter
    (fun i ->
      let case = Rw_fuzz.Gen.case ~seed:42 ~max_size:4 i in
      let kb = Rw_fuzz.Gen.kb_formula case in
      let query = case.Rw_fuzz.Gen.query in
      let result jobs =
        Rw_pool.Pool.run ~jobs (fun pool ->
            (Engine.run ~options ~pool Engine.Mc ~kb query).Answer.result)
      in
      let reference = result 1 in
      List.iter
        (fun jobs ->
          Alcotest.(check bool)
            (Printf.sprintf "case %d: jobs=%d matches jobs=1" i jobs)
            true
            (result jobs = reference))
        [ 2; 8 ])
    (List.init 10 Fun.id)

(* ------------------------------------------------------------------ *)
(* The shared-state fixes                                             *)
(* ------------------------------------------------------------------ *)

let test_instr_multi_domain () =
  let engine = "pool-hammer-test" in
  let per_domain = 10_000 in
  let hammer () =
    for _ = 1 to per_domain do
      Instr.record ~engine ~seconds:0.001
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn hammer) in
  List.iter Domain.join domains;
  let entry =
    List.find_opt
      (fun (e : Instr.entry) -> e.Instr.engine = engine)
      (Instr.snapshot ())
  in
  (match entry with
  | None -> Alcotest.fail "hammered engine missing from snapshot"
  | Some e ->
    Alcotest.(check int) "no lost increments" (4 * per_domain) e.Instr.count;
    Alcotest.(check bool)
      "seconds summed across shards" true
      (Float.abs (e.Instr.seconds -. (float_of_int (4 * per_domain) *. 0.001))
      < 1e-6));
  Instr.reset ();
  Alcotest.(check bool)
    "reset clears every shard" true
    (not
       (List.exists
          (fun (e : Instr.entry) -> e.Instr.engine = engine && e.Instr.count > 0)
          (Instr.snapshot ())))

let test_lru_sync_multi_domain () =
  let open Rw_service in
  (* Over capacity under contention: the bound must hold. *)
  let small = Lru.Sync.create ~capacity:8 in
  let worker d () =
    for i = 0 to 99 do
      let k = Printf.sprintf "d%d-%d" d i in
      Lru.Sync.add small k i;
      ignore (Lru.Sync.find small k)
    done
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join domains;
  let s = Lru.Sync.stats small in
  Alcotest.(check bool)
    (Printf.sprintf "size %d within capacity" s.Lru.size)
    true
    (s.Lru.size <= 8 && s.Lru.size > 0);
  (* Under capacity: disjoint keys from four domains, none lost. *)
  let big = Lru.Sync.create ~capacity:1024 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 99 do
              Lru.Sync.add big (Printf.sprintf "d%d-%d" d i) i
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost entries" 400 (Lru.Sync.stats big).Lru.size;
  List.iter
    (fun d ->
      for i = 0 to 99 do
        let k = Printf.sprintf "d%d-%d" d i in
        if Lru.Sync.find big k <> Some i then
          Alcotest.failf "entry %s lost or corrupted" k
      done)
    [ 0; 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Budgets under parallelism                                          *)
(* ------------------------------------------------------------------ *)

let test_budget_degrades_in_parallel_batch () =
  Rw_pool.Pool.run ~jobs:4 @@ fun pool ->
  let svc = Rw_service.Service.create ~pool () in
  Rw_service.Service.load_kb svc
    (Parser.formula_exn "Jaun(Eric) /\\ ||Hep(x) | Jaun(x)||_x ~=_1 0.8");
  (* The binary predicate routes each query to the Monte-Carlo engine
     (full default budget: far more than 10ms of sampling), so a 10ms
     deadline must expire mid-dispatch on whichever domain runs it. *)
  let qs =
    List.map Parser.formula_exn
      [
        "Hep(Eric) /\\ R0(Eric, Eric)"; "Hep(Eric) /\\ R1(Eric, Eric)";
        "Hep(Eric) /\\ R2(Eric, Eric)"; "Hep(Eric) /\\ R3(Eric, Eric)";
      ]
  in
  let results = Rw_service.Service.batch ~budget:0.01 svc qs in
  Alcotest.(check int) "all four answered" 4 (List.length results);
  List.iteri
    (fun i r ->
      match r with
      | Ok (_, Rw_service.Service.Degraded) -> ()
      | Ok (_, origin) ->
        Alcotest.failf "query %d: expected Degraded, got %s" i
          (match origin with
          | Rw_service.Service.Computed -> "Computed"
          | Rw_service.Service.Cached -> "Cached"
          | Rw_service.Service.Stored -> "Stored"
          | Rw_service.Service.Degraded -> "Degraded")
      | Error msg -> Alcotest.failf "query %d: %s" i msg)
    results

let test_budget_check_expires () =
  Alcotest.check_raises "deadline raises in the polled loop"
    Rw_pool.Budget.Expired (fun () ->
      Rw_pool.Budget.with_deadline ~seconds:0.005 (fun () ->
          while true do
            Rw_pool.Budget.check ()
          done));
  (* No deadline installed: check is a no-op forever. *)
  for _ = 1 to 1_000 do
    Rw_pool.Budget.check ()
  done

(* Deadlines nest by narrowing: an inner, wider deadline cannot extend
   the outer one, and an inner expiry inside a healthy outer deadline
   leaves the outer deadline running. Spins carry a 5 s failsafe so a
   broken deadline fails the test instead of hanging it. *)
let test_budget_nesting () =
  let module B = Rw_pool.Budget in
  let spin seconds =
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < seconds do
      B.check ()
    done
  in
  let t0 = Unix.gettimeofday () in
  Alcotest.check_raises "a wider inner deadline keeps the outer one" B.Expired
    (fun () ->
      B.with_deadline ~seconds:0.05 (fun () ->
          B.with_deadline ~seconds:10.0 (fun () -> spin 5.0)));
  Alcotest.(check bool) "outer expired promptly" true
    (Unix.gettimeofday () -. t0 < 4.0);
  Alcotest.check_raises "the outer deadline binds after the inner returns"
    B.Expired (fun () ->
      B.with_deadline ~seconds:0.05 (fun () ->
          let outer = B.current () in
          B.with_deadline ~seconds:10.0 (fun () ->
              Alcotest.(check bool) "inner narrowed to the outer" true
                (B.current () = outer));
          Alcotest.(check bool) "outer restored" true (B.current () = outer);
          spin 5.0));
  let v =
    B.with_deadline ~seconds:10.0 (fun () ->
        let outer = B.current () in
        Alcotest.check_raises "inner expires" B.Expired (fun () ->
            B.with_deadline ~seconds:0.01 (fun () -> spin 5.0));
        Alcotest.(check bool) "outer deadline restored" true
          (B.current () = outer);
        spin 0.05;
        "outer-done")
  in
  Alcotest.(check string) "outer completes" "outer-done" v;
  Alcotest.(check bool) "nothing left installed" true (B.current () = None)

let suite =
  [
    ("pool: map preserves order", `Quick, test_map_order);
    ("pool: exceptions propagate", `Quick, test_map_exception);
    ("pool: nested use refused", `Quick, test_nested_refused);
    ("pool: jobs must be positive", `Quick, test_jobs_validation);
    ("mc: seed-stable across job counts", `Slow, test_estimator_seed_stable);
    ("mc: determinism matrix, 10 fuzz KBs x jobs 1/2/8", `Slow, test_determinism_matrix);
    ("instr: exact counts from 4 recording domains", `Quick, test_instr_multi_domain);
    ("lru: Sync bound and no lost entries", `Quick, test_lru_sync_multi_domain);
    ("budget: parallel batch degrades on expiry", `Slow, test_budget_degrades_in_parallel_batch);
    ("budget: polled deadline expires", `Quick, test_budget_check_expires);
    ("budget: nested deadlines narrow, inner expiry spares the outer", `Quick,
     test_budget_nesting);
    ("pool: a width-1 pool answers a future", `Quick, test_async_width_one);
    ("pool: 20 batches on one borrowed pool start one worker", `Quick,
     test_batches_share_one_pool);
    ("pool: batch answers identical at widths 1, 2 and 4", `Slow,
     test_batch_width_invariant);
  ]
