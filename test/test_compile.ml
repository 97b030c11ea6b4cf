(* Tests for the compiled-KB subsystem: artifact identity (digests),
   answer invariance (a shared artifact vs one compiled per call), the
   service snapshot's artifact and its replacement, compile-once
   under a parallel batch, and the compiled-kb trace provenance
   fact. *)

open Rw_logic
open Randworlds
module C = Rw_compile.Compiled_kb
module Service = Rw_service.Service
module Trace = Rw_trace.Trace
module Interval = Rw_prelude.Interval

let parse s =
  match Parser.formula s with
  | Ok f -> f
  | Error msg -> Alcotest.failf "parse %S failed: %s" s msg

let kb_a =
  parse "||Fly(x) | Bird(x)||_x ~=_1 0.9 /\\ Bird(Tweety)"

let kb_b =
  parse "||Fly(x) | Bird(x)||_x ~=_1 0.8 /\\ Bird(Tweety)"

let result_eq a b =
  match (a, b) with
  | Answer.Point x, Answer.Point y -> Float.equal x y
  | Answer.Within i, Answer.Within j ->
    Float.equal (Interval.lo i) (Interval.lo j)
    && Float.equal (Interval.hi i) (Interval.hi j)
  | Answer.Inconsistent, Answer.Inconsistent -> true
  | Answer.No_limit _, Answer.No_limit _ -> true
  | Answer.Not_applicable _, Answer.Not_applicable _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Artifact identity                                                  *)
(* ------------------------------------------------------------------ *)

(* One statistical statement changed (0.9 → 0.8) must produce a
   distinct digest and a distinct artifact — the cache key really does
   separate the two KBs. *)
let test_distinct_digests () =
  let ca = C.compile kb_a and cb = C.compile kb_b in
  if String.equal (C.digest ca) (C.digest cb) then
    Alcotest.failf "KBs differing in a statistical bound share digest %s"
      (C.digest ca);
  Alcotest.(check bool) "artifact a matches kb_a" true (C.matches ca kb_a);
  Alcotest.(check bool) "artifact a rejects kb_b" false (C.matches ca kb_b);
  Alcotest.(check bool) "artifact b rejects kb_a" false (C.matches cb kb_a);
  (* The digest agrees with the canonical digest the service keys on. *)
  Alcotest.(check string) "digest is the canonical digest"
    (Canonical.digest kb_a) (C.digest ca)

let test_artifact_contents () =
  let c = C.compile kb_a in
  Alcotest.(check int) "compiling solves nothing" 0 (C.stats c).C.presolved;
  (* The profile solves the whole schedule, filling its cells. *)
  let profile = C.entropy_profile c in
  let s = C.stats c in
  Alcotest.(check int) "conjuncts" 2 s.C.conjunct_count;
  Alcotest.(check int) "statistical statements" 1 s.C.stat_count;
  (* Bird/Fly: 2 unary predicates → 4 atoms, one named constant. *)
  Alcotest.(check (option int)) "atoms" (Some 4) s.C.atoms;
  Alcotest.(check int) "constants" 1 s.C.constants;
  Alcotest.(check int) "schedule pre-solved"
    (List.length C.default_schedule)
    (s.C.presolved + s.C.infeasible);
  Alcotest.(check bool) "no infeasible tolerance" true (s.C.infeasible = 0);
  List.iter
    (fun (_, h) ->
      match h with
      | Some e ->
        if not (Float.is_finite e) then
          Alcotest.fail "non-finite entropy in the profile"
      | None -> Alcotest.fail "missing entropy on a feasible tolerance")
    profile

(* ------------------------------------------------------------------ *)
(* Answer invariance                                                  *)
(* ------------------------------------------------------------------ *)

(* Dispatch on a caller's artifact — shared by every case on its KB,
   so later cases read cells earlier ones filled — must be
   bit-identical to dispatch on one compiled for the call, across the
   dispatcher and each engine that consumes artifact state directly. *)
let invariance_cases =
  [
    ("maxent point", kb_a, "Fly(Tweety)");
    ("negated query", kb_a, "~Fly(Tweety)");
    ("other KB", kb_b, "Fly(Tweety)");
    ("conjunction", kb_a, "Fly(Tweety) /\\ Bird(Tweety)");
    ("unknown constant", kb_a, "Fly(Opus)");
  ]

let test_dispatch_invariance () =
  let shared = [ (kb_a, C.compile kb_a); (kb_b, C.compile kb_b) ] in
  List.iter
    (fun (name, kb, q) ->
      let query = parse q in
      let compiled = List.assq kb shared in
      let plain = Engine.degree_of_belief ~kb query in
      let fast = Engine.degree_of_belief ~compiled ~kb query in
      if not (result_eq plain.Answer.result fast.Answer.result) then
        Alcotest.failf "%s: compiled dispatch changed the answer: %a vs %a"
          name Answer.pp_result plain.Answer.result Answer.pp_result
          fast.Answer.result;
      Alcotest.(check string)
        (name ^ ": same engine") plain.Answer.engine fast.Answer.engine)
    invariance_cases

let test_forced_engine_invariance () =
  let query = parse "Fly(Tweety)" in
  let compiled = C.compile kb_a in
  List.iter
    (fun eid ->
      let plain = Engine.run eid ~kb:kb_a query in
      let fast = Engine.run ~compiled eid ~kb:kb_a query in
      if not (result_eq plain.Answer.result fast.Answer.result) then
        Alcotest.failf "engine %s: compiled run changed the answer: %a vs %a"
          (Engine.id_name eid) Answer.pp_result plain.Answer.result
          Answer.pp_result fast.Answer.result)
    Engine.all_ids

(* A foreign artifact (compiled for a different KB) must be replaced,
   not misapplied. *)
let test_foreign_artifact_ignored () =
  let query = parse "Fly(Tweety)" in
  let wrong = C.compile kb_b in
  let plain = Engine.degree_of_belief ~kb:kb_a query in
  let guarded = Engine.degree_of_belief ~compiled:wrong ~kb:kb_a query in
  if not (result_eq plain.Answer.result guarded.Answer.result) then
    Alcotest.failf "foreign artifact changed the answer: %a vs %a"
      Answer.pp_result plain.Answer.result Answer.pp_result
      guarded.Answer.result

(* ------------------------------------------------------------------ *)
(* Service artifact                                                   *)
(* ------------------------------------------------------------------ *)

let compiled_stats svc = (Service.stats svc).Service.compiled

(* A service alternating between two KBs must drop the old snapshot's
   artifact and recompile each time the KB changes — and keep
   answering correctly throughout. *)
let test_eviction () =
  (* The answer LRU is disabled so the repeated question actually
     reaches the artifact instead of being served from the answer
     cache. *)
  let config =
    {
      Service.default_config with
      Service.compiled_capacity = 1;
      cache_capacity = 0;
    }
  in
  let svc = Service.create ~config () in
  let q = parse "Fly(Tweety)" in
  let ask kb =
    Service.load_kb svc kb;
    match Service.query svc q with
    | Ok (a, _) -> a
    | Error msg -> Alcotest.failf "query failed: %s" msg
  in
  let a1 = ask kb_a in
  let b1 = ask kb_b in
  let a2 = ask kb_a in
  let c = compiled_stats svc in
  Alcotest.(check int) "three compiles (kb_a evicted between)" 3 c.Service.compiles;
  (* The recompiled artifact answers exactly as the first one did. *)
  if not (result_eq a1.Answer.result a2.Answer.result) then
    Alcotest.fail "recompile after eviction changed the answer";
  if result_eq a1.Answer.result b1.Answer.result then
    Alcotest.fail "distinct KBs unexpectedly share an answer"

(* Capacity 0 keeps no artifact resident: every dispatch compiles
   afresh, and answers are those of the default tier. *)
let test_disabled_tier () =
  let answer config q =
    let svc = Service.create ~config () in
    Service.load_kb svc kb_a;
    match Service.query svc (parse q) with
    | Ok (a, _) -> (a, svc)
    | Error msg -> Alcotest.failf "query failed: %s" msg
  in
  let config =
    { Service.default_config with Service.compiled_capacity = 0;
      cache_capacity = 0 }
  in
  List.iter
    (fun q ->
      let a, svc = answer config q in
      let b, _ = answer Service.default_config q in
      if not (result_eq a.Answer.result b.Answer.result) then
        Alcotest.failf "%s: capacity 0 changed the answer: %a vs %a" q
          Answer.pp_result a.Answer.result Answer.pp_result b.Answer.result;
      Alcotest.(check string) (q ^ ": same engine") b.Answer.engine
        a.Answer.engine;
      Alcotest.(check bool) (q ^ ": nothing resident") true
        (Option.is_none (Service.artifact svc)))
    [ "Fly(Tweety)"; "~Fly(Tweety)"; "Fly(Opus)" ]

(* ------------------------------------------------------------------ *)
(* Compile-once under a parallel batch                                *)
(* ------------------------------------------------------------------ *)

(* Twelve distinct queries fanned out on four domains: the artifact
   must be compiled exactly once (no duplicate solves, no torn
   artifact), and every answer must match a sequential run that
   compiles afresh per dispatch. *)
let test_concurrent_compile_once () =
  let queries =
    List.map parse
      [
        "Fly(Tweety)"; "~Fly(Tweety)"; "Bird(Tweety)"; "~Bird(Tweety)";
        "Fly(Tweety) /\\ Bird(Tweety)"; "Fly(Tweety) \\/ Bird(Tweety)";
        "Fly(Tweety) => Bird(Tweety)"; "Bird(Tweety) => Fly(Tweety)";
        "Fly(Opus)"; "Bird(Opus)"; "Fly(Opus) /\\ Bird(Opus)";
        "~(Fly(Tweety) /\\ Bird(Tweety))";
      ]
  in
  let results, c =
    Rw_pool.Pool.run ~jobs:4 (fun pool ->
        let svc = Service.create ~pool () in
        Service.load_kb svc kb_a;
        let results = Service.batch svc queries in
        (results, compiled_stats svc))
  in
  Alcotest.(check int) "compiled exactly once" 1 c.Service.compiles;
  (* Reference answers: same service config, no artifact resident,
     sequential. *)
  let plain_config =
    { Service.default_config with Service.compiled_capacity = 0 }
  in
  let plain = Service.create ~config:plain_config () in
  Service.load_kb plain kb_a;
  List.iter2
    (fun q (r, p) ->
      match (r, p) with
      | Ok (a, _), Ok (b, _) ->
        if not (result_eq a.Answer.result b.Answer.result) then
          Alcotest.failf "parallel compiled batch diverged on %s: %a vs %a"
            (Pretty.to_string q) Answer.pp_result a.Answer.result
            Answer.pp_result b.Answer.result
      | Error m, _ | _, Error m -> Alcotest.failf "batch item failed: %s" m)
    queries
    (List.combine results (Service.batch plain queries))

(* ------------------------------------------------------------------ *)
(* Trace provenance                                                   *)
(* ------------------------------------------------------------------ *)

let compiled_kb_fact events =
  List.find_map
    (function
      | Trace.Fact { tag = "compiled-kb"; fields } -> Some fields
      | _ -> None)
    events

(* The first answer against a KB pays the compile ("fresh-solve");
   later distinct queries reuse the artifact ("reused"). *)
let test_trace_provenance () =
  let svc = Service.create () in
  Service.load_kb svc kb_a;
  let explained q =
    match Service.query_explained svc (parse q) with
    | Ok e -> e.Service.trace
    | Error msg -> Alcotest.failf "explained query failed: %s" msg
  in
  let point fields =
    match List.assoc_opt "maxent_point" fields with
    | Some (Trace.S s) -> s
    | _ -> Alcotest.fail "compiled-kb fact lacks maxent_point"
  in
  (match compiled_kb_fact (explained "Fly(Tweety)") with
  | None -> Alcotest.fail "first dispatch emitted no compiled-kb fact"
  | Some fields ->
    Alcotest.(check string) "first use is the fresh solve" "fresh-solve"
      (point fields);
    (match List.assoc_opt "digest" fields with
    | Some (Trace.S d) ->
      Alcotest.(check bool) "digest prefix matches" true
        (String.length d > 0
        && String.sub (Canonical.digest kb_a) 0 (String.length d) = d)
    | _ -> Alcotest.fail "compiled-kb fact lacks a digest"));
  match compiled_kb_fact (explained "Bird(Tweety)") with
  | None -> Alcotest.fail "second dispatch emitted no compiled-kb fact"
  | Some fields ->
    Alcotest.(check string) "second use reuses the artifact" "reused"
      (point fields)

(* A disjunctive KB (the broken-arm shape of Example 5.4, with the
   disjunction at the top): each disjunct is compiled once and held by
   the parent artifact, so a second query against the same artifact
   re-solves nothing. *)
let broken_arm_or =
  parse
    "(||LUsable(x)||_x ~=_1 0.2 /\\ LBroken(Eric)) \\/ \
     (||LUsable(x)||_x ~=_1 0.2 /\\ RBroken(Eric))"

let test_disjuncts_compiled_once () =
  let c = C.compile broken_arm_or in
  let misses () =
    List.fold_left
      (fun n d -> n + (C.stats d).C.solve_misses)
      0 (C.disjuncts c)
  in
  Alcotest.(check int) "two disjunct artifacts" 2 (List.length (C.disjuncts c));
  Alcotest.(check bool) "held, not recompiled" true
    (C.disjuncts c == C.disjuncts c);
  let ask q =
    match
      (Engine.degree_of_belief ~compiled:c ~kb:broken_arm_or (parse q))
        .Answer.result
    with
    | Answer.Point v -> v
    | r -> Alcotest.failf "%s: %a" q Answer.pp_result r
  in
  Alcotest.(check (float 1e-6)) "first query" 0.2 (ask "LUsable(Eric)");
  let first = misses () in
  Alcotest.(check bool) "the first query solved" true (first > 0);
  Alcotest.(check (float 1e-6)) "second query" 0.8 (ask "~LUsable(Eric)");
  Alcotest.(check int) "no maxent solve misses on the second query" first
    (misses ());
  Alcotest.(check (list int)) "a conjunctive KB has no disjuncts" []
    (List.map (fun _ -> 0) (C.disjuncts (C.compile kb_a)))

(* ------------------------------------------------------------------ *)
(* Warm queries do no solver work                                     *)
(* ------------------------------------------------------------------ *)

let load_corpus_kb name =
  let dir =
    match
      List.find_opt Sys.file_exists
        [ "../examples/kb"; "examples/kb"; "../../examples/kb" ]
    with
    | Some d -> d
    | None -> Alcotest.fail "examples/kb corpus not found"
  in
  match Kb_file.validated_load (Filename.concat dir name) with
  | Ok kb -> kb
  | Error msg -> Alcotest.failf "%s failed to load: %s" name msg

(* Once a cold estimate has filled an artifact's solve cells, the same
   maxent query reads them and conditions on the memoised point: it
   never reaches the solver's budget poll, so an already-expired
   deadline cannot degrade it. Covers every unary corpus query with a
   paper value, the taxonomy queries whose conditioning mass vanishes
   at the small tolerances, and taxonomy queries naming Wings, which
   the KB lacks: they read the same cells, lifted. *)
let test_warm_estimate_no_solver_work () =
  List.iter
    (fun (file, q) ->
      let c = C.compile (load_corpus_kb file) and query = parse q in
      let cold = Maxent_engine.estimate c query in
      (match cold.Answer.result with
      | Answer.Point _ -> ()
      | r -> Alcotest.failf "%s %s: cold answer %a" file q Answer.pp_result r);
      match
        Rw_pool.Budget.with_deadline ~seconds:(-1.0) (fun () ->
            Maxent_engine.estimate c query)
      with
      | warm ->
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: identical warm answer" file q)
          true
          (result_eq cold.Answer.result warm.Answer.result
          && cold.Answer.notes = warm.Answer.notes)
      | exception Rw_pool.Budget.Expired ->
        Alcotest.failf "%s %s: the warm estimate ran the solver" file q)
    [
      ("hepatitis.kb", "Hep(Eric)");
      ("tweety.kb", "~Fly(Tweety)");
      ("nixon.kb", "Pac(Nixon)");
      ("taxonomy.kb", "Swims(Opus)");
      ("taxonomy.kb", "Fly(Opus)");
      ("taxonomy.kb", "Wings(Opus)");
      ("taxonomy.kb", "Fly(Opus) /\\ Wings(Opus)");
      ("tay_sachs.kb", "TS(Eric)");
      ("black_birds.kb", "Black(Clyde)");
      ("broken_arm.kb", "LUsable(Eric) \\/ RUsable(Eric)");
    ]

(* A universal whose body has a binary leaf is outside the unary
   fragment, even though at the all-false atom the implication never
   reaches that leaf. Compiling the KB and reading its entropy profile
   is total, a solve's outcome is cached whatever it is, and a query
   still answers through the general engines. *)
let test_non_unary_universal () =
  let kb = parse "forall x (P(x) => Q(x,x)) /\\ ||P(x)||_x ~=_1 0.3 /\\ P(C)" in
  let c = C.compile kb in
  Alcotest.(check int) "no entropy profile outside the fragment" 0
    (List.length (C.entropy_profile c));
  let s = C.stats c in
  Alcotest.(check (option int)) "not in the unary fragment" None s.C.atoms;
  let tol = List.hd C.default_schedule in
  let solve () =
    match C.solve c tol with
    | _ -> ()
    | exception (Rw_unary.Constraints.Unsupported _ | Atoms.Not_boolean _) -> ()
  in
  solve ();
  solve ();
  Alcotest.(check (pair int int)) "the solve's outcome is cached" (1, 1)
    ((C.stats c).C.solve_misses, (C.stats c).C.solve_hits);
  let a = Engine.degree_of_belief ~kb (parse "P(C)") in
  Alcotest.(check string) "answered by enumeration" "enum" a.Answer.engine;
  Alcotest.(check bool) "P(C) is believed" true
    (result_eq a.Answer.result (Answer.Point 1.0))

let suite =
  [
    Alcotest.test_case "distinct digests" `Quick test_distinct_digests;
    Alcotest.test_case "artifact contents" `Quick test_artifact_contents;
    Alcotest.test_case "dispatch invariance" `Quick test_dispatch_invariance;
    Alcotest.test_case "forced-engine invariance" `Quick
      test_forced_engine_invariance;
    Alcotest.test_case "foreign artifact ignored" `Quick
      test_foreign_artifact_ignored;
    Alcotest.test_case "eviction" `Quick test_eviction;
    Alcotest.test_case "disabled tier" `Quick test_disabled_tier;
    Alcotest.test_case "concurrent compile-once" `Quick
      test_concurrent_compile_once;
    Alcotest.test_case "trace provenance" `Quick test_trace_provenance;
    Alcotest.test_case "disjuncts compiled once" `Quick
      test_disjuncts_compiled_once;
    Alcotest.test_case "warm estimate does no solver work" `Quick
      test_warm_estimate_no_solver_work;
    Alcotest.test_case "non-unary universal compiles" `Quick
      test_non_unary_universal;
  ]
