(* Tests for the query service layer: canonical forms and digests,
   the JSON codec, the LRU cache, the service's cache/budget
   behaviour, and the NDJSON serve protocol. *)

open Rw_logic
open Randworlds
module Json = Rw_service.Json
module Lru = Rw_service.Lru
module Service = Rw_service.Service
module Server = Rw_service.Server
module Trace = Rw_trace.Trace

let parse s =
  match Parser.formula s with
  | Ok f -> f
  | Error msg -> Alcotest.failf "parse %S failed: %s" s msg

(* ------------------------------------------------------------------ *)
(* Canonicalization                                                   *)
(* ------------------------------------------------------------------ *)

let check_equivalent msg a b =
  let fa = parse a and fb = parse b in
  if not (Canonical.equivalent fa fb) then
    Alcotest.failf "%s: expected equal canonical forms:\n  %s\n  %s" msg
      (Canonical.to_string fa) (Canonical.to_string fb);
  Alcotest.(check string) (msg ^ " (digest)") (Canonical.digest fa)
    (Canonical.digest fb)

let check_distinct msg a b =
  let fa = parse a and fb = parse b in
  if Canonical.equivalent fa fb then
    Alcotest.failf "%s: expected distinct canonical forms, both are\n  %s" msg
      (Canonical.to_string fa)

let test_canon_alpha () =
  check_equivalent "quantifier rename" "forall x (A(x))" "forall y (A(y))";
  check_equivalent "nested quantifier rename"
    "forall x (exists y (R(x,y)))"
    "forall u (exists v (R(u,v)))";
  check_equivalent "proportion subscript rename"
    "||A(x)||_x ~=_1 0.5" "||A(y)||_y ~=_1 0.5";
  check_equivalent "conditional proportion rename"
    "||A(x) | B(x)||_x ~=_1 0.9" "||A(z) | B(z)||_z ~=_1 0.9";
  check_equivalent "two-variable subscript permutation"
    "||R(x,y)||_{x,y} ~=_1 0.5" "||R(y,x)||_{y,x} ~=_1 0.5"

let test_canon_ac () =
  check_equivalent "commuted conjunction" "A /\\ B" "B /\\ A";
  check_equivalent "reassociated conjunction" "(A /\\ B) /\\ C"
    "A /\\ (B /\\ C)";
  check_equivalent "reordered three-way conjunction" "A /\\ B /\\ C"
    "C /\\ A /\\ B";
  check_equivalent "duplicate conjunct collapsed" "A /\\ A /\\ B" "B /\\ A";
  check_equivalent "commuted disjunction" "A \\/ B" "B \\/ A";
  check_equivalent "mixed nesting" "(A \\/ B) /\\ C" "C /\\ (B \\/ A)"

let test_canon_boolean () =
  check_equivalent "double negation" "~~A" "A";
  check_equivalent "de morgan" "~(A /\\ B)" "~A \\/ ~B";
  check_equivalent "implication expanded" "A => B" "~A \\/ B";
  check_equivalent "constant folding" "A /\\ true" "A"

let test_canon_symmetric () =
  check_equivalent "swapped ~=_i operands"
    "||A(x)||_x ~=_1 0.5" "0.5 ~=_1 ||A(x)||_x";
  check_equivalent "commuted proportion sum"
    "||A(x)||_x + ||B(x)||_x ~=_1 0.5"
    "||B(x)||_x + ||A(x)||_x ~=_1 0.5";
  check_equivalent "commuted proportion product"
    "2 * ||A(x)||_x ~=_1 0.5" "||A(x)||_x * 2 ~=_1 0.5"

let test_canon_distinct () =
  check_distinct "different constants" "Hep(Eric)" "Hep(Tom)";
  check_distinct "different predicates" "Hep(Eric)" "Jaun(Eric)";
  check_distinct "different tolerance indices"
    "||A(x)||_x ~=_1 0.5" "||A(x)||_x ~=_2 0.5";
  check_distinct "different thresholds"
    "||A(x)||_x ~=_1 0.5" "||A(x)||_x ~=_1 0.6";
  check_distinct "swapped <=_i operands (asymmetric)"
    "||A(x)||_x <=_1 0.5" "0.5 <=_1 ||A(x)||_x";
  check_distinct "negation" "A" "~A";
  check_distinct "conjunction vs disjunction" "A /\\ B" "A \\/ B"

(* Property-style sweep: over every zoo formula, canonicalization is
   idempotent, the digest is stable, and the standard syntactic
   variants collapse onto the original's digest. *)
let test_canon_zoo_properties () =
  List.iter
    (fun (e : Rw_kbzoo.Kbzoo.entry) ->
      List.iter
        (fun f ->
          let c = Canonical.canonicalize f in
          if not (Syntax.equal c (Canonical.canonicalize c)) then
            Alcotest.failf "%s: canonicalize not idempotent on %s" e.id
              (Pretty.to_string f);
          Alcotest.(check string)
            (e.id ^ " digest stable")
            (Canonical.digest f) (Canonical.digest f);
          Alcotest.(check string)
            (e.id ^ " double negation variant")
            (Canonical.digest f)
            (Canonical.digest (Syntax.Not (Syntax.Not f)));
          Alcotest.(check string)
            (e.id ^ " conjunction-with-true variant")
            (Canonical.digest f)
            (Canonical.digest (Syntax.And (f, Syntax.True))))
        [ e.kb; e.query ])
    (Rw_kbzoo.Kbzoo.all ())

(* ------------------------------------------------------------------ *)
(* JSON codec                                                         *)
(* ------------------------------------------------------------------ *)

let json = Alcotest.testable (Fmt.of_to_string Json.to_string) ( = )

let roundtrip v =
  match Json.of_string (Json.to_string v) with
  | Ok v' -> v'
  | Error msg -> Alcotest.failf "roundtrip failed: %s" msg

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("id", Json.Int 3);
        ("ok", Json.Bool true);
        ("value", Json.Float 0.8);
        ("notes", Json.List [ Json.String "a \"quoted\" note"; Json.Null ]);
        ("nested", Json.Obj [ ("empty", Json.List []); ("e", Json.Obj []) ]);
        ("text", Json.String "line1\nline2\ttab\\slash");
      ]
  in
  Alcotest.check json "roundtrip" v (roundtrip v);
  Alcotest.check json "tiny float" (Json.Float 1e-9) (roundtrip (Json.Float 1e-9));
  Alcotest.check json "third" (Json.Float (1.0 /. 3.0))
    (roundtrip (Json.Float (1.0 /. 3.0)))

let test_json_parse () =
  let ok s = match Json.of_string s with
    | Ok v -> v
    | Error msg -> Alcotest.failf "parse %S: %s" s msg
  in
  Alcotest.check json "whitespace" (Json.Obj [ ("a", Json.Int 1) ])
    (ok " { \"a\" : 1 } ");
  Alcotest.check json "unicode escape" (Json.String "A") (ok {|"A"|});
  Alcotest.check json "surrogate pair" (Json.String "\xf0\x9f\x99\x82")
    (ok {|"🙂"|});
  Alcotest.check json "negative exponent" (Json.Float 2.5e-3) (ok "2.5e-3");
  Alcotest.check json "int stays int" (Json.Int 42) (ok "42");
  (match Json.of_string "{\"a\":}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted malformed object");
  (match Json.of_string "[1,2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unterminated array");
  (match Json.of_string "1 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted trailing garbage")

let test_json_nonfinite () =
  Alcotest.(check string) "nan" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf" "null"
    (Json.to_string (Json.Float Float.infinity))

(* ------------------------------------------------------------------ *)
(* LRU                                                                *)
(* ------------------------------------------------------------------ *)

let test_lru_basic () =
  let c = Lru.create ~capacity:2 in
  Alcotest.(check (option int)) "miss on empty" None (Lru.find c "a");
  Lru.add c "a" 1;
  Alcotest.(check (option int)) "hit after add" (Some 1) (Lru.find c "a");
  Lru.add c "a" 2;
  Alcotest.(check (option int)) "update in place" (Some 2) (Lru.find c "a");
  let s = Lru.stats c in
  Alcotest.(check int) "hits" 2 s.Lru.hits;
  Alcotest.(check int) "misses" 1 s.Lru.misses;
  Alcotest.(check int) "size" 1 s.Lru.size

let test_lru_eviction () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  ignore (Lru.find c "a");
  (* "b" is now least-recent: adding "c" must evict it. *)
  Lru.add c "c" 3;
  Alcotest.(check bool) "a survives" true (Lru.mem c "a");
  Alcotest.(check bool) "b evicted" false (Lru.mem c "b");
  Alcotest.(check bool) "c present" true (Lru.mem c "c");
  let s = Lru.stats c in
  Alcotest.(check int) "one eviction" 1 s.Lru.evictions;
  Alcotest.(check int) "size at capacity" 2 s.Lru.size

let test_lru_disabled () =
  let c = Lru.create ~capacity:0 in
  Lru.add c "a" 1;
  Alcotest.(check (option int)) "capacity 0 stores nothing" None
    (Lru.find c "a");
  Alcotest.check Alcotest.bool "negative capacity rejected" true
    (match Lru.create ~capacity:(-1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Service: cache behaviour                                           *)
(* ------------------------------------------------------------------ *)

let hep_service () =
  let svc = Service.create () in
  Service.load_kb svc (Rw_kbzoo.Kbzoo.hep_simple ());
  svc

let ask svc q =
  match Service.query svc q with
  | Ok r -> r
  | Error msg -> Alcotest.failf "query failed: %s" msg

let origin = Alcotest.of_pp (fun ppf -> function
  | Service.Computed -> Fmt.string ppf "computed"
  | Service.Cached -> Fmt.string ppf "cached"
  | Service.Stored -> Fmt.string ppf "stored"
  | Service.Degraded -> Fmt.string ppf "degraded")

let test_cache_hit_after_miss () =
  let svc = hep_service () in
  let q = parse "Hep(Eric)" in
  let a1, o1 = ask svc q in
  Alcotest.check origin "first ask computes" Service.Computed o1;
  let a2, o2 = ask svc q in
  Alcotest.check origin "second ask hits" Service.Cached o2;
  Alcotest.(check bool) "identical Answer.t" true (a1 = a2);
  (* A syntactic variant must hit the same entry. *)
  let a3, o3 = ask svc (parse "~~Hep(Eric)") in
  Alcotest.check origin "variant hits" Service.Cached o3;
  Alcotest.(check bool) "variant answer identical" true (a1 = a3);
  let st = Service.stats svc in
  Alcotest.(check int) "hits" 2 st.Service.cache.Lru.hits;
  Alcotest.(check int) "misses" 1 st.Service.cache.Lru.misses;
  Alcotest.(check int) "queries" 3 st.Service.queries

let test_cache_counters_sequence () =
  let svc = hep_service () in
  (* miss, hit, miss, hit, hit *)
  let seq =
    [ "Hep(Eric)"; "Hep(Eric)"; "~Hep(Eric)"; "~Hep(Eric)"; "Hep(Eric)" ]
  in
  List.iter (fun s -> ignore (ask svc (parse s))) seq;
  let st = Service.stats svc in
  Alcotest.(check int) "hits" 3 st.Service.cache.Lru.hits;
  Alcotest.(check int) "misses" 2 st.Service.cache.Lru.misses;
  Alcotest.(check int) "queries" 5 st.Service.queries;
  Alcotest.(check int) "latency sampled every request" 5
    st.Service.latency.Service.requests

let test_cache_eviction_end_to_end () =
  let config = { Service.default_config with Service.cache_capacity = 1 } in
  let svc = Service.create ~config () in
  Service.load_kb svc (Rw_kbzoo.Kbzoo.hep_simple ());
  let q1 = parse "Hep(Eric)" and q2 = parse "~Hep(Eric)" in
  ignore (ask svc q1);
  ignore (ask svc q2);
  (* q1 was evicted by q2: asking it again recomputes. *)
  let _, o = ask svc q1 in
  Alcotest.check origin "recomputed after eviction" Service.Computed o;
  let st = Service.stats svc in
  Alcotest.(check int) "evictions" 2 st.Service.cache.Lru.evictions;
  Alcotest.(check int) "no hits" 0 st.Service.cache.Lru.hits

(* The acceptance sweep: over the whole zoo, the service returns the
   same verdict as a direct engine dispatch — on the miss AND on the
   hit. Compare result and engine, not notes: Monte-Carlo cross-check
   notes embed wall-clock timings. *)
let test_zoo_service_matches_direct () =
  List.iter
    (fun (e : Rw_kbzoo.Kbzoo.entry) ->
      let direct = Engine.degree_of_belief ~kb:e.kb e.query in
      let svc = Service.create () in
      Service.load_kb svc e.kb;
      let miss, o1 = ask svc e.query in
      let hit, o2 = ask svc e.query in
      Alcotest.check origin (e.id ^ " computed") Service.Computed o1;
      Alcotest.check origin (e.id ^ " cached") Service.Cached o2;
      List.iter
        (fun (a : Answer.t) ->
          if a.Answer.result <> direct.Answer.result then
            Alcotest.failf "%s: service %s != direct %s" e.id
              (Fmt.str "%a" Answer.pp a)
              (Fmt.str "%a" Answer.pp direct);
          Alcotest.(check string)
            (e.id ^ " engine") direct.Answer.engine a.Answer.engine)
        [ miss; hit ])
    (Rw_kbzoo.Kbzoo.all ())

(* ------------------------------------------------------------------ *)
(* Budgets                                                            *)
(* ------------------------------------------------------------------ *)

let test_budget_zero_degrades () =
  let svc = hep_service () in
  let q = parse "Hep(Eric)" in
  let a, o = ask svc q in
  Alcotest.check origin "unbudgeted computes" Service.Computed o;
  let svc2 = hep_service () in
  match Service.query ~budget:0.0 svc2 q with
  | Error msg -> Alcotest.failf "budgeted query failed: %s" msg
  | Ok (d, o) ->
    Alcotest.check origin "zero budget degrades" Service.Degraded o;
    Alcotest.(check string) "degraded answer is the rules engine's" "rules"
      d.Answer.engine;
    (* Soundness: rules-engine answers agree with the full dispatch
       here (hepatitis is a rules-engine case). *)
    Alcotest.(check bool) "degraded result matches" true
      (d.Answer.result = a.Answer.result);
    (* Degraded answers are never cached. *)
    let _, o2 = ask svc2 q in
    Alcotest.check origin "recomputed after degrade" Service.Computed o2;
    let st = Service.stats svc2 in
    Alcotest.(check int) "timeout counted" 1 st.Service.timeouts

(* A budget that expires inside the maxent solve. The first request
   against broken_arm.kb compiles the KB outside its budget (the
   syntactic pass, no solve), so the artifact is resident however short
   the budget; the first code to poll the deadline is the maxent solve,
   and a 1 µs budget is gone by that first poll. So the artifact stays
   resident with no solve cell filled — an expired solve is never
   memoised. The same request has to degrade promptly whether it runs
   on the calling domain or on a pool worker (the listener routes every
   query through [Pool.async]). *)
let test_budget_expires_in_maxent () =
  let degrades_promptly where run =
    let svc =
      Service.create
        ~config:{ Service.default_config with budget = Some 1e-6 }
        ()
    in
    (match Service.load_kb_file svc "../examples/kb/broken_arm.kb" with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "load broken_arm.kb: %s" msg);
    let t0 = Unix.gettimeofday () in
    match run (fun () -> Service.query_src svc "LUsable(Eric)") with
    | Error msg -> Alcotest.failf "%s: query failed: %s" where msg
    | Ok (a, o) ->
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.check origin (where ^ ": degraded") Service.Degraded o;
      Alcotest.(check string) (where ^ ": rules answer") "rules" a.Answer.engine;
      Alcotest.(check int) (where ^ ": the artifact compiled once") 1
        (Service.stats svc).Service.compiled.Service.compiles;
      (match Service.artifact svc with
      | Some c ->
        let s = Rw_compile.Compiled_kb.stats c in
        Alcotest.(check int) (where ^ ": no solve cell filled") 0
          (s.Rw_compile.Compiled_kb.presolved
          + s.Rw_compile.Compiled_kb.infeasible)
      | None -> Alcotest.failf "%s: no resident artifact" where);
      if elapsed >= 1.0 then
        Alcotest.failf "%s: degraded only after %.3f s" where elapsed
  in
  degrades_promptly "main domain" (fun f -> f ());
  degrades_promptly "pool worker" (fun f ->
      Rw_pool.Pool.run ~jobs:2 (fun p ->
          Rw_pool.Pool.await (Rw_pool.Pool.async p f)))

(* A budget shorter than any compile must not starve the artifact:
   the compile runs before the budget starts, so the first request
   leaves the artifact resident and the later ones reuse it — one
   compile for three queries, not a compile attempt per query. *)
let test_short_budget_still_compiles () =
  let svc =
    Service.create ~config:{ Service.default_config with budget = Some 1e-6 } ()
  in
  (match Service.load_kb_file svc "../examples/kb/taxonomy.kb" with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "load taxonomy.kb: %s" msg);
  List.iter
    (fun q ->
      match Service.query_src svc q with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s failed: %s" q msg)
    [ "Fly(Opus)"; "Swims(Opus)"; "Feathered(Opus)" ];
  Alcotest.(check int) "one compile across three short-budget queries" 1
    (Service.stats svc).Service.compiled.Service.compiles;
  Alcotest.(check bool) "the artifact is resident" true
    (Service.artifact svc <> None)

(* ------------------------------------------------------------------ *)
(* Belief-change sessions                                             *)
(* ------------------------------------------------------------------ *)

let upd svc action s =
  match Service.update svc action (parse s) with
  | Ok o -> o
  | Error msg -> Alcotest.failf "update %S failed: %s" s msg

(* The satellite bugfix: replacing the KB must reclaim every cache
   entry of the old digest — they are unreachable under the new digest
   and used to squat on LRU capacity until ordinary eviction pushed
   them out. *)
let test_session_swap_reclaims () =
  let svc = hep_service () in
  ignore (ask svc (parse "Hep(Eric)"));
  ignore (ask svc (parse "~Hep(Eric)"));
  Alcotest.(check int) "two entries resident" 2
    (Service.stats svc).Service.cache.Lru.size;
  Service.load_kb svc (parse "Wet(Sam)");
  let st = Service.stats svc in
  Alcotest.(check int) "old digest reclaimed from the LRU" 2
    st.Service.cache.Lru.removed;
  Alcotest.(check int) "cache empty after the swap" 0
    st.Service.cache.Lru.size;
  Alcotest.(check int) "session counts the reclaim" 2
    st.Service.session.Service.swap_reclaimed;
  (* Reloading the same KB must keep the cache intact. *)
  ignore (ask svc (parse "Wet(Sam)"));
  Service.load_kb svc (parse "Wet(Sam)");
  let st = Service.stats svc in
  Alcotest.(check int) "same-KB reload reclaims nothing" 2
    st.Service.cache.Lru.removed;
  Alcotest.(check int) "entry survives the same-KB reload" 1
    st.Service.cache.Lru.size

let test_session_disjoint_update_revalidates () =
  let svc = hep_service () in
  let q = parse "Hep(Eric)" in
  let a1, _ = ask svc q in
  Alcotest.(check string) "rules-engine case" "rules" a1.Answer.engine;
  (* Vocabulary disjoint from the cached query: the entry must be
     revalidated under the new digest, not recomputed. *)
  let o = upd svc Service.Assert "Wet(Sam)" in
  Alcotest.(check bool) "delta changed the KB" true o.Service.changed;
  Alcotest.(check int) "entry revalidated" 1 o.Service.revalidated;
  Alcotest.(check int) "nothing evicted" 0 o.Service.evicted;
  let a2, org = ask svc q in
  Alcotest.check origin "still served from the LRU" Service.Cached org;
  Alcotest.(check bool) "answer identical across the update" true (a1 = a2);
  (* The soundness gate: bit-identical to a cold dispatch on the
     updated KB. *)
  let cold =
    Engine.degree_of_belief ~kb:(Option.get (Service.kb svc)) q
  in
  Alcotest.(check bool) "bit-identical to cold dispatch" true
    (a2.Answer.result = cold.Answer.result);
  Alcotest.(check string) "same signing engine" cold.Answer.engine
    a2.Answer.engine

let test_session_overlapping_update_evicts () =
  let svc = hep_service () in
  let q = parse "Hep(Eric)" in
  ignore (ask svc q);
  (* Shares the Hep predicate with the cached query: must evict. *)
  let o = upd svc Service.Assert "Hep(Dana)" in
  Alcotest.(check int) "entry evicted" 1 o.Service.evicted;
  Alcotest.(check int) "nothing revalidated" 0 o.Service.revalidated;
  let a, org = ask svc q in
  Alcotest.check origin "recomputed after eviction" Service.Computed org;
  let cold = Engine.degree_of_belief ~kb:(Option.get (Service.kb svc)) q in
  Alcotest.(check bool) "recomputed answer matches cold dispatch" true
    (a.Answer.result = cold.Answer.result)

let test_session_retract_and_noops () =
  let svc = hep_service () in
  let o1 = upd svc Service.Assert "Wet(Sam)" in
  Alcotest.(check bool) "assert changed" true o1.Service.changed;
  (* Asserting a conjunct already present (canonically) is a no-op. *)
  let o2 = upd svc Service.Assert "~~Wet(Sam)" in
  Alcotest.(check bool) "canonical re-assert is a no-op" false
    o2.Service.changed;
  Alcotest.(check string) "no-op leaves the artifact alone" "unchanged"
    o2.Service.artifact;
  Alcotest.(check string) "no-op keeps the digest" o1.Service.digest_after
    o2.Service.digest_after;
  (* Retract takes the KB back to its pre-assert digest. *)
  let o3 = upd svc Service.Retract "Wet(Sam)" in
  Alcotest.(check bool) "retract changed" true o3.Service.changed;
  Alcotest.(check bool) "digest moved" true
    (o3.Service.digest_after <> o1.Service.digest_after);
  let o4 = upd svc Service.Assert "Wet(Sam)" in
  Alcotest.(check string) "assert-retract-assert round-trips the digest"
    o1.Service.digest_after o4.Service.digest_after;
  (* Retracting something absent is a no-op too. *)
  let o5 = upd svc Service.Retract "Dry(Sam)" in
  Alcotest.(check bool) "absent retract is a no-op" false o5.Service.changed

let test_session_log_and_errors () =
  let svc = Service.create () in
  (match Service.update svc Service.Assert (parse "A(c)") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "update without a KB must be an error");
  let svc = hep_service () in
  ignore (upd svc Service.Assert "Wet(Sam)");
  ignore (upd svc Service.Retract "Wet(Sam)");
  (* An ill-formed delta (arity conflict) is rejected atomically. *)
  let digest_before =
    (upd svc Service.Assert "Wet(Sam)").Service.digest_after
  in
  (match Service.update svc Service.Assert (parse "Hep(Eric, Dana)") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "arity-conflicting assert must be an error");
  Alcotest.(check string) "rejected update mutated nothing" digest_before
    (upd svc Service.Retract "Dry(Sam)").Service.digest_after;
  let log = Service.session_log svc in
  (* load + assert + retract + assert + no-op retract. *)
  Alcotest.(check int) "log length" 5 (List.length log);
  Alcotest.(check (list string)) "log actions, oldest first"
    [ "load"; "assert"; "retract"; "assert"; "retract" ]
    (List.map (fun (e : Service.session_event) -> e.Service.action) log);
  Alcotest.(check (list int)) "sequence numbers" [ 1; 2; 3; 4; 5 ]
    (List.map (fun (e : Service.session_event) -> e.Service.seq) log);
  (* The digest chain is connected: each event starts where the
     previous one ended. *)
  ignore
    (List.fold_left
       (fun prev (e : Service.session_event) ->
         (match prev with
         | Some d ->
           Alcotest.(check string) "digest chain connected" d
             e.Service.digest_before
         | None -> ());
         Some e.Service.digest_after)
       None log);
  let st = (Service.stats svc).Service.session in
  Alcotest.(check int) "updates counted" 4 st.Service.updates;
  Alcotest.(check int) "asserts counted" 2 st.Service.asserts;
  Alcotest.(check int) "retracts counted" 2 st.Service.retracts;
  Alcotest.(check int) "log_entries" 5 st.Service.log_entries

(* [log_entries] is a counter kept beside the log, so [stats] stays
   O(1) however long the session; it must track the log exactly through
   asserts, retracts, no-ops, rejected updates and KB swaps. *)
let test_session_log_counter () =
  let svc = hep_service () in
  let agrees label =
    Alcotest.(check int) label
      (List.length (Service.session_log svc))
      (Service.stats svc).Service.session.Service.log_entries
  in
  agrees "after load";
  List.iter
    (fun (action, src) -> ignore (upd svc action src))
    [
      (Service.Assert, "Wet(Sam)");
      (Service.Assert, "Jaun(Dana)");
      (Service.Retract, "Wet(Sam)");
      (Service.Retract, "Dry(Sam)");
      (Service.Assert, "Wet(Sam)");
      (Service.Retract, "Jaun(Dana)");
    ];
  agrees "after a mixed assert/retract sequence";
  (match Service.update svc Service.Assert (parse "Hep(Eric, Dana)") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "arity-conflicting assert must be an error");
  agrees "after a rejected update";
  Service.load_kb svc (parse "Wet(Sam)");
  agrees "after a KB swap";
  Alcotest.(check int) "every event counted" 8
    (Service.stats svc).Service.session.Service.log_entries

(* An explained hit on a trace-less entry that survived an update by
   revalidation is re-derived once (hit-retraced); the re-derivation
   must keep the entry's provenance, in the reply and in the upgraded
   entry. *)
let test_session_retrace_keeps_provenance () =
  let svc = Service.create () in
  (match Service.load_kb_file svc "../examples/kb/hepatitis.kb" with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "load hepatitis.kb: %s" msg);
  let q = parse "Hep(Eric)" in
  ignore (ask svc q);
  ignore (upd svc Service.Assert "Wet(Sam)");
  let facts trace =
    List.filter_map
      (function
        | Trace.Fact { tag; fields } -> Some (tag, fields) | _ -> None)
      trace
  in
  let check_reply label (r : Service.explained) outcome =
    let fs = facts r.Service.trace in
    Alcotest.(check bool)
      (label ^ ": cache outcome " ^ outcome)
      true
      (List.exists
         (fun (tag, fields) ->
           tag = "cache"
           && List.assoc_opt "outcome" fields = Some (Trace.S outcome))
         fs);
    Alcotest.(check int)
      (label ^ ": one revalidated fact")
      1
      (List.length (List.filter (fun (tag, _) -> tag = "revalidated") fs))
  in
  let explained () =
    match Service.query_explained svc q with
    | Ok r -> r
    | Error msg -> Alcotest.failf "explained query failed: %s" msg
  in
  check_reply "retraced reply" (explained ()) "hit-retraced";
  (* The upgraded entry now has a trace: the next explained hit replays
     it, provenance included and not duplicated. *)
  check_reply "upgraded entry" (explained ()) "hit"

let test_session_artifact_carried () =
  let svc = hep_service () in
  let q = parse "Hep(Eric)" in
  ignore (ask svc q);
  (* Evidence about an existing predicate leaves the solve problem
     untouched: the compiled artifact's memo tables must carry over. *)
  let o = upd svc Service.Assert "Jaun(Dana)" in
  Alcotest.(check string) "evidence-only delta carries the artifact"
    "carried" o.Service.artifact;
  let st = Service.stats svc in
  Alcotest.(check int) "carry counted" 1
    st.Service.session.Service.artifact_carries;
  (* A new predicate changes the atom universe: must recompile. *)
  let o2 = upd svc Service.Assert "Wet(Sam)" in
  Alcotest.(check string) "universe change recompiles" "recompiled"
    o2.Service.artifact

(* A cache entry's revalidation history is a fixed-size summary: after
   k updates it survived, an explained hit shows exactly one
   [revalidated] fact, counting k — not one fact per update. *)
let test_session_provenance_bounded () =
  let svc = Service.create () in
  (match Service.load_kb_file svc "../examples/kb/hepatitis.kb" with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "load hepatitis.kb: %s" msg);
  let q = parse "Hep(Eric)" in
  let explained () =
    match Service.query_explained svc q with
    | Ok r -> r
    | Error msg -> Alcotest.failf "explained query failed: %s" msg
  in
  let kb0 = (List.hd (Service.session_log svc)).Service.digest_after in
  ignore (explained ());
  for i = 1 to 50 do
    let action = if i mod 2 = 1 then Service.Assert else Service.Retract in
    let ev = upd svc action "Cough(Zed)" in
    Alcotest.(check int) "the entry survives every update" 1
      ev.Service.revalidated
  done;
  let r = explained () in
  Alcotest.check origin "served from the LRU" Service.Cached r.Service.origin;
  let revalidated =
    List.filter_map
      (function
        | Trace.Fact { tag = "revalidated"; fields } -> Some fields | _ -> None)
      r.Service.trace
  in
  match revalidated with
  | [ fields ] ->
    let field k = List.assoc_opt k fields in
    let short = String.sub kb0 0 12 in
    Alcotest.(check bool) "count 50" true (field "count" = Some (Trace.I 50));
    Alcotest.(check bool) "first update is seq 2" true
      (field "first_seq" = Some (Trace.I 2));
    Alcotest.(check bool) "last update is seq 51" true
      (field "last_seq" = Some (Trace.I 51));
    (* An even number of alternating updates ends on the original KB. *)
    Alcotest.(check bool) "kb_from is the original digest" true
      (field "kb_from" = Some (Trace.S short));
    Alcotest.(check bool) "kb_to is the digest after the last update" true
      (field "kb_to" = Some (Trace.S short))
  | fs ->
    Alcotest.failf "expected one revalidated fact, got %d" (List.length fs)

(* ------------------------------------------------------------------ *)
(* Protocol / server                                                  *)
(* ------------------------------------------------------------------ *)

let reply_of svc line =
  match Server.handle_line svc line with
  | `Reply j -> j
  | `Quit j -> j

let get_bool k j =
  match Option.bind (Json.member k j) Json.to_bool with
  | Some b -> b
  | None -> Alcotest.failf "no boolean %S in %s" k (Json.to_string j)

let test_server_session () =
  let svc = Service.create () in
  (* Querying before a KB is loaded is a clean error, not a crash. *)
  let r = reply_of svc {|{"op":"query","query":"Hep(Eric)"}|} in
  Alcotest.(check bool) "query without KB fails" false (get_bool "ok" r);
  let r =
    reply_of svc
      {|{"id":1,"op":"load_kb","kb":"Jaun(Eric) /\\ ||Hep(x) | Jaun(x)||_x ~=_1 0.8"}|}
  in
  Alcotest.(check bool) "load_kb ok" true (get_bool "ok" r);
  Alcotest.check json "id echoed" (Json.Int 1)
    (Option.value ~default:Json.Null (Json.member "id" r));
  let r = reply_of svc {|{"id":2,"op":"query","query":"Hep(Eric)"}|} in
  Alcotest.(check bool) "query ok" true (get_bool "ok" r);
  let answer = Option.value ~default:Json.Null (Json.member "answer" r) in
  let kind =
    Option.bind (Json.member "result" answer) (Json.member "kind")
  in
  Alcotest.check json "point result" (Json.String "point")
    (Option.value ~default:Json.Null kind);
  Alcotest.(check bool) "first ask not cached" false (get_bool "cached" answer);
  let r = reply_of svc {|{"op":"query","query":"~~Hep(Eric)"}|} in
  let answer = Option.value ~default:Json.Null (Json.member "answer" r) in
  Alcotest.(check bool) "variant served from cache" true
    (get_bool "cached" answer);
  let r = reply_of svc {|{"op":"batch","queries":["Hep(Eric)","~Hep(Eric)"]}|} in
  Alcotest.(check bool) "batch ok" true (get_bool "ok" r);
  Alcotest.check json "batch count" (Json.Int 2)
    (Option.value ~default:Json.Null (Json.member "count" r));
  let r = reply_of svc {|{"op":"stats"}|} in
  Alcotest.(check bool) "stats ok" true (get_bool "ok" r);
  let stats = Option.value ~default:Json.Null (Json.member "stats" r) in
  (match Option.bind (Json.member "cache" stats) (Json.member "hits") with
  | Some (Json.Int h) when h >= 2 -> ()
  | other ->
    Alcotest.failf "stats cache.hits missing or too small: %s"
      (match other with Some j -> Json.to_string j | None -> "absent"))

let test_server_session_ops () =
  let svc = Service.create () in
  let r = reply_of svc {|{"op":"session_update","action":"assert","src":"A(c)"}|} in
  Alcotest.(check bool) "update without KB fails" false (get_bool "ok" r);
  let r =
    reply_of svc
      {|{"op":"load_kb","kb":"Jaun(Eric) /\\ ||Hep(x) | Jaun(x)||_x ~=_1 0.8"}|}
  in
  Alcotest.(check bool) "load_kb ok" true (get_bool "ok" r);
  let r = reply_of svc {|{"op":"query","query":"Hep(Eric)"}|} in
  Alcotest.(check bool) "query ok" true (get_bool "ok" r);
  let r =
    reply_of svc
      {|{"id":7,"op":"session_update","action":"assert","src":"Wet(Sam)"}|}
  in
  Alcotest.(check bool) "session_update ok" true (get_bool "ok" r);
  Alcotest.check json "id echoed" (Json.Int 7)
    (Option.value ~default:Json.Null (Json.member "id" r));
  Alcotest.check json "disjoint update revalidates over the wire"
    (Json.Int 1)
    (Option.value ~default:Json.Null (Json.member "revalidated" r));
  let r = reply_of svc {|{"op":"query","query":"Hep(Eric)"}|} in
  let answer = Option.value ~default:Json.Null (Json.member "answer" r) in
  Alcotest.(check bool) "answer survived the update in cache" true
    (get_bool "cached" answer);
  let r = reply_of svc {|{"op":"session_log"}|} in
  Alcotest.(check bool) "session_log ok" true (get_bool "ok" r);
  Alcotest.check json "log counts load + update" (Json.Int 2)
    (Option.value ~default:Json.Null (Json.member "count" r));
  let r =
    reply_of svc {|{"op":"session_update","action":"frob","src":"A(c)"}|}
  in
  Alcotest.(check bool) "unknown action rejected" false (get_bool "ok" r);
  let r = reply_of svc {|{"op":"session_update","action":"assert"}|} in
  Alcotest.(check bool) "missing src rejected" false (get_bool "ok" r);
  let r = reply_of svc {|{"op":"stats"}|} in
  let stats = Option.value ~default:Json.Null (Json.member "stats" r) in
  let session = Option.value ~default:Json.Null (Json.member "session" stats) in
  Alcotest.check json "session stats on the wire" (Json.Int 1)
    (Option.value ~default:Json.Null (Json.member "updates" session))

let test_server_errors_and_shutdown () =
  let svc = Service.create () in
  let r = reply_of svc "this is not json" in
  Alcotest.(check bool) "malformed line is ok:false" false (get_bool "ok" r);
  let r = reply_of svc {|{"op":"frobnicate"}|} in
  Alcotest.(check bool) "unknown op is ok:false" false (get_bool "ok" r);
  let r = reply_of svc {|{"op":"query"}|} in
  Alcotest.(check bool) "query without text is ok:false" false
    (get_bool "ok" r);
  (match Server.handle_line svc {|{"id":9,"op":"shutdown"}|} with
  | `Quit j ->
    Alcotest.(check bool) "shutdown ok" true (get_bool "ok" j);
    Alcotest.check json "shutdown id echoed" (Json.Int 9)
      (Option.value ~default:Json.Null (Json.member "id" j))
  | `Reply j ->
    Alcotest.failf "shutdown did not quit: %s" (Json.to_string j))

(* The raw API under concurrent updates. Two domains query a fixed set
   while a third asserts and retracts an overlapping statement 200
   times. Each query answers for the one snapshot it read, so every
   answer must be one of the two states' sequential answers. Afterwards
   each state, queried again from its cache, must give exactly its own
   answers: no answer was filed under the other state's digest. *)
let test_concurrent_updates_answer_one_state () =
  let qs =
    List.map parse
      [ "Hep(Eric)"; "~Hep(Eric)"; "Hep(Dana)"; "Jaun(Dana)";
        "Hep(Dana) /\\ Jaun(Dana)" ]
  in
  let delta = "Jaun(Dana)" in
  let answers svc = List.map (fun q -> fst (ask svc q)) qs in
  let ref_a = answers (hep_service ()) in
  let ref_b =
    let svc = hep_service () in
    ignore (upd svc Service.Assert delta);
    answers svc
  in
  Alcotest.(check bool) "the delta moves some answer" true (ref_a <> ref_b);
  let svc = hep_service () in
  let stop = Atomic.make false in
  let querier () =
    let strays = ref [] and rounds = ref 0 in
    while not (Atomic.get stop) do
      List.iteri
        (fun i q ->
          match Service.query svc q with
          | Ok (a, _) when a = List.nth ref_a i || a = List.nth ref_b i -> ()
          | Ok (a, _) ->
            strays :=
              Fmt.str "%s: %a" (Pretty.to_string q) Answer.pp_result
                a.Answer.result
              :: !strays
          | Error msg -> strays := msg :: !strays)
        qs;
      incr rounds
    done;
    (!rounds, !strays)
  in
  let queriers = List.init 2 (fun _ -> Domain.spawn querier) in
  let updater =
    Domain.spawn (fun () ->
        List.init 200 (fun i ->
            let action = if i mod 2 = 0 then Service.Assert else Service.Retract in
            match Service.update svc action (parse delta) with
            | Ok ev -> ev.Service.changed
            | Error _ -> false))
  in
  let changed = Domain.join updater in
  Atomic.set stop true;
  List.iter
    (fun d ->
      let rounds, strays = Domain.join d in
      Alcotest.(check bool) "querier ran" true (rounds > 0);
      Alcotest.(check (list string)) "every answer is one state's" [] strays)
    queriers;
  Alcotest.(check int) "all 200 updates changed the KB" 200
    (List.length (List.filter Fun.id changed));
  Alcotest.(check bool) "state A again: its own answers" true (answers svc = ref_a);
  ignore (upd svc Service.Assert delta);
  Alcotest.(check bool) "state B again: its own answers" true (answers svc = ref_b)

let suite =
  [
    ("canonical: alpha renaming", `Quick, test_canon_alpha);
    ("canonical: AC normalization", `Quick, test_canon_ac);
    ("canonical: boolean identities", `Quick, test_canon_boolean);
    ("canonical: symmetric operands", `Quick, test_canon_symmetric);
    ("canonical: inequivalent formulas stay distinct", `Quick,
     test_canon_distinct);
    ("canonical: zoo-wide properties", `Quick, test_canon_zoo_properties);
    ("json: roundtrip", `Quick, test_json_roundtrip);
    ("json: parsing", `Quick, test_json_parse);
    ("json: non-finite floats", `Quick, test_json_nonfinite);
    ("lru: basic hit/miss/update", `Quick, test_lru_basic);
    ("lru: eviction order", `Quick, test_lru_eviction);
    ("lru: disabled and invalid capacities", `Quick, test_lru_disabled);
    ("service: hit after miss is identical", `Quick, test_cache_hit_after_miss);
    ("service: counters match request sequence", `Quick,
     test_cache_counters_sequence);
    ("service: eviction at capacity", `Quick, test_cache_eviction_end_to_end);
    ("service: zoo sweep cached == uncached", `Slow,
     test_zoo_service_matches_direct);
    ("service: zero budget degrades to rules engine", `Quick,
     test_budget_zero_degrades);
    ("service: budget expires inside the maxent solve, on any domain", `Quick,
     test_budget_expires_in_maxent);
    ("session: KB swap reclaims the old digest's entries", `Quick,
     test_session_swap_reclaims);
    ("session: disjoint update revalidates, answer bit-identical", `Quick,
     test_session_disjoint_update_revalidates);
    ("session: overlapping update evicts", `Quick,
     test_session_overlapping_update_evicts);
    ("session: retract round-trips, no-ops change nothing", `Quick,
     test_session_retract_and_noops);
    ("session: log, stats and error atomicity", `Quick,
     test_session_log_and_errors);
    ("session: log_entries counter tracks the session log", `Quick,
     test_session_log_counter);
    ("session: retrace of a revalidated entry keeps its provenance", `Quick,
     test_session_retrace_keeps_provenance);
    ("session: evidence-only delta carries the compiled artifact", `Quick,
     test_session_artifact_carried);
    ("server: NDJSON session", `Quick, test_server_session);
    ("server: session_update / session_log ops", `Quick,
     test_server_session_ops);
    ("server: errors and shutdown", `Quick, test_server_errors_and_shutdown);
    ("service: a budget shorter than the compile still warms the artifact",
     `Quick, test_short_budget_still_compiles);
    ("session: 50 revalidations leave one summary fact", `Quick,
     test_session_provenance_bounded);
    ("session: queries racing 200 updates each answer for one state", `Quick,
     test_concurrent_updates_answer_one_state);
  ]
