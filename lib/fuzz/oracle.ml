open Rw_logic
open Randworlds
module Prng = Rw_mc.Prng

type violation = { oracle : string; detail : string }

let pp_violation ppf v = Fmt.pf ppf "[%s] %s" v.oracle v.detail

let names =
  [
    "agreement"; "duality"; "canonical"; "cache"; "convergence"; "parser";
    "explain"; "compiled"; "update";
  ]

(* Throughput-tuned engine options: hundreds of cases per run means
   each engine call gets a small, fixed budget. Cross-checking between
   engines is the fuzzer's own job, so the dispatcher's built-in
   enum/mc cross-check is off. *)
let fuzz_options =
  {
    Engine.default_options with
    Engine.tols =
      (* Shorter tolerance schedule than the interactive default (6
         halvings): every engine walks this list, so it is the single
         biggest throughput lever. *)
      Some (Tolerance.schedule ~factor:0.5 ~steps:3 (Tolerance.uniform 0.05));
    unary_sizes = Some [ 4; 8; 16 ];
    enum_sizes = Some [ 2; 3 ];
    mc_samples = Some 2_000;
    mc_ci_width = Some 0.1;
    mc_sizes = Some [ 8; 16 ];
    mc_cross_check = false;
  }

(* Engine tolerances for cross-checking: the Monte-Carlo engine is
   statistical (its 95% CI misses 1 run in 20 by construction), so
   pairs involving it get generous slack; the sharp 0.05 band is for
   asymptotic-vs-asymptotic pairs. Enumeration under fuzz options only
   reaches N ≤ 3, where forced constant coincidences and tolerance
   granularity distort Pr_N beyond any fixed band (e.g. two named
   constants coincide with probability 1/2 at N = 2), so its
   extrapolated answers are excluded from limit comparisons entirely —
   its meaningful cross-check is exactness against the unary counter
   at equal (N, τ̄), done separately below. *)
let pair_tol a b =
  if a = Engine.Mc || b = Engine.Mc then 0.15 else 0.05

let comparable_limit eid = eid <> Engine.Enum

let violationf oracle fmt = Fmt.kstr (fun detail -> { oracle; detail }) fmt

(* An engine exception is itself a finding: [Engine.run] is documented
   total. *)
let safe_run ~options eid ~kb q =
  match Engine.run ~options eid ~kb q with
  | a -> Ok a
  | exception e -> Error (Printexc.to_string e)

let value_result (a : Answer.t) =
  match a.Answer.result with
  | Answer.Point _ | Answer.Within _ -> Some a.Answer.result
  | _ -> None

let consistent ~tol ra rb =
  match (ra, rb) with
  | Answer.Point x, Answer.Point y -> Float.abs (x -. y) <= tol
  | Answer.Point x, Answer.Within i | Answer.Within i, Answer.Point x ->
    Rw_prelude.Interval.mem ~eps:tol x i
  | Answer.Within i, Answer.Within j ->
    Option.is_some
      (Rw_prelude.Interval.inter
         (Rw_prelude.Interval.widen i tol)
         (Rw_prelude.Interval.widen j tol))
  | _ -> true

let results_equal ~eps ra rb =
  match (ra, rb) with
  | Answer.Point x, Answer.Point y -> Float.abs (x -. y) <= eps
  | Answer.Within i, Answer.Within j -> Rw_prelude.Interval.equal ~eps i j
  | Answer.No_limit _, Answer.No_limit _
  | Answer.Inconsistent, Answer.Inconsistent
  | Answer.Not_applicable _, Answer.Not_applicable _ -> true
  | _ -> false

let pp_result = Answer.pp_result

(* ------------------------------------------------------------------ *)
(* agreement                                                          *)
(* ------------------------------------------------------------------ *)

let agreement ~options (c : Gen.case) =
  let kb = Gen.kb_formula c and query = c.Gen.query in
  let vs = ref [] in
  let add v = vs := v :: !vs in
  let answers =
    List.filter_map
      (fun eid ->
        if not (Engine.applicable ~options eid ~kb query) then None
        else begin
          match safe_run ~options eid ~kb query with
          | Ok a -> Some (eid, a)
          | Error msg ->
            add
              (violationf "agreement" "engine %s raised %s"
                 (Engine.id_name eid) msg);
            None
        end)
      Engine.all_ids
  in
  let rec pairs = function
    | [] -> ()
    | (ea, a) :: rest ->
      List.iter
        (fun (eb, b) ->
          if not (comparable_limit ea && comparable_limit eb) then ()
          else
          match (value_result a, value_result b) with
          | Some ra, Some rb ->
            let tol = pair_tol ea eb in
            if not (consistent ~tol ra rb) then
              add
                (violationf "agreement" "%s says %a but %s says %a (tol %.2f)"
                   (Engine.id_name ea) pp_result ra (Engine.id_name eb)
                   pp_result rb tol)
          | _ -> ())
        rest;
      pairs rest
  in
  pairs answers;
  (* The two exact finite-N engines must agree to float precision at
     equal (N, τ̄) — same mathematical object, independent counters. *)
  if Engine.applicable ~options Engine.Unary ~kb query then begin
    let vocab = Vocab.of_formulas [ kb; query ] in
    let tol = Tolerance.uniform 0.2 in
    List.iter
      (fun n ->
        if Rw_model.Enum.log10_world_count vocab n <= 5.0 then begin
          let u =
            try Unary_engine.pr_n ~kb ~query ~n ~tol
            with Rw_unary.Profile.Unsupported _ -> None
          in
          let e =
            try Enum_engine.pr_n ~vocab ~n ~tol ~kb query
            with Rw_model.Enum.Too_many_worlds _ -> None
          in
          match (u, e) with
          | Some pu, Some pe when Float.abs (pu -. pe) > 1e-6 ->
            add
              (violationf "agreement"
                 "exact engines differ at N=%d: unary %.9f vs enum %.9f" n pu
                 pe)
          | _ -> ()
        end)
      [ 2; 3 ]
  end;
  List.rev !vs

(* ------------------------------------------------------------------ *)
(* duality                                                            *)
(* ------------------------------------------------------------------ *)

let duality ~options (c : Gen.case) =
  let kb = Gen.kb_formula c and query = c.Gen.query in
  let neg = Syntax.Not query in
  List.concat_map
    (fun eid ->
      if not (Engine.applicable ~options eid ~kb query) then []
      else begin
        match
          (safe_run ~options eid ~kb query, safe_run ~options eid ~kb neg)
        with
        | Ok a, Ok b -> begin
          match (Answer.point_value a, Answer.point_value b) with
          | Some x, Some y ->
            (* Two Monte-Carlo points each carry ~ci_width of noise, so
               their sum carries twice that. *)
            let tol = if eid = Engine.Mc then 0.25 else 0.02 in
            if Float.abs (x +. y -. 1.0) > tol then
              [
                violationf "duality"
                  "%s: Pr(φ)=%.6f and Pr(¬φ)=%.6f sum to %.6f ≠ 1"
                  (Engine.id_name eid) x y (x +. y);
              ]
            else []
          | _ -> []
        end
        | Error msg, _ | _, Error msg ->
          [
            violationf "duality" "engine %s raised %s" (Engine.id_name eid)
              msg;
          ]
      end)
    Engine.all_ids

(* ------------------------------------------------------------------ *)
(* canonical                                                          *)
(* ------------------------------------------------------------------ *)

(* Alpha-rename every bound variable (quantifiers and proportion
   subscripts) to a primed fresh name. Semantically the identity. *)
let rec alpha f =
  match f with
  | Syntax.True | Syntax.False | Syntax.Pred _ | Syntax.Eq _ -> f
  | Syntax.Not g -> Syntax.Not (alpha g)
  | Syntax.And (g, h) -> Syntax.And (alpha g, alpha h)
  | Syntax.Or (g, h) -> Syntax.Or (alpha g, alpha h)
  | Syntax.Implies (g, h) -> Syntax.Implies (alpha g, alpha h)
  | Syntax.Iff (g, h) -> Syntax.Iff (alpha g, alpha h)
  | Syntax.Forall (x, g) ->
    let g = alpha g in
    let x' = Syntax.fresh_var (Syntax.all_vars_formula g) (x ^ "'") in
    Syntax.Forall (x', Syntax.subst [ (x, Syntax.var x') ] g)
  | Syntax.Exists (x, g) ->
    let g = alpha g in
    let x' = Syntax.fresh_var (Syntax.all_vars_formula g) (x ^ "'") in
    Syntax.Exists (x', Syntax.subst [ (x, Syntax.var x') ] g)
  | Syntax.Compare (p, cmp, q) -> Syntax.Compare (alpha_prop p, cmp, alpha_prop q)

and alpha_subscript phi xs =
  let avoid = ref (Syntax.all_vars_formula phi) in
  let xs' =
    List.map
      (fun x ->
        let x' = Syntax.fresh_var !avoid (x ^ "'") in
        avoid := Syntax.Sset.add x' !avoid;
        x')
      xs
  in
  let sub = List.map2 (fun x x' -> (x, Syntax.var x')) xs xs' in
  (sub, xs')

and alpha_prop p =
  match p with
  | Syntax.Num _ -> p
  | Syntax.Add (a, b) -> Syntax.Add (alpha_prop a, alpha_prop b)
  | Syntax.Mul (a, b) -> Syntax.Mul (alpha_prop a, alpha_prop b)
  | Syntax.Prop (phi, xs) ->
    let phi = alpha phi in
    let sub, xs' = alpha_subscript phi xs in
    Syntax.Prop (Syntax.subst sub phi, xs')
  | Syntax.Cond (phi, theta, xs) ->
    let phi = alpha phi and theta = alpha theta in
    let sub, xs' = alpha_subscript (Syntax.And (phi, theta)) xs in
    Syntax.Cond (Syntax.subst sub phi, Syntax.subst sub theta, xs')

(* Reshuffle every AC/symmetric construct: swap ∧/∨/⟺/≈/=/+/· operands
   recursively. Also semantically the identity. *)
let rec shuffle f =
  match f with
  | Syntax.True | Syntax.False | Syntax.Pred _ -> f
  | Syntax.Eq (s, t) -> Syntax.Eq (t, s)
  | Syntax.Not g -> Syntax.Not (shuffle g)
  | Syntax.And (g, h) -> Syntax.And (shuffle h, shuffle g)
  | Syntax.Or (g, h) -> Syntax.Or (shuffle h, shuffle g)
  | Syntax.Implies (g, h) -> Syntax.Implies (shuffle g, shuffle h)
  | Syntax.Iff (g, h) -> Syntax.Iff (shuffle h, shuffle g)
  | Syntax.Forall (x, g) -> Syntax.Forall (x, shuffle g)
  | Syntax.Exists (x, g) -> Syntax.Exists (x, shuffle g)
  | Syntax.Compare (p, Syntax.Approx_eq i, q) ->
    Syntax.Compare (shuffle_prop q, Syntax.Approx_eq i, shuffle_prop p)
  | Syntax.Compare (p, cmp, q) ->
    Syntax.Compare (shuffle_prop p, cmp, shuffle_prop q)

and shuffle_prop = function
  | Syntax.Num v -> Syntax.Num v
  | Syntax.Add (a, b) -> Syntax.Add (shuffle_prop b, shuffle_prop a)
  | Syntax.Mul (a, b) -> Syntax.Mul (shuffle_prop b, shuffle_prop a)
  | Syntax.Prop (phi, xs) -> Syntax.Prop (shuffle phi, xs)
  | Syntax.Cond (phi, theta, xs) ->
    Syntax.Cond (shuffle phi, shuffle theta, xs)

let canonical ~options (c : Gen.case) =
  let kb = Gen.kb_formula c and query = c.Gen.query in
  let variants =
    [
      ("alpha-renamed", Syntax.conj (List.map alpha c.Gen.kb), alpha query);
      ( "AC-reshuffled",
        Syntax.conj (List.rev_map shuffle c.Gen.kb),
        shuffle query );
    ]
  in
  let base = Engine.infer ~options ~kb query in
  List.concat_map
    (fun (vn, kb', query') ->
      let vs = ref [] in
      if Canonical.digest kb' <> Canonical.digest kb then
        vs :=
          violationf "canonical" "%s KB digest differs: %s vs %s" vn
            (Canonical.to_string kb') (Canonical.to_string kb)
          :: !vs;
      if Canonical.digest query' <> Canonical.digest query then
        vs :=
          violationf "canonical" "%s query digest differs: %s vs %s" vn
            (Canonical.to_string query') (Canonical.to_string query)
          :: !vs;
      (* Digests must match exactly; answers get a small band because
         AC-reshuffling reorders the maxent optimizer's variables and
         its iterative solve is order-sensitive at the ~1e-5 level. *)
      (match Engine.infer ~options ~kb:kb' query' with
      | a ->
        if not (results_equal ~eps:1e-4 base.Answer.result a.Answer.result)
        then
          vs :=
            violationf "canonical" "%s variant answers %a, original %a" vn
              pp_result a.Answer.result pp_result base.Answer.result
            :: !vs
      | exception e ->
        vs :=
          violationf "canonical" "%s variant raised %s" vn
            (Printexc.to_string e)
          :: !vs);
      List.rev !vs)
    variants

(* ------------------------------------------------------------------ *)
(* cache                                                              *)
(* ------------------------------------------------------------------ *)

let cache ~options (c : Gen.case) =
  let kb = Gen.kb_formula c and query = c.Gen.query in
  match
    let config =
      { Rw_service.Service.default_config with engine_options = options }
    in
    let svc = Rw_service.Service.create ~config () in
    Rw_service.Service.load_kb svc kb;
    let q1 = Rw_service.Service.query svc query in
    let q2 = Rw_service.Service.query svc query in
    (q1, q2)
  with
  | Ok (a1, o1), Ok (a2, o2) ->
    let vs = ref [] in
    (match (o1, o2) with
    | Rw_service.Service.Computed, Rw_service.Service.Cached -> ()
    | _ ->
      vs :=
        violationf "cache" "origins were not Computed-then-Cached" :: !vs);
    if not (results_equal ~eps:0.0 a1.Answer.result a2.Answer.result) then
      vs :=
        violationf "cache" "hit changed the verdict: %a vs %a" pp_result
          a1.Answer.result pp_result a2.Answer.result
        :: !vs;
    let direct = Engine.degree_of_belief ~options ~kb query in
    if not (results_equal ~eps:1e-9 a1.Answer.result direct.Answer.result)
    then
      vs :=
        violationf "cache" "service answer %a differs from direct dispatch %a"
          pp_result a1.Answer.result pp_result direct.Answer.result
        :: !vs;
    List.rev !vs
  | Error msg, _ | _, Error msg ->
    [ violationf "cache" "service query failed: %s" msg ]
  | exception e ->
    [ violationf "cache" "service raised %s" (Printexc.to_string e) ]

(* ------------------------------------------------------------------ *)
(* convergence                                                        *)
(* ------------------------------------------------------------------ *)

(* Pr_N^τ̄ converges as N → ∞ (that is the paper's inner limit), so the
   exact sequence must settle: late steps no larger than early ones
   plus slack for non-monotone approach. *)
let convergence ~options (c : Gen.case) =
  let kb = Gen.kb_formula c and query = c.Gen.query in
  if not (Engine.applicable ~options Engine.Unary ~kb query) then []
  else begin
    let tol = Tolerance.uniform 0.1 in
    match
      (* The profile space at N=32 grows like C(N + 2^p − 1, 2^p − 1)
         in the predicate count p — three predicates already cost
         millions of profiles. Skip infeasible cases rather than hang
         the run. *)
      let parts =
        Rw_unary.Analysis.analyze
          ~extra_preds:(Syntax.unary_preds query) kb
      in
      if Rw_unary.Profile.cost_estimate parts ~n:32 > 2e5 then None
      else Some (Unary_engine.series ~kb ~query ~ns:[ 4; 8; 16; 32 ] ~tol)
    with
    | None -> []
    | Some [ (_, _s4); (_, s8); (_, s16); (_, s32) ] ->
      (* Compare the last step against the middle one, not the first:
         when τ̄ is finer than 1/N the smallest sizes are degenerate
         (only vacuous-denominator worlds satisfy the KB), so the
         series can legitimately sit still early and only start
         moving once N resolves the tolerance. The slack must sit
         above the O(1/N) granularity transient this grid can still
         carry at N = 32 (1/8 − 1/32 ≈ 0.09): the oracle is after
         divergence and oscillation, not finite-size drift. *)
      let mid = Float.abs (s16 -. s8) and late = Float.abs (s32 -. s16) in
      if late > mid +. 0.1 then
        [
          violationf "convergence"
            "Pr_N not settling: |s32−s16|=%.4f > |s16−s8|=%.4f (+0.1)" late
            mid;
        ]
      else []
    | Some _ -> [] (* some N had no KB-worlds: nothing to check *)
    | exception Rw_unary.Profile.Unsupported _ -> []
    | exception e ->
      [ violationf "convergence" "series raised %s" (Printexc.to_string e) ]
  end

(* ------------------------------------------------------------------ *)
(* parser                                                             *)
(* ------------------------------------------------------------------ *)

let mutation_alphabet = "()|~_=<>,. 0123456789xyzPQRSCDE/\\*+'{}"

let mutate rng s =
  let n = String.length s in
  if n = 0 then "~"
  else begin
    match Prng.int rng 4 with
    | 0 ->
      (* delete one char *)
      let i = Prng.int rng n in
      String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
    | 1 ->
      (* insert one char *)
      let i = Prng.int rng (n + 1) in
      let ch =
        mutation_alphabet.[Prng.int rng (String.length mutation_alphabet)]
      in
      String.sub s 0 i ^ String.make 1 ch ^ String.sub s i (n - i)
    | 2 ->
      (* duplicate a slice *)
      let i = Prng.int rng n in
      let len = min (n - i) (1 + Prng.int rng 8) in
      String.sub s 0 (i + len) ^ String.sub s i (n - i)
    | _ ->
      (* blow up a digit: numeric-overflow probes *)
      let digits = ref [] in
      String.iteri (fun i ch -> if ch >= '0' && ch <= '9' then digits := i :: !digits) s;
      (match !digits with
      | [] -> s ^ "_99999999999999999999"
      | ds ->
        let i = List.nth ds (Prng.int rng (List.length ds)) in
        String.sub s 0 i ^ "99999999999999999999"
        ^ String.sub s (i + 1) (n - i - 1))
  end

let parser_totality_of_string ~what s =
  let vs = ref [] in
  (match Parser.formula s with
  | Ok _ | Error _ -> ()
  | exception e ->
    vs :=
      violationf "parser" "Parser.formula raised %s on %s %S"
        (Printexc.to_string e) what s
      :: !vs);
  (match Parser.formula_exn s with
  | _ -> ()
  | exception Parser.Parse_failure _ -> ()
  | exception e ->
    vs :=
      violationf "parser" "Parser.formula_exn raised %s (not Parse_failure) on %s %S"
        (Printexc.to_string e) what s
      :: !vs);
  List.rev !vs

let parser (c : Gen.case) =
  let rng = Prng.create c.Gen.seed in
  let sentences = c.Gen.query :: c.Gen.kb in
  List.concat_map
    (fun f ->
      let s = Pretty.to_string f in
      (* Round trip: printed form reparses into the same equivalence
         class. *)
      let round =
        match Parser.formula s with
        | Ok f' when Canonical.equivalent f f' -> []
        | Ok f' ->
          [
            violationf "parser" "round-trip changed meaning: %S reparsed as %S"
              s (Pretty.to_string f');
          ]
        | Error msg ->
          [ violationf "parser" "pretty output does not reparse: %S (%s)" s msg ]
        | exception e ->
          [
            violationf "parser" "Parser.formula raised %s on pretty output %S"
              (Printexc.to_string e) s;
          ]
      in
      (* Totality under mutation: mangled input must come back as
         [Ok]/[Error]/[Parse_failure], never any other exception. *)
      let mutated =
        List.concat_map
          (fun _ -> parser_totality_of_string ~what:"mutated input" (mutate rng s))
          (List.init 8 Fun.id)
      in
      round @ mutated)
    sentences

(* ------------------------------------------------------------------ *)
(* explain                                                            *)
(* ------------------------------------------------------------------ *)

(* The trace must be a faithful, serialisable account of the dispatch:
   tracing must not change the verdict, the trace's engine-selected
   fact must name the engine that signed the answer, and the JSON
   encoding (--explain-json / the serve protocol's "trace") must
   survive a round trip with that consistency intact. *)
let explain ~options (c : Gen.case) =
  let kb = Gen.kb_formula c and query = c.Gen.query in
  match
    let tr = Rw_trace.Trace.create () in
    let a = Engine.infer ~options ~trace:tr ~kb query in
    (a, Rw_trace.Trace.events tr)
  with
  | exception e ->
    [ violationf "explain" "traced dispatch raised %s" (Printexc.to_string e) ]
  | a, events ->
    let vs = ref [] in
    let add v = vs := v :: !vs in
    (match Engine.infer ~options ~kb query with
    | plain ->
      if not (results_equal ~eps:0.0 plain.Answer.result a.Answer.result) then
        add
          (violationf "explain" "tracing changed the verdict: %a vs %a"
             pp_result a.Answer.result pp_result plain.Answer.result)
    | exception e ->
      add
        (violationf "explain" "untraced dispatch raised %s"
           (Printexc.to_string e)));
    (match Rw_trace.Trace.selected_engine events with
    | None ->
      add
        (violationf "explain" "no engine-selected fact (answer engine %s)"
           a.Answer.engine)
    | Some e when e <> a.Answer.engine ->
      add
        (violationf "explain" "trace selects %s but the answer is from %s" e
           a.Answer.engine)
    | Some _ -> ());
    let line =
      Rw_service.Json.to_string (Rw_service.Protocol.json_of_trace events)
    in
    (match Rw_service.Json.of_string line with
    | Error msg ->
      add (violationf "explain" "trace JSON does not reparse: %s" msg)
    | Ok json -> (
      match Rw_service.Protocol.trace_of_json json with
      | Error msg ->
        add (violationf "explain" "trace JSON does not decode: %s" msg)
      | Ok events' -> (
        match Rw_trace.Trace.selected_engine events' with
        | Some e when e = a.Answer.engine -> ()
        | Some e ->
          add
            (violationf "explain"
               "decoded trace selects %s, answer engine %s" e a.Answer.engine)
        | None ->
          add (violationf "explain" "decoding lost the engine-selected fact"))));
    List.rev !vs

(* ------------------------------------------------------------------ *)
(* compiled                                                           *)
(* ------------------------------------------------------------------ *)

(* Warm versus fresh: the compiled-KB artifact ({!Rw_compile.Compiled_kb})
   fills its memo cells on first use and a session shares it across
   queries, so an artifact that has already answered another question
   must answer this one exactly as a fresh artifact does — identical
   verdict and interval, bit-identical floats, not just close ones —
   and the same engine must sign the answer. The warm-up question is
   the negated query: same vocabulary, so it fills the very cells the
   query then reads (memoised solves re-raise cached failures, profile
   tables preserve accumulation order, the MC importance tilt is
   proposal-identical). Compile is also total: every KB compiles and
   its entropy profile (a solve at every default tolerance) returns,
   whatever its shape — deterministically, so the check draws nothing
   from the generator's streams. *)
let compiled ~options (c : Gen.case) =
  let module C = Rw_compile.Compiled_kb in
  let kb = Gen.kb_formula c and query = c.Gen.query in
  match
    ignore (C.entropy_profile (C.compile kb));
    let warm = C.compile kb in
    ignore (Engine.infer ~options ~compiled:warm ~kb (Syntax.Not query));
    let tr_w = Rw_trace.Trace.create () in
    let tr_f = Rw_trace.Trace.create () in
    let a = Engine.infer ~options ~compiled:warm ~trace:tr_w ~kb query in
    let b = Engine.infer ~options ~trace:tr_f ~kb query in
    (a, b, Rw_trace.Trace.events tr_w, Rw_trace.Trace.events tr_f)
  with
  | exception e ->
    [
      violationf "compiled" "compile or warm-artifact dispatch raised %s"
        (Printexc.to_string e);
    ]
  | a, b, ev_w, ev_f ->
    let vs = ref [] in
    let add v = vs := v :: !vs in
    if not (results_equal ~eps:0.0 a.Answer.result b.Answer.result) then
      add
        (violationf "compiled"
           "warm-artifact answer %a differs from fresh-artifact answer %a"
           pp_result a.Answer.result pp_result b.Answer.result);
    (match
       ( Rw_trace.Trace.selected_engine ev_w,
         Rw_trace.Trace.selected_engine ev_f )
     with
    | Some ec, Some ep when ec <> ep ->
      add
        (violationf "compiled"
           "warm artifact selects engine %s, fresh artifact selects %s" ec ep)
    | _ -> ());
    List.rev !vs

(* ------------------------------------------------------------------ *)
(* update                                                             *)
(* ------------------------------------------------------------------ *)

(* Belief-change sessions: after every assert/retract the service must
   answer exactly like a cold dispatch on the accumulated KB — whether
   the answer was revalidated, recomputed, or served from the cache is
   an implementation detail that may never show through. Updates are
   drawn to exercise every invalidation path: deltas over fresh
   vocabulary (revalidation candidates), deltas overlapping the
   generator's own pools (evictions), retracts of resident conjuncts,
   and canonical no-ops. *)

(* Mirrors of {!Gen}'s pools (not exported there) plus a disjoint set
   the generator never touches, so a "fresh vocabulary" delta really
   is disjoint from every generated case. *)
let upd_fresh_preds = [| "U"; "V"; "W" |]
let upd_fresh_consts = [| "F"; "G" |]
let upd_overlap_preds = [| "P"; "Q"; "R"; "S" |]
let upd_overlap_consts = [| "C"; "D"; "E" |]

let upd_pick rng arr = arr.(Prng.int rng (Array.length arr))

(* One update op: (action, formula). [resident] is the oracle's mirror
   of the KB's conjunct list, used only to choose retract targets and
   re-assert candidates — ground truth stays [Service.kb]. *)
let gen_update rng ~resident =
  let ground_fact preds consts =
    let a = Syntax.pred (upd_pick rng preds) [ Syntax.const (upd_pick rng consts) ] in
    if Prng.bool rng then a else Syntax.Not a
  in
  match Prng.int rng 6 with
  | 0 | 1 ->
    (* fresh-vocabulary evidence: the revalidation sweet spot *)
    (Rw_service.Service.Assert, ground_fact upd_fresh_preds upd_fresh_consts)
  | 2 ->
    (* fresh-vocabulary statistical: exercises artifact recompiles *)
    let p = Syntax.pred (upd_pick rng upd_fresh_preds) [ Syntax.var "x" ] in
    ( Rw_service.Service.Assert,
      Syntax.approx_eq ~i:1 (Syntax.Prop (p, [ "x" ])) (Syntax.Num 0.5) )
  | 3 ->
    (* overlapping evidence: must evict, not revalidate stale bits *)
    (Rw_service.Service.Assert, ground_fact upd_overlap_preds upd_overlap_consts)
  | 4 when resident <> [] ->
    (Rw_service.Service.Retract,
     List.nth resident (Prng.int rng (List.length resident)))
  | _ when resident <> [] ->
    (* re-assert something already present: the canonical no-op path *)
    (Rw_service.Service.Assert,
     List.nth resident (Prng.int rng (List.length resident)))
  | _ -> (Rw_service.Service.Assert, ground_fact upd_fresh_preds upd_fresh_consts)

let update ~options (c : Gen.case) =
  let module Svc = Rw_service.Service in
  match
    let config = { Svc.default_config with engine_options = options } in
    let svc = Svc.create ~config () in
    Svc.load_kb svc (Gen.kb_formula c);
    let rng = Prng.create (c.Gen.seed lxor 0x5e5510) in
    let vs = ref [] in
    let add v = vs := v :: !vs in
    (* The session answer must match a cold dispatch on the service's
       own accumulated KB — bit-identical result and same signing
       engine, whatever mix of cached / revalidated / recomputed
       served it. *)
    let check_query tag =
      match Svc.query svc c.Gen.query with
      | Error msg -> add (violationf "update" "%s: query failed: %s" tag msg)
      | Ok (a, _origin) ->
        let kb_now = Option.get (Svc.kb svc) in
        let direct = Engine.degree_of_belief ~options ~kb:kb_now c.Gen.query in
        if not (results_equal ~eps:0.0 a.Answer.result direct.Answer.result)
        then
          add
            (violationf "update"
               "%s: session answer %a differs from cold dispatch %a" tag
               pp_result a.Answer.result pp_result direct.Answer.result);
        if a.Answer.engine <> direct.Answer.engine then
          add
            (violationf "update" "%s: session engine %s, cold dispatch %s" tag
               a.Answer.engine direct.Answer.engine)
    in
    check_query "initial";
    let resident = ref c.Gen.kb in
    let nops = 2 + Prng.int rng 3 in
    for i = 1 to nops do
      let action, f = gen_update rng ~resident:!resident in
      (match Svc.update svc action f with
      | Error msg ->
        add
          (violationf "update" "op %d: update rejected a generated delta: %s"
             i msg)
      | Ok _ ->
        (* keep the retract-target mirror in sync, at the same
           conjunct granularity the service uses *)
        let ds = List.map Canonical.digest (Rw_unary.Analysis.split_conjuncts f) in
        (match action with
        | Svc.Assert ->
          let present =
            List.map Canonical.digest !resident |> fun have ->
            List.filter
              (fun g -> not (List.mem (Canonical.digest g) have))
              (Rw_unary.Analysis.split_conjuncts f)
          in
          resident := !resident @ present
        | Svc.Retract ->
          resident :=
            List.filter
              (fun g -> not (List.mem (Canonical.digest g) ds))
              !resident));
      check_query (Printf.sprintf "op %d" i)
    done;
    (* Bookkeeping: one log entry per mutation plus the initial load,
       and the stats counters must agree with what we just did. *)
    let log = Svc.session_log svc in
    if List.length log <> nops + 1 then
      add
        (violationf "update" "session log has %d entries, expected %d"
           (List.length log) (nops + 1));
    let st = (Svc.stats svc).Svc.session in
    if st.Svc.updates <> nops then
      add
        (violationf "update" "session stats count %d updates, expected %d"
           st.Svc.updates nops);
    List.rev !vs
  with
  | vs -> vs
  | exception e ->
    [ violationf "update" "session raised %s" (Printexc.to_string e) ]

(* ------------------------------------------------------------------ *)
(* Driver-facing entry point                                          *)
(* ------------------------------------------------------------------ *)

let check ?only ~options (c : Gen.case) =
  let enabled name =
    match only with None -> true | Some l -> List.mem name l
  in
  let run name f = if enabled name then f () else [] in
  run "agreement" (fun () -> agreement ~options c)
  @ run "duality" (fun () -> duality ~options c)
  @ run "canonical" (fun () -> canonical ~options c)
  @ run "cache" (fun () -> cache ~options c)
  @ run "convergence" (fun () -> convergence ~options c)
  @ run "parser" (fun () -> parser c)
  @ run "explain" (fun () -> explain ~options c)
  @ run "compiled" (fun () -> compiled ~options c)
  @ run "update" (fun () -> update ~options c)
