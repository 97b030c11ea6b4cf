(* The Monte-Carlo engine: PRNG determinism and splitting, Wilson
   intervals against known binomial cases, sampler marginals,
   mc-vs-enum agreement across the KB zoo at sizes where enumeration
   is exact, the stratified rescue for starving unary KBs, and the
   honest-starvation path for KBs with no models. *)

open Rw_logic
open Rw_prelude
open Randworlds

let parse s =
  match Parser.formula s with
  | Ok f -> f
  | Error msg -> Alcotest.failf "parse %S failed: %s" s msg

let floaty = Alcotest.float 1e-9

let contains ~sub s =
  let ls = String.length s and lsub = String.length sub in
  let rec at i = i + lsub <= ls && (String.sub s i lsub = sub || at (i + 1)) in
  lsub = 0 || at 0

(* ------------------------------------------------------------------ *)
(* PRNG                                                               *)
(* ------------------------------------------------------------------ *)

let stream rng k = List.init k (fun _ -> Rw_mc.Prng.bits64 rng)

let test_prng_determinism () =
  let a = stream (Rw_mc.Prng.create 123) 64 in
  let b = stream (Rw_mc.Prng.create 123) 64 in
  Alcotest.(check (list int64)) "same seed, same stream" a b;
  let c = stream (Rw_mc.Prng.create 124) 64 in
  Alcotest.(check bool) "different seed, different stream" true (a <> c);
  let rng = Rw_mc.Prng.create 5 in
  let copy = Rw_mc.Prng.copy rng in
  Alcotest.(check (list int64)) "copy replays" (stream rng 16) (stream copy 16)

let test_prng_uniformity () =
  let rng = Rw_mc.Prng.create 9 in
  let k = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to k do
    let u = Rw_mc.Prng.float rng in
    Alcotest.(check bool) "float in [0,1)" true (u >= 0.0 && u < 1.0);
    sum := !sum +. u
  done;
  Alcotest.(check bool) "float mean near 1/2" true
    (Float.abs ((!sum /. float_of_int k) -. 0.5) < 0.01);
  let counts = Array.make 7 0 in
  for _ = 1 to 7_000 do
    let v = Rw_mc.Prng.int rng 7 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bounded draws near uniform" true
        (abs (c - 1000) < 150))
    counts

let test_prng_split_independence () =
  let parent = Rw_mc.Prng.create 7 in
  let child = Rw_mc.Prng.split parent in
  (* Splitting is deterministic… *)
  let parent' = Rw_mc.Prng.create 7 in
  let child' = Rw_mc.Prng.split parent' in
  Alcotest.(check (list int64)) "same split, same child stream"
    (stream child 32) (stream child' 32);
  Alcotest.(check (list int64)) "same split, same parent stream"
    (stream parent 32) (stream parent' 32);
  (* …and the child is a genuinely different stream from the parent's
     continuation (fresh state and gamma). *)
  let p = Rw_mc.Prng.create 7 in
  let c = Rw_mc.Prng.split p in
  let ps = stream p 64 and cs = stream c 64 in
  Alcotest.(check bool) "child differs from parent continuation" true
    (ps <> cs);
  let mean =
    List.fold_left
      (fun acc z ->
        acc +. (Int64.to_float (Int64.shift_right_logical z 11) *. 0x1p-53))
      0.0 cs
    /. 64.0
  in
  Alcotest.(check bool) "child stream looks uniform" true
    (Float.abs (mean -. 0.5) < 0.15)

(* ------------------------------------------------------------------ *)
(* Wilson intervals                                                   *)
(* ------------------------------------------------------------------ *)

let test_wilson_known_cases () =
  let check name hits total lo hi =
    let _, ci = Rw_mc.Estimator.wilson ~z:1.96 ~hits ~total in
    Alcotest.check floaty (name ^ " lo") lo (Interval.lo ci);
    Alcotest.check floaty (name ^ " hi") hi (Interval.hi ci)
  in
  (* Reference values from the closed form. *)
  check "5/10" 5.0 10.0 0.23658959361548731 0.7634104063845126;
  check "50/100" 50.0 100.0 0.40382982859014716 0.5961701714098528;
  check "0/10" 0.0 10.0 0.0 0.2775401687666166;
  check "10/10" 10.0 10.0 0.7224598312333834 1.0;
  check "1/1000" 1.0 1000.0 0.0001765418290572713 0.0056427029601604705;
  let _, vac = Rw_mc.Estimator.wilson ~z:1.96 ~hits:0.0 ~total:0.0 in
  Alcotest.(check bool) "empty sample is vacuous" true (Interval.is_vacuous vac)

(* Degenerate inputs the fuzzer's importance-weight collapse produced:
   every path must land on finite bounds inside [0,1] — a [nan, nan]
   interval sails through `<=` comparisons and poisoned whole answers
   before the guards existed. *)
let test_wilson_degenerate_inputs () =
  let sane name (p, ci) =
    let lo = Interval.lo ci and hi = Interval.hi ci in
    Alcotest.(check bool)
      (name ^ ": finite bounds")
      true
      (Float.is_finite lo && Float.is_finite hi);
    Alcotest.(check bool) (name ^ ": inside [0,1]") true
      (0.0 <= lo && lo <= hi && hi <= 1.0);
    ignore p
  in
  let w ~hits ~total = Rw_mc.Estimator.wilson ~z:1.96 ~hits ~total in
  (* NaN hits: the 0/0 of a fully underflowed weight sum. *)
  sane "nan hits" (w ~hits:Float.nan ~total:5.0);
  let p_nan, ci_nan = w ~hits:Float.nan ~total:5.0 in
  Alcotest.(check bool) "nan hits: no proportion" true (Float.is_nan p_nan);
  Alcotest.(check bool) "nan hits: vacuous" true (Interval.is_vacuous ci_nan);
  (* Non-finite / non-positive totals. *)
  sane "nan total" (w ~hits:1.0 ~total:Float.nan);
  sane "inf total" (w ~hits:1.0 ~total:Float.infinity);
  sane "negative total" (w ~hits:1.0 ~total:(-3.0));
  sane "zero total" (w ~hits:0.0 ~total:0.0);
  (* Collapsed effective sample size: z²/total overflows. *)
  sane "tiny total" (w ~hits:1e-300 ~total:1e-300);
  sane "subnormal total" (w ~hits:0.0 ~total:4e-324);
  (* Round-off pushing hits outside [0, total] must clamp, not leak
     p̂ ∉ [0,1] into the centre term. *)
  let p_over, _ = w ~hits:10.2 ~total:10.0 in
  Alcotest.check floaty "hits > total clamps to p=1" 1.0 p_over;
  let p_under, _ = w ~hits:(-0.2) ~total:10.0 in
  Alcotest.check floaty "hits < 0 clamps to p=0" 0.0 p_under;
  (* Boundary proportions stay exact. *)
  let p0, ci0 = w ~hits:0.0 ~total:40.0 in
  Alcotest.check floaty "p=0 exact" 0.0 p0;
  Alcotest.check floaty "p=0 lower bound" 0.0 (Interval.lo ci0);
  let p1, ci1 = w ~hits:40.0 ~total:40.0 in
  Alcotest.check floaty "p=1 exact" 1.0 p1;
  Alcotest.check floaty "p=1 upper bound" 1.0 (Interval.hi ci1)

(* ------------------------------------------------------------------ *)
(* Sampler marginals                                                  *)
(* ------------------------------------------------------------------ *)

let test_sampler_marginals () =
  let vocab = Vocab.make ~preds:[ ("P", 1) ] ~funcs:[ ("C", 0) ] in
  let w = Rw_model.World.create vocab 5 in
  let rng = Rw_mc.Prng.create 11 in
  let rounds = 20_000 in
  let trues = ref 0 and cvals = Array.make 5 0 in
  for _ = 1 to rounds do
    Rw_mc.Sampler.fill_uniform rng w;
    trues := !trues + Rw_model.World.count_pred w "P";
    let c = Rw_model.World.constant w "C" in
    cvals.(c) <- cvals.(c) + 1
  done;
  let frac = float_of_int !trues /. float_of_int (5 * rounds) in
  Alcotest.(check bool) "predicate cells are fair coins" true
    (Float.abs (frac -. 0.5) < 0.01);
  Array.iter
    (fun c ->
      Alcotest.(check bool) "constant uniform over the domain" true
        (abs (c - (rounds / 5)) < 300))
    cvals

(* ------------------------------------------------------------------ *)
(* mc vs enum across the KB zoo                                       *)
(* ------------------------------------------------------------------ *)

(* Wherever enumeration is exact, the default-seed mc estimate at the
   same (N, τ̄) must trap the exact value in its own 95% interval. *)
let test_mc_vs_enum_zoo () =
  let n = 3 and tol = Tolerance.uniform 0.15 in
  let config =
    {
      Rw_mc.Estimator.default_config with
      Rw_mc.Estimator.target_halfwidth = 0.03;
      max_samples = 80_000;
    }
  in
  let tested = ref 0 in
  List.iter
    (fun (e : Rw_kbzoo.Kbzoo.entry) ->
      let vocab = Vocab.of_formulas [ e.kb; e.query ] in
      if Rw_model.Enum.log10_world_count vocab n <= 5.5 then begin
        match Enum_engine.pr_n ~vocab ~n ~tol ~kb:e.kb e.query with
        | None -> ()
        | Some exact -> (
          incr tested;
          match
            Mc_engine.pr_n ~config ~seed:7 ~vocab ~n ~tol ~kb:e.kb e.query
          with
          | Rw_mc.Estimator.Estimate { ci; _ } ->
            Alcotest.(check bool)
              (Fmt.str "%s: exact %.4f inside mc CI %a" e.id exact Interval.pp
                 ci)
              true
              (Interval.mem ~eps:1e-9 exact ci)
          | Rw_mc.Estimator.Starved stats ->
            Alcotest.failf "%s starved: %a" e.id Rw_mc.Estimator.pp_stats stats)
      end)
    (Rw_kbzoo.Kbzoo.all ());
  Alcotest.(check bool)
    (Fmt.str "at least 10 zoo entries cross-checked (got %d)" !tested)
    true (!tested >= 10)

(* ------------------------------------------------------------------ *)
(* Determinism of the whole estimator                                 *)
(* ------------------------------------------------------------------ *)

let test_estimator_deterministic () =
  let kb = parse "Jaun(Eric) /\\ ||Hep(x) | Jaun(x)||_x ~=_1 0.8" in
  let query = parse "Hep(Eric)" in
  let vocab = Vocab.of_formulas [ kb; query ] in
  let run () =
    Rw_mc.Estimator.estimate ~seed:5 ~vocab ~n:16 ~tol:(Tolerance.uniform 0.1)
      ~kb query
  in
  match (run (), run ()) with
  | ( Rw_mc.Estimator.Estimate { mean = m1; ci = c1; stats = s1 },
      Rw_mc.Estimator.Estimate { mean = m2; ci = c2; stats = s2 } ) ->
    Alcotest.check floaty "same mean" m1 m2;
    Alcotest.(check bool) "same interval" true (Interval.equal ~eps:0.0 c1 c2);
    Alcotest.(check int) "same sample count" s1.Rw_mc.Estimator.samples
      s2.Rw_mc.Estimator.samples;
    Alcotest.(check int) "same hits" s1.Rw_mc.Estimator.kb_hits
      s2.Rw_mc.Estimator.kb_hits
  | _ -> Alcotest.fail "estimator starved on an easy KB"

(* The work cap: a 576-cell world (one binary predicate at N = 24)
   with the default sample budget and no interval target stops at
   2^27 / 576 samples, rounded up to the next 8 192-sample round — the
   same count, and the same interval, at any pool width and on every
   run, because no stop reads a clock. *)
let test_work_cap () =
  let kb = parse "R(A,A)" and query = parse "R(A,B)" in
  let vocab = Vocab.of_formulas [ kb; query ] in
  let n = 24 and round = 8_192 in
  let cap = (1 lsl 27) / Rw_model.World.table_size n 2 in
  let config =
    { Rw_mc.Estimator.default_config with Rw_mc.Estimator.target_halfwidth = 0.0 }
  in
  let run jobs =
    Rw_pool.Pool.run ~jobs (fun p ->
        match
          Rw_mc.Estimator.estimate ~config ~pool:p ~seed:11 ~vocab ~n
            ~tol:(Tolerance.uniform 0.1) ~kb query
        with
        | Rw_mc.Estimator.Estimate { ci; stats; _ } -> (ci, stats)
        | Rw_mc.Estimator.Starved stats ->
          Alcotest.failf "starved: %a" Rw_mc.Estimator.pp_stats stats)
  in
  let ci1, s1 = run 1 in
  Alcotest.(check bool) "the cap binds below max_samples" true
    (cap < config.Rw_mc.Estimator.max_samples);
  Alcotest.(check int) "samples = the cap rounded up to a round"
    ((cap + round - 1) / round * round)
    s1.Rw_mc.Estimator.samples;
  List.iter
    (fun (what, (ci, s)) ->
      Alcotest.(check bool) (what ^ ": same interval") true
        (Interval.equal ~eps:0.0 ci1 ci);
      Alcotest.(check int) (what ^ ": same samples") s1.Rw_mc.Estimator.samples
        s.Rw_mc.Estimator.samples)
    [ ("jobs 2", run 2); ("repeated", run 1) ]

(* ------------------------------------------------------------------ *)
(* Stratified rescue and honest starvation                            *)
(* ------------------------------------------------------------------ *)

(* A sharp unary constraint at N=80: uniform rejection hits the KB
   with probability ~1e-3, so the tilted fallback must engage — and
   still trap the exact profile-counting value. *)
let test_stratified_rescue () =
  let kb = parse "Jaun(Eric) /\\ ||Hep(x) | Jaun(x)||_x ~=_1 0.8" in
  let query = parse "Hep(Eric)" in
  let vocab = Vocab.of_formulas [ kb; query ] in
  let n = 80 and tol = Tolerance.uniform 0.05 in
  let exact =
    match Unary_engine.pr_n ~kb ~query ~n ~tol with
    | Some v -> v
    | None -> Alcotest.fail "unary engine found no worlds"
  in
  match Rw_mc.Estimator.estimate ~seed:3 ~vocab ~n ~tol ~kb query with
  | Rw_mc.Estimator.Estimate { ci; stats; _ } ->
    Alcotest.(check bool) "tilted fallback engaged" true
      stats.Rw_mc.Estimator.stratified;
    Alcotest.(check bool)
      (Fmt.str "exact %.4f inside stratified CI %a (%a)" exact Interval.pp ci
         Rw_mc.Estimator.pp_stats stats)
      true
      (Interval.mem ~eps:1e-9 exact ci)
  | Rw_mc.Estimator.Starved stats ->
    Alcotest.failf "starved despite stratification: %a"
      Rw_mc.Estimator.pp_stats stats

(* A KB with no worlds at all must neither hang nor fabricate an
   estimate: the estimator gives up quickly, and the engine answers
   with a widened interval plus an explanatory note. *)
let test_hard_kb_starves_quickly () =
  let kb = parse "||P(x)||_x ~=_1 0.9 /\\ ||P(x)||_x ~=_2 0.1" in
  let query = parse "P(C)" in
  let vocab = Vocab.of_formulas [ kb; query ] in
  let config =
    { Rw_mc.Estimator.default_config with Rw_mc.Estimator.give_up_after = 8_000 }
  in
  (match
     Rw_mc.Estimator.estimate ~config ~seed:1 ~vocab ~n:30
       ~tol:(Tolerance.uniform 0.02) ~kb query
   with
  | Rw_mc.Estimator.Starved stats ->
    Alcotest.(check bool) "gave up promptly" true
      (stats.Rw_mc.Estimator.samples <= 10_000)
  | Rw_mc.Estimator.Estimate { stats; _ } ->
    Alcotest.failf "estimated an inconsistent KB: %a"
      Rw_mc.Estimator.pp_stats stats);
  let a =
    Mc_engine.estimate ~seed:1 ~samples:8_000 ~tols:[ Tolerance.uniform 0.02 ]
      (Rw_compile.Compiled_kb.compile kb) query
  in
  (match a.Answer.result with
  | Answer.Within i ->
    Alcotest.(check bool) "widened to vacuous" true (Interval.is_vacuous i)
  | r -> Alcotest.failf "expected a widened interval, got %a" Answer.pp_result r);
  Alcotest.(check bool) "note explains the starvation" true
    (List.exists (contains ~sub:"no KB hits") a.Answer.notes)

(* ------------------------------------------------------------------ *)
(* Dispatcher integration                                             *)
(* ------------------------------------------------------------------ *)

(* When the enumeration guard is blown, the dispatcher must hand over
   to mc instead of declining. *)
let test_dispatch_falls_back_to_mc () =
  let kb = parse "||Likes(x,y)||_{x,y} ~=_1 0.3" in
  let query = parse "Likes(A,B)" in
  let options =
    {
      Engine.default_options with
      Engine.enum_sizes = Some [ 12 ];
      tols = Some [ Tolerance.uniform 0.2 ];
      mc_samples = Some 40_000;
    }
  in
  let a = Engine.degree_of_belief ~options ~kb query in
  Alcotest.(check string) "mc engine answered" "mc" a.Answer.engine;
  match a.Answer.result with
  | Answer.Within _ -> ()
  | r -> Alcotest.failf "expected an interval, got %a" Answer.pp_result r

(* Where enum does apply, its exact point gets an independent mc
   cross-check note. *)
let test_dispatch_cross_checks_enum () =
  let kb = Syntax.True in
  let query = parse "C1 = C2" in
  let a = Engine.degree_of_belief ~kb query in
  Alcotest.(check string) "enum engine answered" "enum" a.Answer.engine;
  Alcotest.(check bool) "cross-check note present" true
    (List.exists (contains ~sub:"mc cross-check") a.Answer.notes);
  Alcotest.(check bool) "cross-check agrees" true
    (List.exists (contains ~sub:"inside 95% CI") a.Answer.notes)

let suite =
  [
    ("prng.determinism", `Quick, test_prng_determinism);
    ("prng.uniformity", `Quick, test_prng_uniformity);
    ("prng.split_independence", `Quick, test_prng_split_independence);
    ("wilson.known_cases", `Quick, test_wilson_known_cases);
    ("wilson.degenerate_inputs", `Quick, test_wilson_degenerate_inputs);
    ("sampler.marginals", `Quick, test_sampler_marginals);
    ("agreement.zoo_vs_enum", `Slow, test_mc_vs_enum_zoo);
    ("estimator.deterministic", `Quick, test_estimator_deterministic);
    ("estimator.stratified_rescue", `Quick, test_stratified_rescue);
    ("estimator.starvation", `Quick, test_hard_kb_starves_quickly);
    ("dispatch.mc_fallback", `Quick, test_dispatch_falls_back_to_mc);
    ("dispatch.enum_cross_check", `Quick, test_dispatch_cross_checks_enum);
    ("estimator.work_cap", `Quick, test_work_cap);
  ]
