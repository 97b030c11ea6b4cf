(** The Monte-Carlo conditional estimator
    [Pr_N^τ̄(φ | KB) ≈ #hits(φ∧KB) / #hits(KB)] with Wilson-score
    confidence intervals.

    Draw worlds from the uniform prior (exactly the distribution the
    random-worlds definition ratios over), keep those satisfying the
    KB, and report the fraction also satisfying the query. Batches are
    adaptive: sampling continues until the 95% interval is narrower
    than a target half-width or a sample budget runs out; the budget
    is clamped by a work cap that scales with the world's size, so
    every stop is a function of the inputs and the seed.

    KBs whose models are a vanishing fraction of all worlds (a sharp
    statistical constraint at large [N] concentrates on exponentially
    few atom-count profiles) would starve plain rejection. For unary
    vocabularies the estimator then re-targets: it solves for the
    maximum-entropy atom proportions at the current tolerance — the
    point the KB-worlds themselves concentrate around (Section 6 of
    the paper) — and samples each element's atom from that tilted
    distribution instead, correcting with importance weights. That is
    sampling an atom-count profile first and a world within the
    profile second; the confidence interval then runs on the effective
    sample size [ (Σw)² / Σw² ]. *)

open Rw_logic
open Rw_model
open Rw_prelude

type config = {
  target_halfwidth : float;  (** stop when the CI half-width is below *)
  max_samples : int;  (** total sample budget *)
  min_hits : int;  (** KB hits required before trusting the CI *)
  give_up_after : int;
      (** declare starvation once this many samples produced no KB hit
          at all (after any stratified switch) — keeps hopeless
          rejection runs cheap for grid searches *)
}

let default_config =
  {
    target_halfwidth = 0.02;
    max_samples = 400_000;
    min_hits = 40;
    give_up_after = 50_000;
  }

(* Fixed sampling constants: the interval's normal quantile (≈ 95%),
   samples per chunk (the unit of parallel work), uniform samples
   before judging the hit rate, and the uniform KB hit rate below which
   a unary vocabulary switches to the tilted proposal. *)
let z = 1.96
and batch = 512
and warmup = 3_000
and stratify_below = 0.01

(* The work cap: a run draws at most [work_cap / cells] samples and
   gives up hitless at a quarter of that, so large worlds get
   proportionally fewer samples and the bound depends on the inputs
   alone. 2^27 holds the late-risers vocabulary (Example 5.14, 2 080
   cells at N = 32) to 65 536 samples, about 10 s on a 2-vCPU box. *)
let work_cap = 1 lsl 27

(* The random table entries of one world of size [n]: every
   predicate's and every non-constant function's. *)
let cells (vocab : Vocab.t) n =
  let size acc (_, arity) = acc + World.table_size n arity in
  List.fold_left size 0 vocab.Vocab.preds
  + List.fold_left size 0 (List.filter (fun (_, a) -> a > 0) vocab.Vocab.funcs)

type stats = {
  seed : int;
  n : int;  (** domain size sampled at *)
  samples : int;  (** worlds drawn, all phases *)
  kb_hits : int;  (** worlds satisfying the KB, all phases *)
  hit_rate : float;
  ess : float;  (** effective sample size behind the interval *)
  stratified : bool;  (** did the tilted fallback engage? *)
  seconds : float;
}

type outcome =
  | Estimate of { mean : float; ci : Interval.t; stats : stats }
  | Starved of stats  (** no usable evidence: the KB was never satisfied within budget,
          or every importance weight underflowed to zero *)

let pp_stats ppf s =
  Fmt.pf ppf "N=%d seed=%d samples=%d kb-hits=%d (rate %.2e) ess=%.0f%s %.2fs"
    s.n s.seed s.samples s.kb_hits s.hit_rate s.ess
    (if s.stratified then " stratified" else "")
    s.seconds

let pp_outcome ppf = function
  | Estimate { mean; ci; stats } ->
    Fmt.pf ppf "%.4f ∈ %a [%a]" mean Interval.pp ci pp_stats stats
  | Starved stats -> Fmt.pf ppf "starved [%a]" pp_stats stats

(** [wilson ~z ~hits ~total] — the Wilson score interval for a
    binomial proportion: centre [(p̂ + z²/2n) / (1 + z²/n)], half-width
    [z·√(p̂(1−p̂)/n + z²/4n²) / (1 + z²/n)]. Accepts fractional counts
    (effective sample sizes). Returns [(p̂, interval)]; the vacuous
    interval (and a NaN proportion) on degenerate input.

    Degenerate inputs are real, not hypothetical: importance-weight
    underflow can hand this function [hits = NaN] (0/0 upstream),
    round-off can push fractional hits slightly outside [0, total],
    and a collapsed effective sample size makes [z²/total] overflow.
    Every such case must land on honest bounds inside [0, 1] — never
    a [nan, nan] interval, which comparisons silently accept. *)
let wilson ~z ~hits ~total =
  if (not (Float.is_finite total)) || total <= 0.0 || not (Float.is_finite hits)
  then (Float.nan, Interval.vacuous)
  else begin
    (* Round-off in Σw accumulators can leave hits ∉ [0, total]. *)
    let hits = Float.min (Float.max hits 0.0) total in
    let p = hits /. total in
    let z2 = z *. z in
    let denom = 1.0 +. (z2 /. total) in
    let centre = (p +. (z2 /. (2.0 *. total))) /. denom in
    let half =
      z /. denom
      *. Float.sqrt
           (((p *. (1.0 -. p)) /. total) +. (z2 /. (4.0 *. total *. total)))
    in
    if Float.is_finite centre then
      (p, Interval.clamp01 (Interval.make (centre -. half) (centre +. half)))
    else
      (* [z²/total] overflowed: the sample carries no information. *)
      (p, Interval.vacuous)
  end

(* ------------------------------------------------------------------ *)
(* The tilted proposal for unary vocabularies                         *)
(* ------------------------------------------------------------------ *)

(* Mix a little uniform mass into the maximum-entropy point so every
   atom keeps positive proposal probability (absolute continuity: a
   world the uniform prior can produce must be producible here too). *)
let uniform_mix = 0.1

(* [solve] overrides the maxent solve the tilt is read from — a
   compiled KB supplies its memoised point, lifted to the vocabulary's
   universe, so batches don't re-run the optimiser per grid point. *)
let tilted_proposal ?solve ~(vocab : Vocab.t) ~tol kb =
  let all_unary =
    vocab.Vocab.preds <> []
    && List.for_all (fun (_, a) -> a = 1) vocab.Vocab.preds
    && List.for_all (fun (_, a) -> a = 0) vocab.Vocab.funcs
  in
  if not all_unary then None
  else begin
    try
      let pred_names = List.map fst vocab.Vocab.preds in
      let u = Atoms.universe pred_names in
      let sol =
        match solve with
        | Some f -> f u tol
        | None ->
          Rw_unary.(Solver.solve (Analysis.analyze ~extra_preds:pred_names kb) tol)
      in
      let a = Atoms.num_atoms u in
      let theta =
        Array.init a (fun i ->
            ((1.0 -. uniform_mix) *. Float.max 0.0 sol.Rw_unary.Solver.point.(i))
            +. (uniform_mix /. float_of_int a))
      in
      Some (Sampler.proposal ~preds:(Atoms.predicates u) ~theta)
    with
    | Rw_pool.Budget.Expired as e -> raise e
    | _ -> None
  end

(* ------------------------------------------------------------------ *)
(* The adaptive sampling loop                                         *)
(* ------------------------------------------------------------------ *)

(* Weighted accumulators for one sampling phase. *)
type accum = {
  mutable phase_samples : int;
  mutable hits : int;  (** KB hits in this phase *)
  mutable w_kb : float;  (** Σ w over KB hits *)
  mutable w2_kb : float;  (** Σ w² over KB hits *)
  mutable w_both : float;  (** Σ w over (KB ∧ query) hits *)
}

let fresh_accum () =
  { phase_samples = 0; hits = 0; w_kb = 0.0; w2_kb = 0.0; w_both = 0.0 }

let ess acc = if acc.w2_kb > 0.0 then acc.w_kb *. acc.w_kb /. acc.w2_kb else 0.0

let accum_interval ~z acc =
  let n_eff = ess acc in
  let p_hat = if acc.w_kb > 0.0 then acc.w_both /. acc.w_kb else Float.nan in
  wilson ~z ~hits:(p_hat *. n_eff) ~total:n_eff

(* The unit of scheduling is a {e chunk} of [batch] samples; a
   {e round} is up to [chunks_per_round] chunks drawn between stopping
   / stratification checks. Rounds — not domains — are the grain of
   determinism: every chunk owns a generator split off the master
   stream in chunk order on the coordinator, a fresh accumulator, and
   its own scratch world, so chunks can execute on any domain in any
   order and merging their accumulators back in chunk order reproduces
   the sequential result bit for bit. All adaptive decisions (stop,
   stratify, give up) happen at round boundaries from merged totals,
   which therefore do not depend on the job count either. *)
let chunks_per_round = 16

(* The stratification checkpoint must be reachable within the sample
   budget, or the tilted rescue can never engage: a budget no larger
   than one full round used to be consumed entirely before the first
   [maybe_stratify], and a warmup exceeding the budget pushed the
   checkpoint past the end of the run altogether. Both shapes are the
   norm under the fuzzer's small per-case budgets (the three
   near-degenerate agreement failures in ROADMAP: uniform sampling of
   a KB whose satisfaction probability is ~3e-3 produced a handful of
   hits and a junk interval, while the tilt — which hits the same KBs
   at ~10% — sat unused). Scaling the warmup reserves at least three
   quarters of small budgets for the tilted phase. *)
let effective_warmup config = min warmup (max 1 (config.max_samples / 4))

(** [estimate ?config ?pool ?tilt_solve ~seed ~vocab ~n ~tol ~kb query]
    — the adaptive Monte-Carlo estimate of [Pr_N^τ̄(query | kb)].
    Deterministic in [seed] at any pool width and any load.
    [tilt_solve] overrides the maxent solve behind the tilted
    proposal (see {!tilted_proposal}). Raises [Invalid_argument] when
    the vocabulary does not cover both sentences. *)
let estimate ?(config = default_config) ?pool ?tilt_solve ~seed ~vocab ~n ~tol
    ~kb query =
  if not (Vocab.covers vocab kb && Vocab.covers vocab query) then
    invalid_arg "Estimator.estimate: vocabulary does not cover formulas";
  let master = Prng.create seed in
  let t0 = Rw_prelude.Clock.now () in
  (* The work cap, checked at round boundaries like every other stop. *)
  let cells = max 1 (cells vocab n) in
  let sample_cap = min config.max_samples (work_cap / cells)
  and hitless_cap = min config.give_up_after (work_cap / 4 / cells) in
  let total_samples = ref 0 and total_hits = ref 0 in
  let uniform_acc = fresh_accum () in
  (* [proposal = None] while sampling uniformly. *)
  let proposal = ref None and acc = ref uniform_acc in
  (* One chunk, runnable on any domain: private generator, private
     scratch world, private accumulator. [Budget.check] keeps service
     deadlines enforceable on whichever domain runs the chunk. *)
  let run_chunk (size, rng, prop) =
    let world = World.create vocab n in
    let a = fresh_accum () in
    for _ = 1 to size do
      Rw_pool.Budget.check ();
      let w =
        match prop with
        | None ->
          Sampler.fill_uniform rng world;
          1.0
        | Some p -> Float.exp (Sampler.fill_atomwise rng world p)
      in
      a.phase_samples <- a.phase_samples + 1;
      if Rw_model.Eval.sat world tol kb then begin
        a.hits <- a.hits + 1;
        a.w_kb <- a.w_kb +. w;
        a.w2_kb <- a.w2_kb +. (w *. w);
        if Rw_model.Eval.sat world tol query then a.w_both <- a.w_both +. w
      end
    done;
    a
  in
  let merge_into dst src =
    dst.phase_samples <- dst.phase_samples + src.phase_samples;
    dst.hits <- dst.hits + src.hits;
    dst.w_kb <- dst.w_kb +. src.w_kb;
    dst.w2_kb <- dst.w2_kb +. src.w2_kb;
    dst.w_both <- dst.w_both +. src.w_both
  in
  let warmup = effective_warmup config in
  let draw_round () =
    (* Chunk generators are split off the master stream per chunk —
       never per domain — so the stream assignment is a pure function
       of (seed, chunk index). *)
    let prop = !proposal in
    let remaining =
      (* A budget that fits inside one round would blow straight past
         the stratification checkpoint, so cap the uniform phase of
         such runs at the warmup boundary — the tilted phase then gets
         the rest of the budget. Multi-round budgets keep their full
         round size (and their exact historical sample stream): their
         first round boundary already lands past the warmup. *)
      if
        Option.is_none prop
        && config.max_samples <= chunks_per_round * batch
        && !total_samples < warmup
      then warmup - !total_samples
      else config.max_samples - !total_samples
    in
    let rec specs remaining k =
      if k = 0 || remaining <= 0 then []
      else
        let size = min batch remaining in
        let rng = Prng.split master in
        (size, rng, prop) :: specs (remaining - size) (k - 1)
    in
    let specs = specs remaining chunks_per_round in
    let accs =
      match pool with
      | Some p -> Rw_pool.Pool.map p run_chunk specs
      | None -> List.map run_chunk specs
    in
    (* Merge in chunk order: float addition is not associative, so the
       fixed order is part of the determinism contract. *)
    List.iter
      (fun a ->
        total_samples := !total_samples + a.phase_samples;
        total_hits := !total_hits + a.hits;
        merge_into !acc a)
      accs
  in
  let maybe_stratify () =
    if Option.is_none !proposal && !total_samples >= warmup then begin
      let rate = float_of_int !total_hits /. float_of_int !total_samples in
      if rate < stratify_below then
        match tilted_proposal ?solve:tilt_solve ~vocab ~tol kb with
        | Some prop ->
          (* Restart the accumulators: mixing unweighted and weighted
             phases would need per-phase variance bookkeeping for no
             statistical gain. *)
          proposal := Some prop;
          acc := fresh_accum ()
        | None -> ()
    end
  in
  let stats () =
    {
      seed;
      n;
      samples = !total_samples;
      kb_hits = !total_hits;
      hit_rate =
        (if !total_samples = 0 then 0.0
         else float_of_int !total_hits /. float_of_int !total_samples);
      ess = ess !acc;
      stratified = Option.is_some !proposal;
      seconds = Rw_prelude.Clock.now () -. t0;
    }
  in
  let finish () =
    (* Prefer the current phase; fall back to the uniform warmup if the
       tilted phase never hit the KB. *)
    let best = if !acc.hits > 0 then !acc else uniform_acc in
    if best.hits = 0 then Starved (stats ())
    else begin
      let mean, ci = accum_interval ~z best in
      (* Importance-weight collapse: hits happened but every weight
         underflowed to 0 (or the effective sample size did), so the
         ratio Σw_both/Σw_kb is 0/0. There is no estimate to report —
         that is starvation, not an Estimate with NaN fields.

         The same honesty applies below [min_hits]: the config calls it
         the evidence "required before trusting the CI", yet a run that
         exhausted its budget with a handful of KB hits used to report
         the Wilson interval of those few worlds as its answer — on
         near-degenerate KBs that interval lands far from the
         conditional often enough to fail cross-engine agreement
         deterministically. Too little evidence to trust is starvation,
         not an estimate. *)
      if
        Float.is_finite mean
        && ess best >= float_of_int (max 1 config.min_hits)
      then Estimate { mean; ci; stats = { (stats ()) with ess = ess best } }
      else Starved (stats ())
    end
  in
  let rec loop () =
    if
      !total_samples >= sample_cap
      (* The stratified switch (if available) happened back at warmup,
         so a still-empty run this deep is hopeless either way. *)
      || (!total_hits = 0 && !total_samples >= hitless_cap)
    then finish ()
    else begin
      draw_round ();
      maybe_stratify ();
      if !acc.hits >= config.min_hits then begin
        let _, ci = accum_interval ~z !acc in
        if Interval.width ci /. 2.0 <= config.target_halfwidth then finish ()
        else loop ()
      end
      else loop ()
    end
  in
  loop ()
