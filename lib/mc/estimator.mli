(** Monte-Carlo estimation of [Pr_N^τ̄(φ | KB)] with Wilson-score
    confidence intervals.

    Worlds are drawn uniformly from [W_N(Φ)] — the exact distribution
    the random-worlds definition ratios over — and the conditional
    estimate is [#hits(φ∧KB)/#hits(KB)]. Batching is adaptive (sample
    until the interval beats a target half-width or a budget runs
    out), and unary KBs whose models are a vanishing fraction of all
    worlds switch to a maximum-entropy-tilted atom proposal with
    importance weights rather than starving. *)

open Rw_logic
open Rw_prelude

type config = {
  target_halfwidth : float;  (** stop when the CI half-width is below *)
  max_samples : int;
      (** total sample budget, clamped by the work cap (see {!estimate}) *)
  min_hits : int;  (** KB hits required before trusting the CI *)
  give_up_after : int;
      (** declare starvation once this many samples produced no KB hit
          at all (after any stratified switch) — keeps hopeless
          rejection runs cheap for grid searches *)
}

val default_config : config

(** Observability: every estimate reports its evidence. *)
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

val pp_stats : Format.formatter -> stats -> unit
val pp_outcome : Format.formatter -> outcome -> unit

val wilson : z:float -> hits:float -> total:float -> float * Interval.t
(** The Wilson score interval for a binomial proportion; accepts
    fractional counts (effective sample sizes). Total on degenerate
    input: non-finite or non-positive [total], non-finite [hits], and
    [z²/total] overflow all yield the vacuous interval (with a NaN
    proportion where none is defined); fractional [hits] are clamped
    into [0, total]. The returned interval always has finite bounds
    inside [0, 1]. *)

val estimate :
  ?config:config ->
  ?pool:Rw_pool.Pool.t ->
  ?tilt_solve:
    (Atoms.universe -> Tolerance.t -> Rw_unary.Solver.solution) ->
  seed:int ->
  vocab:Vocab.t ->
  n:int ->
  tol:Tolerance.t ->
  kb:Syntax.formula ->
  Syntax.formula ->
  outcome
(** The adaptive Monte-Carlo estimate of [Pr_N^τ̄(query | kb)].

    [?tilt_solve] overrides the maximum-entropy solve over [vocab]'s
    atom universe that the stratified fallback reads its tilted
    proposal from (a compiled KB passes its memoised point, lifted);
    the proposal is the direct solve's up to rounding.

    Every stop is a function of the inputs and [seed]: besides the
    interval target and [config], a work cap bounds a run to
    [2^27 / cells] samples and a hitless run to a quarter of that,
    where [cells] counts the table entries of one world (every
    predicate's and non-constant function's at size [n]). Like every
    stop it is checked at round boundaries of 8 192 samples, so a run
    it ends reports the cap rounded up to the next round. No stop reads
    a clock; [stats.seconds] is reported evidence only.

    Sampling is sharded into fixed-size chunks (512 samples), each
    with a generator split off the master stream {e per chunk, not per
    domain}, a private scratch world, and a private accumulator merged
    back in chunk order; adaptive decisions happen only at fixed round
    boundaries. [?pool] therefore changes where chunks execute but not
    the result: the outcome is bit-identical at any pool width and any
    load, and deterministic in [seed]. The per-sample loop polls
    {!Rw_pool.Budget.check}, so service deadlines unwind from worker
    domains too. Raises [Invalid_argument] when the vocabulary does not
    cover both sentences. *)
