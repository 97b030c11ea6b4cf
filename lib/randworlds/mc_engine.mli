(** The Monte-Carlo engine: [Pr_N^τ̄(φ | KB)] by uniform world
    sampling — the sixth engine.

    Same ratio over [W_N(Φ)] as the literal engine, estimated instead
    of enumerated: it reaches domain sizes orders of magnitude beyond
    the enumeration guard on any vocabulary, reports 95% Wilson
    confidence intervals rather than bare points, and surfaces its
    evidence (samples, KB hit rate, effective sample size, seed, wall
    time) through {!Answer.t} notes. *)

open Rw_logic

val default_seed : int

val pr_n :
  ?config:Rw_mc.Estimator.config ->
  ?pool:Rw_pool.Pool.t ->
  ?tilt_solve:
    (Atoms.universe -> Rw_logic.Tolerance.t -> Rw_unary.Solver.solution) ->
  ?seed:int ->
  vocab:Vocab.t ->
  n:int ->
  tol:Tolerance.t ->
  kb:Syntax.formula ->
  Syntax.formula ->
  Rw_mc.Estimator.outcome
(** One Monte-Carlo estimate at a single [(N, τ̄)] — for benches and
    tests. [?pool] parallelises the sampling without changing the
    result (see {!Rw_mc.Estimator.estimate}). *)

val estimate :
  ?seed:int ->
  ?samples:int ->
  ?ci_width:float ->
  ?pool:Rw_pool.Pool.t ->
  ?ns:int list ->
  ?tols:Tolerance.t list ->
  ?trace:Rw_trace.Trace.t ->
  Rw_compile.Compiled_kb.t ->
  Syntax.formula ->
  Answer.t
(** Estimate the double limit from an [(N, τ̄)] grid by sampling at the
    largest domain size along a shrinking tolerance schedule. The
    result is the confidence interval at the smallest tolerance that
    produced an estimate ([Within]); when every tolerance starves, a
    widened [[0,1]] interval with an explanatory note. Sampling fans
    out on [?pool] when given. Deterministic in [seed] at any width: the
    per-chunk stream splitting makes the width pure mechanism, so
    [--seed 42] gives bit-identical answers at any [--jobs]. Called
    from inside a pool task (a parallel batch), it ignores [?pool] and
    samples sequentially rather than nesting fan-outs. [?trace] records one
    "mc-point" fact per grid attempt (sample counts, KB hits, per-point
    seed, CI — but no wall-clock, so traces too are jobs-invariant and
    seed-deterministic) and the final interval verdict. The world
    vocabulary is the artifact's merged with the query's, and the
    artifact's memoised maxent solve feeds the stratified rescue's
    importance tilt; the sample stream is that of a direct solve. *)
