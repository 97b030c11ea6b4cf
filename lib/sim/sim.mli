(** The deterministic whole-system simulator (CoreSim TestBuilder
    style).

    One {!run} builds a real service over a real durable store in a
    scratch file, then drives a seeded sequence of ops over the full
    service surface — queries, batches on the run's one domain pool,
    belief-change updates, KB swaps, evictions, persists, compactions,
    budget expiries, crash-restarts — with optional fault injection at
    the {!Fault} catalog points. After {e every} step it checks the
    {!Invariant} catalog and appends one line to a deterministic
    {b event log}: no wall-clock, no paths, no per-run identifiers, so
    the same [(seed, steps, faults)] triple produces byte-identical
    logs on every machine at every pool width — the property ci.sh
    gates by digest.

    The workflow when a run fails: {!run} → {!shrink} the op sequence
    greedily (drop ops, then KB conjuncts, while the same invariant
    still fails) → {!save_case} the minimized sequence into
    [test/sim_corpus/] → fix → the corpus replays forever after as a
    regression gate ({!load_case} + {!replay}).

    Randomness: all draws come from {!Rng_registry} streams
    ([{"gen.kb"}], [{"gen.query"}], [{"sched"}], [{"fault"}],
    [{"pool.width"}]) so component draws commute — see that module for the naming
    convention. *)

open Randworlds

type report = {
  seed : int option;  (** [None] for corpus replays *)
  steps : int;  (** ops executed *)
  ops : Op.t list;  (** the executed sequence, in order — shrink input *)
  events : string list;
      (** the deterministic event log, one line per step plus one per
          violation *)
  digest : string;  (** MD5 hex of the event log — the ci.sh gate *)
  violations : (int * Invariant.violation) list;
      (** (step index, violation), in detection order *)
  fired : string list;  (** distinct fault points that actually fired *)
}

val sim_options : Engine.options
(** The pinned engine options every simulation runs under (the
    fuzzer's throughput-tuned options — fixed MC seed, small grids).
    Part of the determinism contract: they never vary per run. *)

val run :
  ?max_size:int ->
  ?faults:bool ->
  ?store_path:string ->
  seed:int ->
  steps:int ->
  unit ->
  report
(** Generate and execute [steps] ops from [seed]. [?max_size]
    (default 6) bounds generated KB sizes; [?faults] (default false)
    enables the fault plane; [?store_path] overrides the scratch store
    file (default: a fresh temp file, removed afterwards). The run
    holds one pool, of a width drawn from {2, 4}; the event log does
    not depend on it. *)

val replay : ?store_path:string -> Op.t list -> report
(** Execute a fixed op sequence (a corpus case or a shrink candidate)
    under the same pinned configuration and invariants, on one pool of
    width 2. *)

val shrink : Op.t list -> report -> Op.t list
(** Greedy minimization: repeatedly drop ops (then single KB conjuncts
    inside [Load_kb]/[Batch] payloads) while a violation of the same
    invariant class as in [report] still reproduces, to a fixpoint, to
    200 replays, or to 60 seconds of monotonic wall clock
    ({!Rw_prelude.Clock}), whichever comes first. The deadline is
    checked before each replay, so one replay can overrun it. A bound
    that stops it returns the smallest failing sequence found so far —
    which, when the deadline stopped it, depends on the host's speed.
    Returns the original sequence when the report has no violations. *)

(** {2 Corpus files}

    One [.sim] file per minimized failing sequence, line-oriented:
    [#] comment lines, then optional [seed:]/[faults:] headers, then
    one [op:] line per op in {!Op.render} syntax. *)

type case = {
  description : string;
  case_seed : int option;  (** the seed the failure was found under *)
  case_faults : bool;
  ops : Op.t list;
}

val save_case :
  path:string ->
  description:string ->
  ?seed:int ->
  faults:bool ->
  Op.t list ->
  unit

val load_case : string -> (case, string) result
(** Parse errors name the offending line. *)
