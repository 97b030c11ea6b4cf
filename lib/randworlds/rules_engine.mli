(** The syntactic rule engine: direct application of the paper's
    theorems when their hypotheses hold.

    - {b Rule A} (Theorem 5.6 / Corollary 5.7) — exact reference class:
      if the KB splits as [ψ(c̄) ∧ KB′] with the query constants
      appearing nowhere in [KB′], and [KB′] contains a statistic for
      [||φ(x̄) | ψ(x̄)||], that statistic is the answer. Purely
      syntactic (matching modulo alpha/AC), so it covers arbitrary
      arities, quantified classes and nested defaults.
    - {b Rule B} (Theorem 5.16) — unique minimal reference class with
      irrelevant extra information, for unary boolean classes.
    - {b Rule C} (Theorem 5.23) — Kyburg's strength rule on a chain.
    - {b Rule D} (Theorem 5.26) — Dempster combination for
      essentially-disjoint classes, including the conflicting-defaults
      verdicts of Section 5.3 (equal strengths → 1/2; independent
      strengths → no limit).

    Each rule returns a sound interval (or point); the engine
    intersects everything it can prove. A failed hypothesis check makes
    a rule silently inapplicable — never an unsound answer. *)

open Rw_logic

val infer :
  ?trace:Rw_trace.Trace.t ->
  Rw_compile.Compiled_kb.t ->
  Syntax.formula ->
  Answer.t
(** Apply every rule whose hypotheses hold to the compiled KB;
    [Not_applicable] when none match. The artifact supplies the
    pre-split conjuncts, the statistical index and the inconsistency
    pre-checks. [?trace] records which theorems fired with their
    instantiated preconditions, the reference classes considered, and
    the specificity winner (see {!Rw_trace.Trace}). *)
