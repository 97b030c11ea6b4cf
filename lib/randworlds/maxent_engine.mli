(** The asymptotic engine for unary knowledge bases: degrees of belief
    via maximum entropy (Section 6).

    By the concentration phenomenon, as [N → ∞] almost all KB-worlds
    lie near the maximum-entropy point of [S(KB)], so queries about
    named individuals are answered from the atom distribution at that
    point, conditioned on each individual's known facts (constants are
    asymptotically independent given the proportions). That one
    read-off of the memoised point is the only way a query about
    constants is answered: conditioning never solves again, even on a
    vanishing mass. Closed statistical / quantified queries get
    degree of belief 1 or 0 according to their truth at the point. The
    [τ̄ → 0] limit is taken numerically over a shrinking schedule with
    least-squares intercept extrapolation.

    A predicate the KB lacks is read off, not solved: the memoised
    point is lifted to the query's universe ({!Rw_unary.Solver.lift}).
    Disjunctive KBs are handled through the same concentration
    argument: disjuncts of maximal entropy dominate the world count;
    when every dominant disjunct yields the same belief, that is the
    answer (validating the Or rule — e.g. Example 5.4's broken arm).
    Their entropies are compared over one universe: the whole KB's
    predicates plus the query's. *)

open Rw_logic

val default_tols : Tolerance.t list
(** Alias of {!Rw_compile.Compiled_kb.default_schedule}: the engine
    walks exactly the schedule [rw compile] profiles. *)

exception Outside_fragment of string
(** KB or query outside the unary fragment; caught by {!estimate}. *)

val estimate :
  ?tols:Tolerance.t list ->
  ?trace:Rw_trace.Trace.t ->
  Rw_compile.Compiled_kb.t ->
  Syntax.formula ->
  Answer.t
(** The [τ̄ → 0] limit over the schedule. Never raises: fragment
    violations yield [Not_applicable]; infeasibility along the whole
    schedule yields [Inconsistent]; non-convergence yields [No_limit]
    or a widened interval. Pass structured tolerance vectors (with
    per-index powers) to probe default priorities — Section 5.3's
    non-robustness ablation. [?trace] records the entropy-maximum
    profile (entropy, binding-constraint count, per-atom masses), the
    per-tolerance beliefs, and the extrapolation verdict. The
    artifact's analysis (or each disjunct's) is widened to the query's
    universe once per call, and maxent points are the artifact's memo,
    lifted; so a warm query does no solver work. *)
