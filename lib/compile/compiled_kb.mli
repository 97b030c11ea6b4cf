(** Compiled knowledge bases: the one KB input of every engine.

    Much of what a query against a KB needs depends only on the KB:
    its conjunct split, its recognised statistical statements, its
    unary atom universe and ε-constraints, and — most expensively —
    the entropy-maximising point for every tolerance in the
    τ̄-schedule (Grove–Halpern–Koller: the maxent point over atom
    proportions is a function of the constraints alone). A {!t} holds
    that work once per KB, so every query sharing the KB shares it.

    [compile kb] is the syntactic pass only, and returns a {!t}
    holding:

    - the KB's split conjuncts and the pre-indexed statistical
      statements the rules engine matches reference classes against,
    - the two query-independent eventual-inconsistency pre-checks,
    - the KB's vocabulary (merged with a query's where one is needed),
    - the KB's {!Rw_unary.Analysis.parts} over its own unary
      predicates, the atoms its universal facts allow, and memo tables
      for maxent solves and for unary profile-counting tables.

    Nothing is solved at compile time: each memo cell (one tolerance,
    or one domain size and tolerance) fills the first time an engine
    asks for it, and stays filled for every later query. The canonical
    digest is likewise computed on first read. So compiling costs a
    single-shot query next to nothing, and a session pays each solve
    once.

    Thread-safety: one artifact may be used concurrently from many
    pool domains. The memo tables are mutex-guarded and fill each cell
    exactly once; the digest is set once through an [Atomic].

    Soundness: a solve cell is keyed by its tolerance alone and holds
    the compiled problem's point, so no query grows the artifact. A
    query naming predicates the KB lacks reads the same cells, widened
    ({!Rw_unary.Analysis.widen}) and lifted ({!Rw_unary.Solver.lift}),
    which is exact. *)

open Rw_logic
open Rw_unary

type t

val compile : Syntax.formula -> t
(** The syntactic compilation pass; no solve runs. *)

val default_schedule : Tolerance.t list
(** The maxent engine's τ̄-schedule, the one {!entropy_profile}
    describes. *)

val update : t -> Syntax.formula -> t * bool
(** [update old kb] compiles an artifact for [kb] — a small delta of
    [old]'s KB — reusing [old] where the delta leaves it undisturbed.
    The syntactic pass is always redone. When both KBs are in the
    unary fragment and pose the {e same optimisation problem} — equal
    atom universe, universal and statistical constraints; only the
    evidence about individuals changed — the solved maxent cells and
    profile-table memos are carried over instead of re-solved, which
    is sound because the solver never reads the constant facts.
    Returns [(artifact, carried)]; when the delta disturbs the problem
    the result is exactly [compile kb] ([carried = false]). The old
    artifact is left untouched and remains valid for the old KB. *)

(** {1 Precomputed KB structure} *)

val digest : t -> string
(** Canonical digest of the compiled KB ({!Rw_logic.Canonical.digest}),
    computed on first read. *)

val kb : t -> Syntax.formula

val disjuncts : t -> t list
(** The artifacts of the KB's top-level disjuncts [KB₁ ∨ … ∨ KB_m]
    ([m >= 2]), compiled on first read and held from then on, so their
    solves serve every later query; [[]] for a non-disjunctive KB. *)

val matches : t -> Syntax.formula -> bool
(** Structural identity with the compiled KB. Canonical digests
    identify KBs only up to alpha/AC renaming, so cache layers must
    verify this before reusing an artifact. *)

val vocab : t -> Vocab.t

val stat_index : t -> (Syntax.formula * Stat.t option) list
(** Each conjunct paired with its recognised statistical reading, in
    conjunct order — the rules engine's candidate structure. *)

val ground_inconsistent : t -> bool
val degenerate_inconsistent : t -> bool

(** {1 Solver reuse} *)

val analysis : t -> Analysis.parts
(** The KB's analysis over its own unary predicates, made once by
    {!compile}; engines widen it rather than analyse the KB again. *)

val allowed : t -> Atoms.universe -> Atoms.Set.t
(** The atoms the universal facts allow, computed once by {!compile},
    lifted to a [universe] holding the KB's predicates.
    @raise Atoms.Not_boolean where the KB's solve raises it too. *)

val solve : t -> Tolerance.t -> Solver.solution
(** The memoised maxent point of the compiled problem (its universals
    and statistics) over the KB's own atoms — the only solve an engine
    runs. Cached [Infeasible]/[Unsupported]/[Not_boolean] outcomes are
    re-raised, so failure behaviour matches a direct solve; a solve cut
    short by a budget expiry leaves its cell empty. Engines read
    [Solver.lift (solve t tol) universe], so a warm query does no
    solver work. *)

val profile_table : t -> n:int -> tol:Tolerance.t -> Profile.table option
(** Memoised {!Rw_unary.Profile.stat_table} of the compiled analysis;
    [None] outside the fragment or when the table is not precomputable
    (statistics mentioning constants, or too many satisfying profiles
    to store). It counts the KB's own atoms, so it serves only queries
    that add no predicate. *)

(** {1 Observability} *)

val compile_ms : t -> float
(** Milliseconds on the monotonic clock spent in {!compile} (or
    {!update}); solves are not included. *)

val use : t -> int
(** Record one consumption of the artifact and return the {e previous}
    use count — 0 means this is the artifact's first answer (its
    solves are fresh), >0 means its filled cells are reused. *)

val entropy_profile : t -> (Tolerance.t * float option) list
(** Entropy of the maxent point at each {!default_schedule} tolerance
    ([None] where infeasible); [[]] outside the unary fragment. Solves
    (and so fills) every cell not yet solved. *)

type stats = {
  digest : string;
  conjunct_count : int;
  stat_count : int;
  atoms : int option;
  constants : int;
  presolved : int;  (** solve cells filled with a maxent point so far *)
  infeasible : int;  (** solve cells filled with an infeasibility *)
  tables : int;
  solve_hits : int;
  solve_misses : int;
  table_hits : int;
  table_misses : int;
  compile_ms : float;
  uses : int;
}

val stats : t -> stats
