(** Maximum-entropy solutions for unary knowledge bases (Section 6).

    The concentration phenomenon: the number of size-[N] worlds with
    atom proportions [p̄] grows as [e^{N·H(p̄)}], so almost all
    KB-worlds sit near the maximum-entropy point of the constraint set
    [S(KB)], and degrees of belief about individuals are read off that
    point, conditioned on each individual's known facts. *)

open Rw_logic
open Rw_numeric

type solution = {
  parts : Analysis.parts;
  tol : Tolerance.t;
  point : Vec.t;  (** maximum-entropy atom proportions *)
  entropy : float;
  max_violation : float;
}

exception Infeasible of float
(** No atom-proportion vector satisfies the constraints at the given
    tolerance — the unary notion of an inconsistent KB (cf. Poole's
    partition, Section 5.5). Carries the residual. *)

val feasibility_threshold : float

val solve : Analysis.parts -> Tolerance.t -> solution
(** @raise Infeasible when the constraints cannot be met.
    @raise Constraints.Unsupported outside the linear fragment. *)

val lift : solution -> Atoms.universe -> solution
(** The maxent point over a [universe] adding [k] predicates: each
    atom gets its projection's mass ({!Atoms.project}) over [2^k], and
    the entropy gains [k·ln 2]. Exact, as no constraint reads an added
    predicate: averaging a feasible point over each projection fibre
    keeps it feasible and, entropy being strictly concave, raises its
    entropy, so the maximum is fibre-uniform, where the problem is the
    original plus [k·ln 2]. [sol] itself when [k = 0]. *)

val mass : solution -> Atoms.Set.t -> float
(** [Σ_{A ∈ set} p*_A]. *)

val conditional : solution -> num:Atoms.Set.t -> den:Atoms.Set.t -> float option
(** [mass (num∩den) / mass den], or [None] when the denominator carries
    no mass. *)

val conditional_distribution :
  solution -> given:Atoms.Set.t -> (int * float) list option
(** The distribution of a named individual's atom given its known
    facts: the maxent proportions restricted and renormalised to
    [given]; [None] only when [given] has zero mass at the point. This
    one read-off serves every degree of belief about constants, a
    vanishing (but positive) conditioning mass included. *)

val consistent_at : Analysis.parts -> Tolerance.t -> bool
(** Is the KB satisfiable as a constraint system at this tolerance? *)
