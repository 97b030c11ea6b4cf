(** Entropy maximisation over the probability simplex subject to linear
    constraints — the numeric core of Section 6 of the paper.

    A unary knowledge base induces linear constraints on the vector of
    atom proportions; degrees of belief concentrate at the
    maximum-entropy point of the constrained set. One solver covers
    every system: projected Newton on the convex dual, whose Hessian is
    the covariance of the constraint rows under the current point.
    [Le] rows carry non-negative multipliers, [Eq (a, 0)] rows with
    one-signed [a] pin their atoms to zero, and every other [Eq] row
    carries a free multiplier. The primal point is recovered in closed
    form, [p_A ∝ exp(−(aᵀλ)_A)] — near machine precision, which matters
    when later computations condition on sets whose mass is of the
    order of the tolerances.

    The simplex constraints ([p ≥ 0], [Σp = 1]) are implicit. *)

type constraint_ =
  | Eq of Vec.t * float  (** [a·p = b] *)
  | Le of Vec.t * float  (** [a·p ≤ b] *)

type result = {
  point : Vec.t;  (** the maximum-entropy point found *)
  entropy : float;  (** its entropy *)
  max_violation : float;  (** worst constraint violation at [point] *)
  multipliers : float array;
      (** the dual multiplier of each constraint, in order; 0 for a
          zero-pinning row, which is eliminated rather than priced *)
  iterations : int;  (** Newton iterations used *)
}

val violation : constraint_ -> Vec.t -> float
(** How far a point is from satisfying one constraint (0 when
    satisfied; equality violations are absolute values). *)

val max_violation : constraint_ list -> Vec.t -> float

val solve : dim:int -> constraint_ list -> result
(** [solve ~dim cs] maximises entropy over the simplex of dimension
    [dim] subject to [cs]. Raises [Invalid_argument] on dimension
    mismatches. An infeasible system yields a [result] with large
    [max_violation] — callers decide the threshold (see
    {!solve_feasible}). Polls [Rw_pool.Budget.check] once per
    iteration. *)

val solve_feasible : ?feas_tol:float -> dim:int -> constraint_ list -> result
(** Like {!solve} but raises [Failure] when the result violates a
    constraint by more than [feas_tol] (default [1e-7]) — for callers
    that must distinguish "inconsistent KB" from a numeric answer. *)
