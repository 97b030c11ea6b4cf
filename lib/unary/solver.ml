(** Maximum-entropy solutions for unary knowledge bases (Section 6).

    The concentration phenomenon: the number of size-[N] worlds with
    atom proportions [p̄] grows as [e^{N·H(p̄)}], so almost all worlds
    satisfying the KB sit near the maximum-entropy point of the
    constraint set [S(KB)]. Degrees of belief about individuals are
    read off that point:

    [Pr_∞(φ(c) | KB) = (Σ_{A ⊨ φ ∧ facts(c)} p*_A) / (Σ_{A ⊨ facts(c)} p*_A)]

    evaluated in the limit of the tolerance schedule. *)

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
(** Raised when no atom-proportion vector satisfies the constraints at
    the given tolerance — the unary notion of an inconsistent KB (cf.
    Poole's lottery partition, Section 5.5). Carries the residual. *)

let feasibility_threshold = 2e-6

(** [solve parts tol] maximises entropy subject to the KB's constraints
    at tolerance [tol].

    @raise Infeasible when the constraints cannot be met.
    @raise Constraints.Unsupported when the KB is outside the linear
    fragment. *)
let solve (parts : Analysis.parts) tol =
  let dim = Atoms.num_atoms parts.Analysis.universe in
  let cs = Constraints.of_parts parts tol in
  let r = Entropy_opt.solve ~dim cs in
  if r.Entropy_opt.max_violation > feasibility_threshold then
    raise (Infeasible r.Entropy_opt.max_violation)
  else
    {
      parts;
      tol;
      point = r.Entropy_opt.point;
      entropy = r.Entropy_opt.entropy;
      max_violation = r.Entropy_opt.max_violation;
    }

(** [mass sol set] is [Σ_{A ∈ set} p*_A]. *)
let mass sol set =
  List.fold_left
    (fun acc a -> acc +. sol.point.(a))
    0.0
    (Atoms.members sol.parts.Analysis.universe set)

(** [conditional sol ~num ~den] is [mass num∩den / mass den], or [None]
    when the denominator carries no mass (conditioning on a
    vanishing-probability event needs the finer finite-[N] analysis —
    see {!val:conditional_refined}). *)
let conditional sol ~num ~den =
  let m_den = mass sol den in
  if m_den <= 0.0 then None else Some (mass sol (Atoms.Set.inter num den) /. m_den)

(** [conditional_refined parts tol ~num ~den] handles conditioning on a
    set whose maxent mass vanishes (e.g. the Nixon diamond's
    Quaker∧Republican overlap under a smallness constraint): re-solve
    the maxent problem *restricted* to maximising the conditional mass
    structure by solving with an additional tiny floor on the
    denominator set, then reading the ratio. The floor cancels in the
    ratio as it tends to 0; we evaluate at a fixed small floor well
    below the tolerances in play.

    Returns [None] when even the floored problem is infeasible. *)
let conditional_refined (parts : Analysis.parts) tol ~num ~den ~floor =
  let u = parts.Analysis.universe in
  let dim = Atoms.num_atoms u in
  let cs = Constraints.of_parts parts tol in
  (* Add: mass(den) ≥ floor, i.e. −Σ_{A∈den} p_A ≤ −floor. *)
  let den_coeffs = Vec.create dim 0.0 in
  List.iter (fun a -> den_coeffs.(a) <- -1.0) (Atoms.members u den);
  let cs = Entropy_opt.Le (den_coeffs, -.floor) :: cs in
  let r = Entropy_opt.solve ~dim cs in
  if r.Entropy_opt.max_violation > feasibility_threshold then None
  else begin
    let p = r.Entropy_opt.point in
    let m set =
      List.fold_left (fun acc a -> acc +. p.(a)) 0.0 (Atoms.members u set)
    in
    let m_den = m den in
    if m_den <= 0.0 then None else Some (m (Atoms.Set.inter num den) /. m_den)
  end

(** [belief_in_pred ?facts parts tol ~query_set ~given_set] — the
    degree of belief that an individual whose known facts select
    [given_set] satisfies [query_set], at tolerance [tol]; falls back
    to the refined computation when [given_set] has vanishing mass. *)
let belief parts tol ~query_set ~given_set =
  let sol = solve parts tol in
  match conditional sol ~num:query_set ~den:given_set with
  | Some v when mass sol given_set > 1e-6 -> Some v
  | _ ->
    (* The given set carries (almost) no mass at the maxent point:
       condition via a vanishing floor. *)
    let floor = 1e-7 in
    conditional_refined parts tol ~num:query_set ~den:given_set ~floor

(** [conditional_distribution ?solve parts tol ~given] is the
    distribution of a named individual's atom given that its known
    facts select the atom set [given]: the maxent proportions
    restricted and normalised to [given]. Falls back to the floored
    re-solve when [given] has vanishing mass. Returns an association
    list over the atoms of [given]; [None] when conditioning is
    impossible.

    [solve] supplies the unconditioned maxent solve (a compiled KB
    passes its memoised one); the default re-solves from scratch. The
    floored fallback is query-dependent and always solves fresh. *)
let conditional_distribution ?solve:solve_hook (parts : Analysis.parts) tol
    ~given =
  let u = parts.Analysis.universe in
  let atoms = Atoms.members u given in
  let of_point p =
    let m = List.fold_left (fun acc a -> acc +. p.(a)) 0.0 atoms in
    if m <= 0.0 then None
    else Some (List.map (fun a -> (a, p.(a) /. m)) atoms)
  in
  let sol =
    match solve_hook with Some f -> f tol | None -> solve parts tol
  in
  if mass sol given > 1e-6 then of_point sol.point
  else begin
    (* Vanishing-mass conditioning: floor the given set and re-solve. *)
    let dim = Atoms.num_atoms u in
    let cs = Constraints.of_parts parts tol in
    let den_coeffs = Vec.create dim 0.0 in
    List.iter (fun a -> den_coeffs.(a) <- -1.0) atoms;
    let cs = Entropy_opt.Le (den_coeffs, -1e-7) :: cs in
    let r = Entropy_opt.solve ~dim cs in
    if r.Entropy_opt.max_violation > feasibility_threshold then None
    else of_point r.Entropy_opt.point
  end

(** [consistent_at parts tol] — is the KB satisfiable (as a constraint
    system) at this tolerance? The unary form of the paper's "eventual
    consistency" at a given [τ̄]. *)
let consistent_at parts tol =
  match solve parts tol with
  | (_ : solution) -> true
  | exception Infeasible _ -> false
