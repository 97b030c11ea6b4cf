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

(** [lift sol universe] — the maxent point over a wider universe: the
    added predicates are uniform and independent of the rest. *)
let lift sol universe =
  let narrow = sol.parts.Analysis.universe in
  let k = Atoms.num_preds universe - Atoms.num_preds narrow in
  if k = 0 then sol
  else
    let proj = Atoms.project universe ~onto:narrow in
    {
      sol with
      parts = { sol.parts with Analysis.universe };
      point =
        Array.init (Atoms.num_atoms universe) (fun a ->
            Float.ldexp sol.point.(proj a) (-k));
      entropy = sol.entropy +. (float_of_int k *. Float.log 2.0);
    }

(** [mass sol set] is [Σ_{A ∈ set} p*_A]. *)
let mass sol set =
  List.fold_left
    (fun acc a -> acc +. sol.point.(a))
    0.0
    (Atoms.members sol.parts.Analysis.universe set)

(** [conditional sol ~num ~den] is [mass num∩den / mass den], or [None]
    when the denominator carries no mass. *)
let conditional sol ~num ~den =
  let m_den = mass sol den in
  if m_den <= 0.0 then None else Some (mass sol (Atoms.Set.inter num den) /. m_den)

(** [conditional_distribution sol ~given] is the distribution of a
    named individual's atom given that its known facts select the atom
    set [given]: the maxent proportions restricted and normalised to
    [given], as an association list over the atoms of [given]; [None]
    when [given] has no mass at the point. A vanishing but positive
    mass is read off as it stands: the closed-form primal of
    {!Rw_numeric.Entropy_opt.solve} resolves it to near machine
    precision. *)
let conditional_distribution sol ~given =
  let p = sol.point in
  let atoms = Atoms.members sol.parts.Analysis.universe given in
  let m = List.fold_left (fun acc a -> acc +. p.(a)) 0.0 atoms in
  if m <= 0.0 then None else Some (List.map (fun a -> (a, p.(a) /. m)) atoms)

(** [consistent_at parts tol] — is the KB satisfiable (as a constraint
    system) at this tolerance? The unary form of the paper's "eventual
    consistency" at a given [τ̄]. *)
let consistent_at parts tol =
  match solve parts tol with
  | (_ : solution) -> true
  | exception Infeasible _ -> false
