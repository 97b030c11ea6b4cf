(** The asymptotic engine for unary knowledge bases: degrees of belief
    via maximum entropy (Section 6).

    By the concentration phenomenon, as [N → ∞] almost all worlds
    satisfying the KB lie near the maximum-entropy point of the
    constraint set [S(KB)], so:

    - a query about named individuals is answered from the atom
      distribution at the maxent point, conditioned on each
      individual's known facts (distinct constants are asymptotically
      independent given the atom proportions);
    - a closed statistical query holds with degree of belief 1 if the
      maxent point satisfies it (0 if it violates it).

    The outer [τ̄ → 0] limit is taken numerically over a shrinking
    tolerance schedule with Aitken extrapolation. *)

open Rw_logic
open Rw_unary
open Syntax
module Trace = Rw_trace.Trace

module Compiled_kb = Rw_compile.Compiled_kb

(* The engine's τ̄-schedule is owned by the compile subsystem, so that a
   compiled KB's eagerly pre-solved schedule and the schedule walked
   here can never drift apart. *)
let default_tols = Compiled_kb.default_schedule

exception Outside_fragment of string

(* Truth of a boolean-combination-over-constants formula, given an
   atom assignment for each constant. *)
let rec eval_const_bool u assign = function
  | True -> true
  | False -> false
  | Pred (p, [ Fn (c, []) ]) -> (
    match List.assoc_opt c assign with
    | Some a -> Atoms.atom_satisfies u a p
    | None -> raise (Outside_fragment (Printf.sprintf "constant %s unknown" c)))
  | Not f -> not (eval_const_bool u assign f)
  | And (f, g) -> eval_const_bool u assign f && eval_const_bool u assign g
  | Or (f, g) -> eval_const_bool u assign f || eval_const_bool u assign g
  | Implies (f, g) -> (not (eval_const_bool u assign f)) || eval_const_bool u assign g
  | Iff (f, g) -> eval_const_bool u assign f = eval_const_bool u assign g
  | f -> raise (Outside_fragment (Fmt.str "query conjunct %a" Pretty.pp_formula f))

(* Probability of a boolean query over constants, under independent
   per-constant atom distributions. *)
let const_query_prob u dists query =
  let rec go consts assign acc_p total =
    match consts with
    | [] -> if eval_const_bool u assign query then total +. acc_p else total
    | (c, dist) :: rest ->
      List.fold_left
        (fun total (a, p) ->
          if p <= 0.0 then total else go rest ((c, a) :: assign) (acc_p *. p) total)
        total dist
  in
  go dists [] 1.0 0.0

(* Evaluate a closed statistical formula at the maxent point: the
   concentration theorem gives degree of belief 1 to whatever holds in
   (almost) all worlds near the point. Closed quantified formulas over
   boolean bodies reduce to atom emptiness: [∀x β] holds in almost all
   KB-worlds iff every atom violating β is excluded by the universal
   facts (an atom merely carrying zero or τ-small *proportion* still
   has members in almost all large worlds); dually [∃x β] fails only
   when no allowed atom satisfies β. *)
let rec stat_truth_at_point sol tol f =
  match f with
  | True -> true
  | False -> false
  | Not g -> not (stat_truth_at_point sol tol g)
  | And (g, h) -> stat_truth_at_point sol tol g && stat_truth_at_point sol tol h
  | Or (g, h) -> stat_truth_at_point sol tol g || stat_truth_at_point sol tol h
  | Implies (g, h) ->
    (not (stat_truth_at_point sol tol g)) || stat_truth_at_point sol tol h
  | Iff (g, h) -> stat_truth_at_point sol tol g = stat_truth_at_point sol tol h
  | Forall (x, body) -> begin
    let u = sol.Solver.parts.Analysis.universe in
    match Atoms.extension_var u x body with
    | sat ->
      let allowed = Analysis.allowed_atoms sol.Solver.parts in
      Atoms.Set.subset allowed sat
    | exception Atoms.Not_boolean _ ->
      raise (Outside_fragment "quantified query with non-boolean body")
  end
  | Exists (x, body) -> begin
    let u = sol.Solver.parts.Analysis.universe in
    match Atoms.extension_var u x body with
    | sat ->
      let allowed = Analysis.allowed_atoms sol.Solver.parts in
      not (Atoms.Set.is_empty (Atoms.Set.inter allowed sat))
    | exception Atoms.Not_boolean _ ->
      raise (Outside_fragment "quantified query with non-boolean body")
  end
  | Compare (z1, cmp, z2) -> begin
    (* Solver residual slack: a query that restates a KB constraint
       sits exactly on the feasible boundary, and must not flip to
       false on numerical noise (e.g. Reflexivity, Pr(KB | KB) = 1).
       Conditional-vs-constant comparisons are tested in the same
       multiplied-out form the constraints were enforced in. *)
    let slack = 1e-5 in
    let u = sol.Solver.parts.Analysis.universe in
    let cond_vs_const f g x q =
      match
        (Atoms.extension_var u x (And (f, g)), Atoms.extension_var u x g)
      with
      | num, den ->
        let xm = Solver.mass sol num and ym = Solver.mass sol den in
        let tau = match cmp with Approx_eq i | Approx_le i -> Tolerance.get tol i in
        Some
          (match cmp with
          | Approx_eq _ -> Float.abs (xm -. (q *. ym)) <= (tau *. ym) +. slack
          | Approx_le _ -> xm <= ((q +. tau) *. ym) +. slack)
      | exception Atoms.Not_boolean _ -> None
    in
    let special =
      match (z1, z2) with
      | Cond (f, g, [ x ]), z -> (
        match prop_at_point sol z with
        | Some q -> cond_vs_const f g x q
        | None -> None)
      | z, Cond (f, g, [ x ]) -> (
        match prop_at_point sol z with
        | Some q -> (
          match cmp with
          | Approx_eq _ -> cond_vs_const f g x q
          | Approx_le _ -> (
            (* q ⪯ cond: (q − τ)·y ≤ x *)
            match
              (Atoms.extension_var u x (And (f, g)), Atoms.extension_var u x g)
            with
            | num, den ->
              let xm = Solver.mass sol num and ym = Solver.mass sol den in
              let tau = match cmp with Approx_eq i | Approx_le i -> Tolerance.get tol i in
              Some (((q -. tau) *. ym) -. slack <= xm)
            | exception Atoms.Not_boolean _ -> None))
        | None -> None)
      | _ -> None
    in
    match special with
    | Some b -> b
    | None -> (
      match (prop_at_point sol z1, prop_at_point sol z2) with
      | Some a, Some b -> (
        match cmp with
        | Approx_eq i -> Float.abs (a -. b) <= Tolerance.get tol i +. slack
        | Approx_le i -> a <= b +. Tolerance.get tol i +. slack)
      | None, _ | _, None -> true)
  end
  | f -> raise (Outside_fragment (Fmt.str "statistical query %a" Pretty.pp_formula f))

and prop_at_point sol z =
  let u = sol.Solver.parts.Analysis.universe in
  match z with
  | Num x -> Some x
  | Prop (f, [ x ]) -> (
    match Atoms.extension_var u x f with
    | set -> Some (Solver.mass sol set)
    | exception Atoms.Not_boolean _ -> raise (Outside_fragment "non-boolean proportion"))
  | Cond (f, g, [ x ]) -> (
    match (Atoms.extension_var u x (And (f, g)), Atoms.extension_var u x g) with
    | num, den ->
      let md = Solver.mass sol den in
      if md <= 0.0 then None else Some (Solver.mass sol num /. md)
    | exception Atoms.Not_boolean _ -> raise (Outside_fragment "non-boolean proportion"))
  | Prop _ | Cond _ -> raise (Outside_fragment "multi-variable proportion")
  | Add (z1, z2) -> (
    match (prop_at_point sol z1, prop_at_point sol z2) with
    | Some a, Some b -> Some (a +. b)
    | _ -> None)
  | Mul (z1, z2) -> (
    match (prop_at_point sol z1, prop_at_point sol z2) with
    | Some a, Some b -> Some (a *. b)
    | _ -> None)

(* Split a query conjunction into a part about constants and a closed
   statistical part (proportion comparisons and closed quantified
   formulas, both handled by [stat_truth_at_point]). *)
let split_query query =
  let conjuncts = Analysis.split_conjuncts query in
  List.fold_left
    (fun (consts, stats) c ->
      match c with
      | (Compare _ | Forall _ | Exists _) when Syntax.is_closed c ->
        (consts, c :: stats)
      | _ -> (c :: consts, stats))
    ([], []) conjuncts

(* Flatten a top-level disjunction of knowledge bases. *)
let rec flatten_or = function
  | Or (a, b) -> flatten_or a @ flatten_or b
  | f -> [ f ]

(** [belief_at ~kb ~query tol] — the degree of belief at one fixed
    tolerance vector. [None] when conditioning is impossible at this
    tolerance.

    A disjunctive KB [KB₁ ∨ … ∨ KB_m] is handled through the
    concentration argument: [#worlds(KB_i) ≈ e^{N·H_i}], so the
    disjuncts of maximal maximum-entropy dominate the count as
    [N → ∞]; when every dominant disjunct yields the same belief, that
    is the answer (this validates the Or rule of Theorem 5.3 — e.g.
    Example 5.4's broken-arm KB). Dominant disjuncts that disagree are
    reported as outside the fragment (the mixture weights then depend
    on sub-exponential terms this engine does not track).

    @raise Outside_fragment / [Constraints.Unsupported] when KB or
    query leave the unary fragment.
    @raise Solver.Infeasible when the KB is inconsistent at [tol]. *)
let rec belief_at ?compiled ~kb ~query tol =
  match flatten_or kb with
  | [] | [ _ ] -> belief_at_conjunctive ?compiled ~kb ~query tol
  | disjuncts -> begin
    (* Sub-KBs of a disjunction are not the compiled KB: from-scratch. *)
    let evaluated =
      List.filter_map
        (fun d ->
          match
            let parts =
              Analysis.analyze ~extra_preds:(Unary_engine.unary_preds_of query) d
            in
            if not (Analysis.fully_supported parts) then
              raise (Outside_fragment "disjunct outside the unary fragment")
            else (Solver.solve parts tol, belief_at ~kb:d ~query tol)
          with
          | sol, Some b -> Some (sol.Solver.entropy, b)
          | _, None -> None
          | exception Solver.Infeasible _ -> None (* dead disjunct *))
        disjuncts
    in
    match evaluated with
    | [] -> raise (Solver.Infeasible 1.0)
    | _ -> begin
      let hmax = List.fold_left (fun m (h, _) -> Float.max m h) neg_infinity evaluated in
      let dominant = List.filter (fun (h, _) -> h >= hmax -. 1e-9) evaluated in
      let beliefs = List.map snd dominant in
      let bmin = List.fold_left Float.min 1.0 beliefs in
      let bmax = List.fold_left Float.max 0.0 beliefs in
      if bmax -. bmin <= 1e-6 then Some bmin
      else
        raise
          (Outside_fragment
             "disjunctive KB whose dominant disjuncts disagree on the query")
    end
  end

and belief_at_conjunctive ?compiled ~kb ~query tol =
  let parts = Analysis.analyze ~extra_preds:(Unary_engine.unary_preds_of query) kb in
  if not (Analysis.fully_supported parts) then
    raise (Outside_fragment "KB outside the unary fragment")
  else begin
    (* With a compiled artifact, the unconditioned maxent solve comes
       from its memo table whenever the query's analysis matches the
       compiled one (no new predicates); incompatible queries fall back
       to a fresh solve inside [Compiled_kb.solve]. *)
    let solve tol =
      match compiled with
      | Some c -> Compiled_kb.solve c parts tol
      | None -> Solver.solve parts tol
    in
    let u = parts.Analysis.universe in
    let const_part, stat_part = split_query query in
    let stat_prob =
      if stat_part = [] then Some 1.0
      else begin
        let sol = solve tol in
        if stat_truth_at_point sol tol (conj stat_part) then Some 1.0 else Some 0.0
      end
    in
    let const_prob =
      if const_part = [] then Some 1.0
      else begin
        let query_c = conj const_part in
        let consts = Syntax.constants query_c in
        if consts = [] then raise (Outside_fragment "query mentions no constants")
        else begin
          let dists =
            List.map
              (fun c ->
                let given = Analysis.fact_atoms parts c in
                match Solver.conditional_distribution ~solve parts tol ~given with
                | Some d -> (c, d)
                | None -> raise (Solver.Infeasible 1.0))
              consts
          in
          Some (const_query_prob u dists query_c)
        end
      end
    in
    match (stat_prob, const_prob) with
    | Some a, Some b -> Some (a *. b)
    | _ -> None
  end

(* The entropy-maximum profile, for the trace only: entropy, constraint
   count, and per-atom mass at the first tolerance that solved. Runs
   exclusively when tracing is on; any failure is silently dropped —
   emission must never change the engine's verdict — except a budget
   expiry, which must reach the service to degrade the request. *)
let emit_profile tr ?compiled ~kb ~query tol =
  match
    let parts =
      Analysis.analyze ~extra_preds:(Unary_engine.unary_preds_of query) kb
    in
    let sol =
      match compiled with
      | Some c -> Compiled_kb.solve c parts tol
      | None -> Solver.solve parts tol
    in
    let u = parts.Analysis.universe in
    let n_constraints = List.length (Constraints.of_parts parts tol) in
    let atom_fields =
      List.init (Atoms.num_atoms u) (fun i ->
          ( Fmt.str "%a" (Atoms.pp_atom u) i,
            Trace.F (Solver.mass sol (Atoms.Set.of_list (Atoms.num_atoms u) [ i ]))
          ))
    in
    ("entropy", Trace.F sol.Solver.entropy)
    :: ("tol", Trace.S (Fmt.str "%a" Tolerance.pp tol))
    :: ("constraints", Trace.I n_constraints)
    :: atom_fields
  with
  | fields -> Trace.fact tr "maxent-profile" fields
  | exception (Rw_pool.Budget.Expired as e) -> raise e
  | exception _ -> ()

(** [estimate ?tols ?compiled ?trace ~kb query] — the [τ̄ → 0] limit
    over a shrinking schedule with Aitken extrapolation. [compiled]
    reuses the artifact's pre-solved maxent points; answers are
    identical with or without it. *)
let rec estimate ?(tols = default_tols) ?compiled ?trace ~kb query =
  Trace.span trace "maxent" @@ fun () ->
  let declined why =
    (match trace with
    | None -> ()
    | Some tr -> Trace.fact tr "note" [ ("declined", Trace.S why) ]);
    Answer.make ~engine:"maxent" (Answer.Not_applicable why)
  in
  try estimate_exn ~tols ~compiled ~trace ~kb query with
  | Outside_fragment why -> declined why
  | Constraints.Unsupported (why, _) -> declined why
  | Atoms.Not_boolean _ -> declined "non-boolean subformula"
  | Profile.Unsupported why -> declined why
  | Invalid_argument why -> declined why

and estimate_exn ~tols ~compiled ~trace ~kb query =
  let values =
    List.filter_map
      (fun tol ->
        match belief_at ?compiled ~kb ~query tol with
        | Some v -> Some (tol, v)
        | None -> None
        | exception Solver.Infeasible _ -> None)
      tols
  in
  (match (trace, values) with
  | Some tr, (tol0, _) :: _ ->
    emit_profile tr ?compiled ~kb ~query tol0;
    List.iter
      (fun (tol, v) ->
        Trace.fact tr "tolerance"
          [ ("tol", Trace.S (Fmt.str "%a" Tolerance.pp tol)); ("value", Trace.F v) ])
      values
  | _ -> ());
  match values with
  | [] -> (
    (* Distinguish "inconsistent" from "outside fragment". *)
    match belief_at ?compiled ~kb ~query (List.hd tols) with
    | exception Outside_fragment why ->
      Answer.make ~engine:"maxent" (Answer.Not_applicable why)
    | exception Constraints.Unsupported (why, _) ->
      Answer.make ~engine:"maxent" (Answer.Not_applicable why)
    | exception Solver.Infeasible _ -> Answer.make ~engine:"maxent" Answer.Inconsistent
    | _ -> Answer.make ~engine:"maxent" Answer.Inconsistent)
  | _ -> begin
    let notes =
      List.map (fun (tol, v) -> Fmt.str "%a -> %.6f" Tolerance.pp tol v) values
    in
    let scales = List.map (fun (tol, _) -> tol.Tolerance.scale) values in
    let vs = List.map snd values in
    (* Fixed-τ values of a well-behaved query sit within O(τ) of the
       limit, so extrapolate the τ → 0 intercept by least squares; the
       residual tells us whether the linear model (and hence the limit)
       is credible. *)
    let intercept, slope, resid = Limits.linear_intercept scales vs in
    let extrapolated = Rw_prelude.Floats.clamp01 intercept in
    let max_scale = List.fold_left Float.max 0.0 scales in
    let snap v =
      if v < 5e-3 then 0.0 else if v > 1.0 -. 5e-3 then 1.0 else v
    in
    let accepted = resid <= 2e-3 +. (0.05 *. Float.abs slope *. max_scale) in
    (match trace with
    | None -> ()
    | Some tr ->
      Trace.fact tr "extrapolation"
        [ ("method", Trace.S "least-squares tau->0 intercept");
          ("intercept", Trace.F intercept);
          ("slope", Trace.F slope);
          ("residual", Trace.F resid);
          ("accepted", Trace.B accepted)
        ]);
    if accepted then
      Answer.make ~notes ~engine:"maxent" (Answer.Point (snap extrapolated))
    else begin
      match Limits.detect ~atol:5e-3 vs with
      | Limits.Converged v -> Answer.make ~notes ~engine:"maxent" (Answer.Point (snap v))
      | Limits.Oscillating (a, b) ->
        Answer.make ~notes ~engine:"maxent"
          (Answer.No_limit (Fmt.str "oscillates between %.4f and %.4f" a b))
      | Limits.Insufficient ->
        Answer.make ~notes ~engine:"maxent"
          (Answer.Within
             (Rw_prelude.Interval.clamp01
                (Rw_prelude.Interval.widen
                   (Rw_prelude.Interval.point extrapolated)
                   (Float.max 0.05 resid))))
    end
  end
