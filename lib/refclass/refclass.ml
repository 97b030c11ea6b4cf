(** A Reichenbach-style reference-class reasoner (Section 2) — the
    baseline random worlds is compared against.

    The reasoner implements the classical pipeline:

    + collect the *candidate reference classes* for a query [P(c)]:
      statistics [||P(x) | ψ(x)|| ∈ [α,β]] whose class provably
      contains [c] (given the KB's universal facts and the facts known
      about [c]);
    + optionally exclude "gerrymandered" (disjunctive) classes — the
      restriction Kyburg and Pollock impose to block the
      [(Jaun ∧ ¬Hep) ∨ {Eric}] pathology of Section 2.2;
    + prefer more specific classes when their statistics *conflict*
      (specificity rule);
    + among the survivors apply Kyburg's *strength rule*: adopt an
      interval contained in all the others, if there is one;
    + otherwise give up and report the vacuous interval [[0,1]] —
      exactly the failure mode Section 2.3 criticises.

    The point of this module is to reproduce the baseline's behaviour,
    including its documented failures; see the benchmark harness for
    the side-by-side comparison with random worlds. *)

open Rw_prelude
open Rw_logic
open Syntax

type candidate = {
  class_formula : formula;  (** ψ(x), boolean over the class variable *)
  bounds : Interval.t;
  disjunctive : bool;  (** syntactically contains a disjunction *)
}

type outcome = {
  value : Interval.t;
  chosen : candidate option;  (** the class whose statistics were used *)
  reason : string;
}

let rec syntactically_disjunctive = function
  | Or _ -> true
  | Iff _ | Implies _ -> true (* hidden disjunctions *)
  | Not f -> syntactically_hides_conj f
  | And (f, g) -> syntactically_disjunctive f || syntactically_disjunctive g
  | _ -> false

and syntactically_hides_conj = function
  | And _ -> true
  | Not f -> syntactically_disjunctive f
  | Or (f, g) -> syntactically_hides_conj f || syntactically_hides_conj g
  | _ -> false

(* Reuse the rule engine's statistics recognition: conjuncts of the
   form bound-on-conditional. *)
let stat_of_conjunct = function
  | Compare (Cond (f, g, [ x ]), Approx_eq _, Num v)
  | Compare (Num v, Approx_eq _, Cond (f, g, [ x ])) ->
    Some (f, g, x, Interval.point v)
  | Compare (Cond (f, g, [ x ]), Approx_le _, Num v) ->
    Some (f, g, x, Interval.make 0.0 (Floats.clamp01 v))
  | Compare (Num v, Approx_le _, Cond (f, g, [ x ])) ->
    Some (f, g, x, Interval.make (Floats.clamp01 v) 1.0)
  | _ -> None

(** [infer ?allow_disjunctive ~kb ~query_pred ~individual ()] runs the
    reference-class pipeline for the query [query_pred(individual)].
    With [allow_disjunctive:true] (default [false], matching
    Kyburg/Pollock) gerrymandered classes participate — exposing the
    Section 2.2 pathology. *)
let infer ?(allow_disjunctive = false) ~kb ~query_pred ~individual () =
  let conjuncts = Rw_unary.Analysis.split_conjuncts kb in
  (* Atom universe over all unary predicates; universal facts → theory;
     boolean facts about the individual. *)
  let parts = Rw_unary.Analysis.analyze ~extra_preds:[ query_pred ] kb in
  let u = parts.Rw_unary.Analysis.universe in
  let x = "x_rc" in
  let theory = Rw_unary.Analysis.allowed_atoms parts in
  let known =
    conj
      (List.filter_map
         (fun f ->
           if
             Syntax.constants f = [ individual ]
             && Atoms.is_boolean_over u ~subject:(Fn (individual, [])) f
           then Some (Rw_unary.Analysis.split_conjuncts f |> conj
                      |> fun g ->
                      (* abstract the constant to the class variable *)
                      let rec abs = function
                        | Pred (p, [ Fn (c, []) ]) when c = individual ->
                          Pred (p, [ Var x ])
                        | Pred _ as g -> g
                        | True -> True
                        | False -> False
                        | Not g -> Not (abs g)
                        | And (g, h) -> And (abs g, abs h)
                        | Or (g, h) -> Or (abs g, abs h)
                        | Implies (g, h) -> Implies (abs g, abs h)
                        | Iff (g, h) -> Iff (abs g, abs h)
                        | g -> g
                      in
                      abs g)
           else None)
         conjuncts)
  in
  (* Candidate classes: statistics about query_pred whose class is
     known to contain the individual. *)
  let candidates =
    List.filter_map
      (fun f ->
        match stat_of_conjunct f with
        | Some (target, cls, y, bounds) -> begin
          match target with
          | Pred (p, [ Var ty ]) when p = query_pred && ty = y ->
            let cls_x = subst [ (y, Var x) ] cls in
            if
              Atoms.is_boolean_over u ~subject:(Var x) cls_x
              && Atoms.entails ~theory u x known cls_x
            then
              Some
                {
                  class_formula = cls_x;
                  bounds;
                  disjunctive = syntactically_disjunctive cls_x;
                }
            else None
          | _ -> None
        end
        | None -> None)
      conjuncts
  in
  (* Merge the bounds of candidates describing the same class (interval
     chains like [0.7 ⪯ z ⪯ 0.8] arrive as two conjuncts). *)
  let candidates =
    List.fold_left
      (fun acc c ->
        let rec insert = function
          | [] -> [ c ]
          | d :: rest when Unify.alpha_ac_equal d.class_formula c.class_formula -> (
            match Interval.inter d.bounds c.bounds with
            | Some b -> { d with bounds = b } :: rest
            | None -> d :: rest)
          | d :: rest -> d :: insert rest
        in
        insert acc)
      [] candidates
  in
  let candidates =
    if allow_disjunctive then candidates
    else List.filter (fun c -> not c.disjunctive) candidates
  in
  match candidates with
  | [] -> { value = Interval.vacuous; chosen = None; reason = "no reference class" }
  | [ c ] ->
    { value = c.bounds; chosen = Some c; reason = "single reference class" }
  | _ -> begin
    (* Specificity: drop a class when a strictly more specific
       candidate disagrees with it (its interval is not a superset). *)
    let more_specific a b =
      Atoms.entails ~theory u x a.class_formula b.class_formula
      && not (Atoms.entails ~theory u x b.class_formula a.class_formula)
    in
    let survives c =
      not
        (List.exists
           (fun d ->
             more_specific d c
             && not (Interval.subset c.bounds d.bounds)
             && not (Interval.subset d.bounds c.bounds))
           candidates)
    in
    let surviving = List.filter survives candidates in
    (* Among survivors, a most-specific class whose statistics everyone
       nested agrees with. *)
    let minimal =
      List.filter
        (fun c ->
          List.for_all
            (fun d -> c == d || not (more_specific d c))
            surviving)
        surviving
    in
    match minimal with
    | [ c ] when List.for_all (fun d -> d == c || not (more_specific c d) ||
                                        Interval.subset d.bounds c.bounds ||
                                        Interval.subset c.bounds d.bounds)
                   surviving -> begin
      (* Kyburg's strength rule: a *less* specific class with a tighter
         interval nested in ours overrides it. *)
      let tighter =
        List.filter
          (fun d -> d != c && Interval.subset d.bounds c.bounds)
          surviving
      in
      match tighter with
      | d :: _ ->
        { value = d.bounds; chosen = Some d; reason = "strength rule" }
      | [] ->
        { value = c.bounds; chosen = Some c; reason = "most specific class" }
    end
    | _ -> begin
      (* Kyburg's strength rule still fires on incomparable classes
         when one interval is contained in all the others — including
         the degenerate case of identical intervals (footnote 14's
         Republican banker: both classes say 0.2, Kyburg says 0.2,
         while random worlds combines them to δ(0.2, 0.2) < 0.2). *)
      let nested c =
        List.for_all (fun d -> Interval.subset c.bounds d.bounds) surviving
      in
      match List.find_opt nested surviving with
      | Some c ->
        { value = c.bounds; chosen = Some c; reason = "strength rule" }
      | None ->
        {
          value = Interval.vacuous;
          chosen = None;
          reason = "competing incomparable reference classes";
        }
    end
  end
