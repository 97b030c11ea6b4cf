(** Formula matching modulo alpha-renaming of bound variables and
    associativity/commutativity of the symmetric connectives.

    The syntactic rule engine (Theorems 5.6, 5.16, 5.23, 5.26) must
    recognise that a knowledge base contains a statistic "about"
    [||φ(x̄) | ψ(x̄)||]: the KB author may have written the conjuncts
    in a different order, or used different bound-variable names. This
    module decides that equivalence — deliberately *syntactic* (no
    logical reasoning beyond AC and alpha), so the rule engine's
    hypotheses stay checkable and honest. *)

open Syntax

(* The environment pairs bound variables of the left formula with
   bound variables of the right; lookups take the most recent binding
   (shadowing). *)

let var_matches env x y =
  let rec go = function
    | [] -> x = y (* both free *)
    | (l, r) :: rest ->
      if l = x then r = y
      else if r = y then false (* y is bound on the right but x isn't its partner *)
      else go rest
  in
  go env

let rec term_eq env t u =
  match (t, u) with
  | Var x, Var y -> var_matches env x y
  | Fn (f, ts), Fn (g, us) ->
    f = g && List.length ts = List.length us && List.for_all2 (term_eq env) ts us
  | Var _, Fn _ | Fn _, Var _ -> false

let rec flatten_and = function
  | And (a, b) -> flatten_and a @ flatten_and b
  | f -> [ f ]

(* Backtracking multiset matching: each element of [fs] pairs with a
   distinct element of [gs]. *)
let rec ac_match eq env fs gs =
  match fs with
  | [] -> gs = []
  | f :: rest ->
    let rec try_pick seen = function
      | [] -> false
      | g :: more ->
        (eq env f g && ac_match eq env rest (List.rev_append seen more))
        || try_pick (g :: seen) more
    in
    try_pick [] gs

let rec formula_eq env f g =
  match (f, g) with
  | True, True | False, False -> true
  | Pred (p, ts), Pred (q, us) ->
    p = q && List.length ts = List.length us && List.for_all2 (term_eq env) ts us
  | Eq (a, b), Eq (c, d) ->
    (term_eq env a c && term_eq env b d) || (term_eq env a d && term_eq env b c)
  | Not a, Not b -> formula_eq env a b
  | And _, And _ -> ac_match formula_eq env (flatten_and f) (flatten_and g)
  | Or _, Or _ -> ac_match formula_eq env (disjuncts f) (disjuncts g)
  | Implies (a, b), Implies (c, d) -> formula_eq env a c && formula_eq env b d
  | Iff (a, b), Iff (c, d) ->
    (formula_eq env a c && formula_eq env b d)
    || (formula_eq env a d && formula_eq env b c)
  | Forall (x, a), Forall (y, b) | Exists (x, a), Exists (y, b) ->
    formula_eq ((x, y) :: env) a b
  | Compare (z1, c1, z2), Compare (w1, c2, w2) -> begin
    match (c1, c2) with
    | Approx_eq i, Approx_eq j ->
      i = j
      && ((prop_eq env z1 w1 && prop_eq env z2 w2)
         || (prop_eq env z1 w2 && prop_eq env z2 w1))
    | Approx_le i, Approx_le j ->
      i = j && prop_eq env z1 w1 && prop_eq env z2 w2
    | _ -> false
  end
  | _ -> false

and prop_eq env z w =
  match (z, w) with
  | Num a, Num b -> a = b
  | Prop (f, xs), Prop (g, ys) ->
    List.length xs = List.length ys
    && formula_eq (List.combine xs ys @ env) f g
  | Cond (f1, f2, xs), Cond (g1, g2, ys) ->
    List.length xs = List.length ys
    && begin
         let env' = List.combine xs ys @ env in
         formula_eq env' f1 g1 && formula_eq env' f2 g2
       end
  | Add (a, b), Add (c, d) ->
    (prop_eq env a c && prop_eq env b d) || (prop_eq env a d && prop_eq env b c)
  | Mul (a, b), Mul (c, d) ->
    (prop_eq env a c && prop_eq env b d) || (prop_eq env a d && prop_eq env b c)
  | _ -> false

(** [alpha_ac_equal f g] — are [f] and [g] identical modulo bound
    variable names and AC of [∧], [∨], [⟺], [=], [≈], [+], [×]? *)
let alpha_ac_equal f g = formula_eq [] f g

(** [prop_alpha_ac_equal z w] — likewise for proportion expressions. *)
let prop_alpha_ac_equal z w = prop_eq [] z w
