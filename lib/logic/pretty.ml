(** Pretty-printing of [L≈] formulas in the library's concrete syntax.

    The printed form is re-parseable by {!Parser}: the parser/printer
    pair round-trips (checked by property tests). The concrete syntax:

    {v
      ~f        negation                 f /\ g    conjunction
      f \/ g    disjunction              f => g    implication
      f <=> g   biconditional            t = t'    equality
      forall x (f)   exists x (f)        true  false
      ||f||_x   ||f | g||_{x,y}          proportion expressions
      z ~=_i z'      approximately equal (tolerance i)
      z <=_i z'      approximately at most
      z + z'   z * z'                    proportion arithmetic
    v} *)

open Syntax

let rec pp_term ppf = function
  | Var x -> Fmt.string ppf x
  | Fn (c, []) -> Fmt.string ppf c
  | Fn (f, args) ->
    Fmt.pf ppf "%s(%a)" f Fmt.(list ~sep:(any ", ") pp_term) args

let pp_subscript ppf = function
  | [ x ] -> Fmt.pf ppf "_%s" x
  | xs -> Fmt.pf ppf "_{%a}" Fmt.(list ~sep:(any ",") string) xs

let pp_comparison ppf = function
  | Approx_eq i -> Fmt.pf ppf "~=_%d" i
  | Approx_le i -> Fmt.pf ppf "<=_%d" i

(* Precedence levels for formulas, loosest to tightest:
   1 iff, 2 implies, 3 or, 4 and, 5 not/quantifier/atom. *)
let rec pp_formula_prec prec ppf f =
  let paren p body =
    if prec > p then Fmt.pf ppf "(%t)" body else body ppf
  in
  match f with
  | True -> Fmt.string ppf "true"
  | False -> Fmt.string ppf "false"
  | Pred (p, []) -> Fmt.string ppf p
  | Pred (p, args) ->
    Fmt.pf ppf "%s(%a)" p Fmt.(list ~sep:(any ", ") pp_term) args
  | Eq (t1, t2) -> Fmt.pf ppf "%a = %a" pp_term t1 pp_term t2
  | Not (Eq (t1, t2)) -> Fmt.pf ppf "%a != %a" pp_term t1 pp_term t2
  | Not g -> Fmt.pf ppf "~%a" (pp_formula_prec 5) g
  | And (g, h) ->
    paren 4 (fun ppf ->
        Fmt.pf ppf "%a /\\ %a" (pp_formula_prec 4) g (pp_formula_prec 5) h)
  | Or (g, h) ->
    paren 3 (fun ppf ->
        Fmt.pf ppf "%a \\/ %a" (pp_formula_prec 3) g (pp_formula_prec 4) h)
  | Implies (g, h) ->
    paren 2 (fun ppf ->
        Fmt.pf ppf "%a => %a" (pp_formula_prec 3) g (pp_formula_prec 2) h)
  | Iff (g, h) ->
    paren 1 (fun ppf ->
        Fmt.pf ppf "%a <=> %a" (pp_formula_prec 2) g (pp_formula_prec 1) h)
  | Forall (x, g) -> Fmt.pf ppf "forall %s (%a)" x (pp_formula_prec 0) g
  | Exists (x, g) -> Fmt.pf ppf "exists %s (%a)" x (pp_formula_prec 0) g
  | Compare (z1, c, z2) ->
    paren 4 (fun ppf ->
        Fmt.pf ppf "%a %a %a" (pp_prop_prec 0) z1 pp_comparison c
          (pp_prop_prec 0) z2)

(* Proportion precedence: 0 additive, 1 multiplicative, 2 atomic. *)
and pp_prop_prec prec ppf z =
  let paren p body = if prec > p then Fmt.pf ppf "(%t)" body else body ppf in
  match z with
  | Num x ->
    (* Print floats so they re-parse to the same value: integral values
       without a trailing dot, others with the shortest decimal
       representation that round-trips. *)
    if Float.is_integer x && Float.abs x < 1e15 then
      Fmt.pf ppf "%d" (int_of_float x)
    else Fmt.string ppf (Rw_prelude.Floats.shortest_repr x)
  | Prop (f, xs) ->
    Fmt.pf ppf "||%a||%a" (pp_formula_prec 0) f pp_subscript xs
  | Cond (f, g, xs) ->
    Fmt.pf ppf "||%a | %a||%a" (pp_formula_prec 0) f (pp_formula_prec 0) g
      pp_subscript xs
  | Add (z1, z2) ->
    paren 0 (fun ppf ->
        Fmt.pf ppf "%a + %a" (pp_prop_prec 0) z1 (pp_prop_prec 1) z2)
  | Mul (z1, z2) ->
    paren 1 (fun ppf ->
        Fmt.pf ppf "%a * %a" (pp_prop_prec 1) z1 (pp_prop_prec 2) z2)

let pp_formula ppf f = pp_formula_prec 0 ppf f
let pp_proportion ppf z = pp_prop_prec 0 ppf z

let term_to_string t = Fmt.str "%a" pp_term t
let to_string f = Fmt.str "%a" pp_formula f
let proportion_to_string z = Fmt.str "%a" pp_proportion z
