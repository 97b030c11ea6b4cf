(** Abstract syntax of the statistical language [L≈] (Section 4.1 of the
    paper).

    [L≈] is first-order logic with equality, extended with *proportion
    expressions*: [||φ||_X] denotes the fraction of |X|-tuples of domain
    elements satisfying [φ], and the conditional form [||φ | θ||_X]
    denotes the fraction among those satisfying [θ]. Proportion
    expressions are closed under addition and multiplication and are
    compared with the approximate connectives [≈_i] ("i-approximately
    equal") and [⪯_i] ("i-approximately at most"), each interpreted with
    its own tolerance [τ_i].

    Defaults are represented statistically: "Birds typically fly" is
    [||Fly(x) | Bird(x)||_x ≈_i 1].

    Variables appearing in the subscript of a proportion expression are
    bound by it (the paper treats [||·||_X] as a quantifier). *)

(** First-order terms. Constants are nullary function applications, so
    [Const c] below is sugar for [Fn (c, [])]. *)
type term = Var of string | Fn of string * term list

(** The approximate comparison connectives. The [int] is the subscript
    [i] selecting the tolerance [τ_i]; different subscripts let a
    knowledge base keep independent tolerances for independent
    measurements (Section 4.1). *)
type comparison =
  | Approx_eq of int  (** [ζ ≈_i ζ'] — within [τ_i] of each other *)
  | Approx_le of int  (** [ζ ⪯_i ζ'] — [ζ ≤ ζ' + τ_i] *)

type proportion =
  | Num of float  (** rational constant *)
  | Prop of formula * string list  (** [||φ||_X] *)
  | Cond of formula * formula * string list  (** [||φ | θ||_X] *)
  | Add of proportion * proportion
  | Mul of proportion * proportion

and formula =
  | True
  | False
  | Pred of string * term list  (** predicate application *)
  | Eq of term * term  (** term equality *)
  | Not of formula
  | And of formula * formula
  | Or of formula * formula
  | Implies of formula * formula  (** material implication [⇒] *)
  | Iff of formula * formula
  | Forall of string * formula
  | Exists of string * formula
  | Compare of proportion * comparison * proportion
      (** proportion formula [ζ ≈_i ζ'] or [ζ ⪯_i ζ'] *)

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                 *)
(* ------------------------------------------------------------------ *)

let var x = Var x
let const c = Fn (c, [])
let fn f args = Fn (f, args)
let pred p args = Pred (p, args)

(** [conj fs] is the conjunction of a list ([True] when empty). *)
let conj = function
  | [] -> True
  | f :: rest -> List.fold_left (fun acc g -> And (acc, g)) f rest

(** [disj fs] is the disjunction of a list ([False] when empty). *)
let disj = function
  | [] -> False
  | f :: rest -> List.fold_left (fun acc g -> Or (acc, g)) f rest

(** [disjuncts f] flattens an [Or] tree, left to right; a formula that
    is not a disjunction is its own single disjunct. *)
let rec disjuncts = function
  | Or (f, g) -> disjuncts f @ disjuncts g
  | f -> [ f ]

(** [approx_eq ~i z z'] builds [z ≈_i z']. *)
let approx_eq ~i z z' = Compare (z, Approx_eq i, z')

(** [approx_le ~i z z'] builds [z ⪯_i z']. *)
let approx_le ~i z z' = Compare (z, Approx_le i, z')

(** [default ~i body given x] encodes the default "[given]s are
    typically [body]s" as [||body | given||_x ≈_i 1] (Section 4.3). *)
let default ~i body given xs = approx_eq ~i (Cond (body, given, xs)) (Num 1.0)

(** [neg_default ~i body given xs] encodes "[given]s typically are not
    [body]" as [||body | given||_x ≈_i 0]. *)
let neg_default ~i body given xs = approx_eq ~i (Cond (body, given, xs)) (Num 0.0)

(** [in_interval ~il ~ih z lo hi] encodes
    [lo ⪯_il z  ∧  z ⪯_ih hi]. *)
let in_interval ~il ~ih z lo hi =
  And (approx_le ~i:il (Num lo) z, approx_le ~i:ih z (Num hi))

(* [exists_unique] is defined after substitution, below. *)

(* ------------------------------------------------------------------ *)
(* Free variables                                                     *)
(* ------------------------------------------------------------------ *)

module Sset = Set.Make (String)

let rec term_vars = function
  | Var x -> Sset.singleton x
  | Fn (_, args) ->
    List.fold_left (fun acc t -> Sset.union acc (term_vars t)) Sset.empty args

let rec free_vars_formula = function
  | True | False -> Sset.empty
  | Pred (_, args) ->
    List.fold_left (fun acc t -> Sset.union acc (term_vars t)) Sset.empty args
  | Eq (t1, t2) -> Sset.union (term_vars t1) (term_vars t2)
  | Not f -> free_vars_formula f
  | And (f, g) | Or (f, g) | Implies (f, g) | Iff (f, g) ->
    Sset.union (free_vars_formula f) (free_vars_formula g)
  | Forall (x, f) | Exists (x, f) -> Sset.remove x (free_vars_formula f)
  | Compare (z1, _, z2) -> Sset.union (free_vars_prop z1) (free_vars_prop z2)

and free_vars_prop = function
  | Num _ -> Sset.empty
  | Prop (f, xs) -> Sset.diff (free_vars_formula f) (Sset.of_list xs)
  | Cond (f, g, xs) ->
    Sset.diff
      (Sset.union (free_vars_formula f) (free_vars_formula g))
      (Sset.of_list xs)
  | Add (z1, z2) | Mul (z1, z2) -> Sset.union (free_vars_prop z1) (free_vars_prop z2)

(** [free_vars f] is the list of free variables, sorted. *)
let free_vars f = Sset.elements (free_vars_formula f)

(** [is_closed f] holds when [f] is a sentence. *)
let is_closed f = Sset.is_empty (free_vars_formula f)

(* ------------------------------------------------------------------ *)
(* Substitution                                                       *)
(* ------------------------------------------------------------------ *)

(* All variables (free and bound) of a formula — used for freshness. *)
let rec all_vars_formula = function
  | True | False -> Sset.empty
  | Pred (_, args) ->
    List.fold_left (fun acc t -> Sset.union acc (term_vars t)) Sset.empty args
  | Eq (t1, t2) -> Sset.union (term_vars t1) (term_vars t2)
  | Not f -> all_vars_formula f
  | And (f, g) | Or (f, g) | Implies (f, g) | Iff (f, g) ->
    Sset.union (all_vars_formula f) (all_vars_formula g)
  | Forall (x, f) | Exists (x, f) -> Sset.add x (all_vars_formula f)
  | Compare (z1, _, z2) -> Sset.union (all_vars_prop z1) (all_vars_prop z2)

and all_vars_prop = function
  | Num _ -> Sset.empty
  | Prop (f, xs) -> Sset.union (Sset.of_list xs) (all_vars_formula f)
  | Cond (f, g, xs) ->
    Sset.union (Sset.of_list xs)
      (Sset.union (all_vars_formula f) (all_vars_formula g))
  | Add (z1, z2) | Mul (z1, z2) -> Sset.union (all_vars_prop z1) (all_vars_prop z2)

let fresh_var avoid base =
  let rec go i =
    let cand = Printf.sprintf "%s_%d" base i in
    if Sset.mem cand avoid then go (i + 1) else cand
  in
  if Sset.mem base avoid then go 0 else base

let rec subst_term sigma = function
  | Var x -> ( match List.assoc_opt x sigma with Some t -> t | None -> Var x)
  | Fn (f, args) -> Fn (f, List.map (subst_term sigma) args)

(** [subst sigma f] applies the substitution [sigma] (an association
    list from variable names to terms) to the free occurrences of those
    variables in [f], renaming bound variables as needed to avoid
    capture. *)
let rec subst sigma f =
  (* Drop identity bindings and bindings for variables not free in f. *)
  let fv = free_vars_formula f in
  let sigma = List.filter (fun (x, t) -> Sset.mem x fv && t <> Var x) sigma in
  if sigma = [] then f
  else begin
    let range_vars =
      List.fold_left (fun acc (_, t) -> Sset.union acc (term_vars t)) Sset.empty sigma
    in
    let subst_binder x body rebuild =
      if List.mem_assoc x sigma && List.length sigma = 1 then f
      else begin
        let sigma' = List.remove_assoc x sigma in
        if Sset.mem x range_vars then begin
          let avoid =
            Sset.union (all_vars_formula body)
              (Sset.union range_vars (Sset.of_list (List.map fst sigma')))
          in
          let x' = fresh_var avoid x in
          rebuild x' (subst ((x, Var x') :: sigma') body)
        end
        else rebuild x (subst sigma' body)
      end
    in
    match f with
    | True | False -> f
    | Pred (p, args) -> Pred (p, List.map (subst_term sigma) args)
    | Eq (t1, t2) -> Eq (subst_term sigma t1, subst_term sigma t2)
    | Not g -> Not (subst sigma g)
    | And (g, h) -> And (subst sigma g, subst sigma h)
    | Or (g, h) -> Or (subst sigma g, subst sigma h)
    | Implies (g, h) -> Implies (subst sigma g, subst sigma h)
    | Iff (g, h) -> Iff (subst sigma g, subst sigma h)
    | Forall (x, g) -> subst_binder x g (fun x' g' -> Forall (x', g'))
    | Exists (x, g) -> subst_binder x g (fun x' g' -> Exists (x', g'))
    | Compare (z1, c, z2) -> Compare (subst_prop sigma z1, c, subst_prop sigma z2)
  end

and subst_prop sigma z =
  let fv = free_vars_prop z in
  let sigma = List.filter (fun (x, t) -> Sset.mem x fv && t <> Var x) sigma in
  if sigma = [] then z
  else begin
    let range_vars =
      List.fold_left (fun acc (_, t) -> Sset.union acc (term_vars t)) Sset.empty sigma
    in
    match z with
    | Num _ -> z
    | Add (z1, z2) -> Add (subst_prop sigma z1, subst_prop sigma z2)
    | Mul (z1, z2) -> Mul (subst_prop sigma z1, subst_prop sigma z2)
    | Prop (_, xs) | Cond (_, _, xs)
      when List.exists (fun x -> Sset.mem x range_vars) xs ->
      (* Rename subscript variables clashing with the substitution
         range, then retry. *)
      let avoid =
        Sset.union (all_vars_prop z)
          (Sset.union range_vars (Sset.of_list (List.map fst sigma)))
      in
      let renaming =
        List.filter_map
          (fun x ->
            if Sset.mem x range_vars then Some (x, Var (fresh_var avoid x))
            else None)
          xs
      in
      let rename_sub x =
        match List.assoc_opt x renaming with
        | Some (Var x') -> x'
        | _ -> x
      in
      let z' =
        match z with
        | Prop (f, xs) -> Prop (subst renaming f, List.map rename_sub xs)
        | Cond (f, g, xs) ->
          Cond (subst renaming f, subst renaming g, List.map rename_sub xs)
        | _ -> assert false
      in
      subst_prop sigma z'
    | Prop (f, xs) ->
      let sigma' = List.filter (fun (x, _) -> not (List.mem x xs)) sigma in
      Prop (subst sigma' f, xs)
    | Cond (f, g, xs) ->
      let sigma' = List.filter (fun (x, _) -> not (List.mem x xs)) sigma in
      Cond (subst sigma' f, subst sigma' g, xs)
  end

(** [instantiate f xs ts] substitutes the terms [ts] for the variables
    [xs] simultaneously — e.g. turning [φ(x̄)] into [φ(c̄)] as in
    Theorem 5.6. *)
let instantiate f xs ts =
  if List.length xs <> List.length ts then
    invalid_arg "Syntax.instantiate: length mismatch"
  else subst (List.combine xs ts) f

(** [exists_unique x φ] encodes [∃!x φ] with equality: there is an [x]
    satisfying [φ] and any other element satisfying [φ] equals it. Used
    for the Nixon-diamond hypothesis of Theorem 5.26 and for the lottery
    knowledge base of Section 5.5. *)
let exists_unique x body =
  let avoid = Sset.add x (all_vars_formula body) in
  let x' = fresh_var avoid (x ^ "u") in
  Exists
    ( x,
      And
        (body, Forall (x', Implies (subst [ (x, Var x') ] body, Eq (Var x', Var x))))
    )

(* ------------------------------------------------------------------ *)
(* Vocabulary extraction                                              *)
(* ------------------------------------------------------------------ *)

let rec term_symbols acc = function
  | Var _ -> acc
  | Fn (f, args) ->
    List.fold_left term_symbols ((f, List.length args) :: acc) args

(** [symbols f] returns the predicate symbols and function symbols
    (with arities) occurring in [f]. Constants are arity-0 functions. *)
let symbols f =
  let rec go_f (preds, funcs) = function
    | True | False -> (preds, funcs)
    | Pred (p, args) ->
      let funcs = List.fold_left term_symbols funcs args in
      ((p, List.length args) :: preds, funcs)
    | Eq (t1, t2) -> (preds, term_symbols (term_symbols funcs t1) t2)
    | Not g -> go_f (preds, funcs) g
    | And (g, h) | Or (g, h) | Implies (g, h) | Iff (g, h) ->
      go_f (go_f (preds, funcs) g) h
    | Forall (_, g) | Exists (_, g) -> go_f (preds, funcs) g
    | Compare (z1, _, z2) -> go_p (go_p (preds, funcs) z1) z2
  and go_p (preds, funcs) = function
    | Num _ -> (preds, funcs)
    | Prop (g, _) -> go_f (preds, funcs) g
    | Cond (g, h, _) -> go_f (go_f (preds, funcs) g) h
    | Add (z1, z2) | Mul (z1, z2) -> go_p (go_p (preds, funcs) z1) z2
  in
  let preds, funcs = go_f ([], []) f in
  ( List.sort_uniq Stdlib.compare preds,
    List.sort_uniq Stdlib.compare funcs )

(** [constants f] is the sorted list of constant symbols in [f]. *)
let constants f =
  let _, funcs = symbols f in
  List.filter_map (fun (name, arity) -> if arity = 0 then Some name else None) funcs

(** [tolerance_indices f] is the sorted list of subscripts [i] of the
    approximate connectives occurring in [f] — the coordinates of the
    tolerance vector [τ̄] that matter for [f]. *)
let tolerance_indices f =
  let rec go_f acc = function
    | True | False | Pred _ | Eq _ -> acc
    | Not g -> go_f acc g
    | And (g, h) | Or (g, h) | Implies (g, h) | Iff (g, h) -> go_f (go_f acc g) h
    | Forall (_, g) | Exists (_, g) -> go_f acc g
    | Compare (z1, c, z2) ->
      let acc = (match c with Approx_eq i | Approx_le i -> i :: acc) in
      go_p (go_p acc z1) z2
  and go_p acc = function
    | Num _ -> acc
    | Prop (g, _) -> go_f acc g
    | Cond (g, h, _) -> go_f (go_f acc g) h
    | Add (z1, z2) | Mul (z1, z2) -> go_p (go_p acc z1) z2
  in
  List.sort_uniq Stdlib.compare (go_f [] f)

(** [mentions_constant c f] tests whether constant [c] occurs in [f] —
    the side condition of Theorems 5.6 and 5.16 ("no constant in c̄
    appears in KB′ …"). *)
let mentions_constant c f = List.mem c (constants f)

(** [mentions_equality f] — does [f] contain a term equality anywhere
    (including inside proportion expressions)? The unary counting
    engine cannot handle equality (elements of one atom stop being
    interchangeable), so analysis uses this to route such KBs to the
    enumeration engine. *)
let rec mentions_equality = function
  | True | False | Pred _ -> false
  | Eq _ -> true
  | Not f -> mentions_equality f
  | And (f, g) | Or (f, g) | Implies (f, g) | Iff (f, g) ->
    mentions_equality f || mentions_equality g
  | Forall (_, f) | Exists (_, f) -> mentions_equality f
  | Compare (z1, _, z2) -> prop_mentions_equality z1 || prop_mentions_equality z2

and prop_mentions_equality = function
  | Num _ -> false
  | Prop (f, _) -> mentions_equality f
  | Cond (f, g, _) -> mentions_equality f || mentions_equality g
  | Add (z1, z2) | Mul (z1, z2) ->
    prop_mentions_equality z1 || prop_mentions_equality z2

(** [max_pred_arity f] is the largest predicate arity in [f] (0 when
    none): unary knowledge bases — where the maximum-entropy engine
    applies — are exactly those with [max_pred_arity <= 1] and no
    non-constant function symbols. *)
let max_pred_arity f =
  let preds, _ = symbols f in
  List.fold_left (fun m (_, a) -> max m a) 0 preds

(** [is_unary_vocab f] recognises formulas over a unary vocabulary:
    only unary predicates and constants (Section 6's setting). *)
let is_unary_vocab f =
  let preds, funcs = symbols f in
  List.for_all (fun (_, a) -> a <= 1) preds
  && List.for_all (fun (_, a) -> a = 0) funcs

(* ------------------------------------------------------------------ *)
(* Structural equality                                                *)
(* ------------------------------------------------------------------ *)

let equal_term (a : term) (b : term) = a = b
let equal (a : formula) (b : formula) = a = b
