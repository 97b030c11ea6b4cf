(** Abstract syntax of the statistical language [L≈] (Section 4.1 of
    the paper).

    [L≈] is first-order logic with equality, extended with *proportion
    expressions*: [||φ||_X] denotes the fraction of |X|-tuples of
    domain elements satisfying [φ], and the conditional form
    [||φ | θ||_X] the fraction among those satisfying [θ]. Proportion
    expressions are closed under addition and multiplication and are
    compared with the approximate connectives [≈_i] and [⪯_i], each
    interpreted within its own tolerance [τ_i].

    Defaults are statistical: "Birds typically fly" is
    [||Fly(x) | Bird(x)||_x ≈_i 1] (Section 4.3).

    Variables in the subscript of a proportion expression are bound by
    it — the paper treats [||·||_X] as a quantifier, and so does
    {!subst}. *)

(** First-order terms; constants are nullary function applications. *)
type term = Var of string | Fn of string * term list

(** The approximate comparison connectives; the [int] subscript selects
    the tolerance [τ_i]. *)
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
  | Pred of string * term list
  | Eq of term * term
  | Not of formula
  | And of formula * formula
  | Or of formula * formula
  | Implies of formula * formula
  | Iff of formula * formula
  | Forall of string * formula
  | Exists of string * formula
  | Compare of proportion * comparison * proportion

(** {1 Smart constructors} *)

val var : string -> term
val const : string -> term
val fn : string -> term list -> term
val pred : string -> term list -> formula

val conj : formula list -> formula
(** Conjunction of a list ([True] when empty). *)

val disj : formula list -> formula
(** Disjunction of a list ([False] when empty). *)

val disjuncts : formula -> formula list
(** Flatten an [Or] tree, left to right. A formula that is not a
    disjunction is its own single disjunct. *)

val approx_eq : i:int -> proportion -> proportion -> formula
val approx_le : i:int -> proportion -> proportion -> formula

val default : i:int -> formula -> formula -> string list -> formula
(** [default ~i body given xs] encodes the default "[given]s are
    typically [body]s" as [||body | given||_xs ≈_i 1]. *)

val neg_default : i:int -> formula -> formula -> string list -> formula
(** Dual of {!default}: [||body | given||_xs ≈_i 0]. *)

val in_interval :
  il:int -> ih:int -> proportion -> float -> float -> formula
(** [in_interval ~il ~ih z lo hi] is [lo ⪯_il z ∧ z ⪯_ih hi]. *)

val exists_unique : string -> formula -> formula
(** [exists_unique x φ] encodes [∃!x φ] with equality — used by the
    Nixon-diamond hypothesis of Theorem 5.26 and the lottery KB of
    Section 5.5. *)

(** {1 Variables and substitution} *)

module Sset : Set.S with type elt = string

val term_vars : term -> Sset.t
val free_vars_formula : formula -> Sset.t
val free_vars_prop : proportion -> Sset.t

val free_vars : formula -> string list
(** Sorted list of free variables. *)

val is_closed : formula -> bool
(** Is the formula a sentence? *)

val all_vars_formula : formula -> Sset.t
(** All variables, free and bound — for freshness. *)

val all_vars_prop : proportion -> Sset.t

val fresh_var : Sset.t -> string -> string
(** [fresh_var avoid base] is [base] or a primed variant not in
    [avoid]. *)

val subst_term : (string * term) list -> term -> term

val subst : (string * term) list -> formula -> formula
(** Capture-avoiding simultaneous substitution of terms for free
    variables; bound variables (quantifiers and proportion subscripts)
    are renamed as needed. *)

val subst_prop : (string * term) list -> proportion -> proportion

val instantiate : formula -> string list -> term list -> formula
(** [instantiate f xs ts] substitutes [ts] for [xs] simultaneously —
    turning [φ(x̄)] into [φ(c̄)] as in Theorem 5.6. Raises
    [Invalid_argument] on length mismatch. *)

(** {1 Vocabulary extraction} *)

val symbols : formula -> (string * int) list * (string * int) list
(** Predicate symbols and function symbols (with arities); constants
    are arity-0 functions. Both lists sorted and deduplicated. *)

val constants : formula -> string list
(** Sorted list of constant symbols. *)

val tolerance_indices : formula -> int list
(** Sorted subscripts of the approximate connectives occurring in the
    formula — the coordinates of [τ̄] that matter for it. *)

val mentions_constant : string -> formula -> bool
(** The side condition of Theorems 5.6 / 5.16 ("no constant in c̄
    appears in …"). *)

val mentions_equality : formula -> bool
(** Does the formula contain a term equality anywhere (including inside
    proportion expressions)? The unary counting engine cannot handle
    equality, so analysis uses this to route such KBs to enumeration. *)

val prop_mentions_equality : proportion -> bool

val max_pred_arity : formula -> int

val is_unary_vocab : formula -> bool
(** Only unary predicates and constants — Section 6's setting. *)

(** {1 Equality} *)

val equal_term : term -> term -> bool
val equal : formula -> formula -> bool
(** Structural equality (not modulo alpha — see {!Unify} for that). *)
