(** Atoms of a unary vocabulary (Section 6).

    Given unary predicates [P₁, …, P_k], an {e atom} is a maximal
    consistent conjunction [±P₁(x) ∧ … ∧ ±P_k(x)]. A world's
    statistical content, for a unary knowledge base, is exactly the
    vector of atom proportions — which is why degrees of belief for
    unary KBs reduce to reasoning over the [2^k]-simplex.

    Atoms are indexed by bitmask (bit [j] set means [P_j] holds, with
    predicates ordered alphabetically). This module also provides the
    small propositional reasoner used by the syntactic rule engine:
    boolean combinations of unary predicates denote atom sets, and
    entailment modulo a theory of universal facts is set inclusion. *)

type universe

val max_preds : int
(** Upper bound on predicates per universe (16). *)

val universe : string list -> universe
(** [universe preds] fixes the atom universe for unary predicate names
    (sorted, deduplicated). Raises [Invalid_argument] beyond
    {!max_preds}. *)

val num_preds : universe -> int
val num_atoms : universe -> int
val predicates : universe -> string list
val pred_index : universe -> string -> int option

val atom_satisfies : universe -> int -> string -> bool
(** [atom_satisfies u atom p] — does predicate [p] hold in [atom]?
    Raises [Invalid_argument] for unknown predicates. *)

val project : universe -> onto:universe -> int -> int
(** [project u ~onto] maps an atom of [u] to the atom of [onto] that
    agrees with it on [onto]'s predicates, all of which [u] must have
    ([Invalid_argument] otherwise). *)

(** Sets of atoms, as width-aware bitsets (a plain [int] bitmask would
    silently overflow beyond 62 atoms, i.e. 6 predicates). *)
module Set : sig
  type t

  val create : int -> t
  (** [create width] — the empty set over [width] atoms. *)

  val full : int -> t
  val of_list : int -> int list -> t
  val mem : t -> int -> bool
  val add : t -> int -> t
  val inter : t -> t -> t
  val union : t -> t -> t

  val diff : t -> t -> t
  (** [diff a b] — atoms in [a] but not [b]. *)

  val complement : t -> t
  val is_empty : t -> bool
  val subset : t -> t -> bool
  val equal : t -> t -> bool
  val members : t -> int list
  val cardinal : t -> int
end

exception Not_boolean of Syntax.formula
(** Raised when a formula is not a boolean combination of unary
    predicates over the expected subject term. *)

val eval_at : universe -> subject:Syntax.term -> int -> Syntax.formula -> bool
(** Truth of a boolean combination at an atom; raises {!Not_boolean}
    outside the fragment. *)

val is_boolean_over : universe -> subject:Syntax.term -> Syntax.formula -> bool

val extension : universe -> subject:Syntax.term -> Syntax.formula -> Set.t
(** Atoms satisfying a boolean combination; raises {!Not_boolean}. *)

val extension_var : universe -> string -> Syntax.formula -> Set.t
(** {!extension} with a variable subject. *)

val full_set : universe -> Set.t

val theory : universe -> Syntax.formula list -> Set.t
(** Atoms consistent with a list of universal facts [∀x βᵢ(x)]; raises
    [Invalid_argument] on non-universal inputs. *)

val entails :
  ?theory:Set.t -> universe -> string -> Syntax.formula -> Syntax.formula -> bool
(** [entails ~theory u x f g] decides [T ⊨ ∀x (f ⇒ g)] for boolean
    combinations over the variable [x]. *)

val disjoint :
  ?theory:Set.t -> universe -> string -> Syntax.formula -> Syntax.formula -> bool
(** [T ⊨ ∀x (f ⇒ ¬g)]. *)

val equivalent :
  ?theory:Set.t -> universe -> string -> Syntax.formula -> Syntax.formula -> bool

val members : universe -> Set.t -> int list
val pp_atom : universe -> Format.formatter -> int -> unit
