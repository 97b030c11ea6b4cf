(** Small dense vector operations over float arrays.

    The maximum-entropy engine works in the space of atom proportions —
    vectors of dimension [2^k] for [k] unary predicates. [k] is small
    in every knowledge base in the paper, so plain float arrays are the
    right representation; the array type is exposed deliberately. *)

type t = float array

val create : int -> float -> t
val dim : t -> int
val copy : t -> t

val map : (float -> float) -> t -> t
val mapi : (int -> float -> float) -> t -> t

val map2 : (float -> float -> float) -> t -> t -> t
(** Raises [Invalid_argument] on dimension mismatch. *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t

val axpy : float -> t -> t -> t
(** [axpy a x y] is [a·x + y]. *)

val dot : t -> t -> float
val sum : t -> float
val norm_inf : t -> float
val norm2 : t -> float
val linf_dist : t -> t -> float

val entropy : t -> float
(** [entropy p] is [−Σ pᵢ ln pᵢ] with the [0 ln 0 = 0] convention. *)

val pp : Format.formatter -> t -> unit
