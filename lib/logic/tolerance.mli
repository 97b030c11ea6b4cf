(** Tolerance vectors [τ̄ = ⟨τ₁, τ₂, …⟩] (Section 4.1).

    Each approximate connective [≈_i] / [⪯_i] is interpreted "within
    [τ_i]". The random-worlds method takes the limit [τ̄ → 0̄] *after*
    [N → ∞]; computationally we evaluate along a shrinking schedule of
    tolerance vectors and extrapolate.

    The relative magnitudes of the [τ_i] encode default priorities
    (Section 5.3): the vector at scale [ε] assigns
    [τ_i = weight_i · ε^{power_i}], so a larger power makes a default
    *stronger* (its tolerance vanishes faster). *)

type t = {
  scale : float;  (** the master [ε] being driven to 0 *)
  weights : (int * float) list;  (** per-index multiplier (default 1) *)
  powers : (int * float) list;  (** per-index exponent (default 1) *)
}

val uniform : float -> t
(** [uniform eps] is the symmetric vector [τ_i = eps]. Raises
    [Invalid_argument] unless [eps > 0]. *)

val make :
  scale:float ->
  ?weights:(int * float) list ->
  ?powers:(int * float) list ->
  unit ->
  t
(** [make ~scale ?weights ?powers ()] builds a structured vector
    [τ_i = w_i · scale^{p_i}]. Weights and powers must be positive. *)

val get : t -> int -> float
(** [get t i] is [τ_i]. *)

val shrink : t -> float -> t
(** [shrink t factor] multiplies the master scale by [factor ∈ (0,1)] —
    one step of the [τ̄ → 0̄] limit. *)

val schedule : ?factor:float -> steps:int -> t -> t list
(** The decreasing sequence of vectors used to estimate [lim_{τ̄→0}]. *)

val fingerprint : t -> string
(** A deterministic rendering of every field (hex floats, index-sorted
    weights and powers): equal strings mean interchangeable vectors.
    The service's options digest and the compiled artifact's solve
    memos key on it, so its output is part of every durable store key
    and must not change. *)

val pp : Format.formatter -> t -> unit
