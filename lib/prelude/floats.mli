(** Floating-point helpers shared across the random-worlds code base.

    Degrees of belief and proportions live in [[0, 1]]; these helpers
    centralise the approximate comparisons used when validating
    computed values, so every module applies the same tolerance
    discipline. *)

val default_eps : float
(** Default absolute tolerance for comparing degrees of belief. *)

val approx_equal : ?eps:float -> float -> float -> bool
(** [approx_equal ?eps a b] is true when [a] and [b] differ by at most
    [eps] (absolute; default {!default_eps}). *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] restricts [x] to the closed interval [[lo, hi]]. *)

val clamp01 : float -> float
(** [clamp01 x] restricts [x] to [[0, 1]] — the home of every
    proportion and degree of belief in this library. *)

val is_finite : float -> bool
(** [is_finite x] is true when [x] is neither infinite nor NaN. *)

val mean : float list -> float
(** [mean xs] is the arithmetic mean. Raises [Invalid_argument] on an
    empty list. *)

val sum : float list -> float
(** [sum xs] sums a float list with left association. *)

val max_abs_diff : float list -> float list -> float
(** [max_abs_diff xs ys] is the L∞ distance between two equal-length
    lists. Raises [Invalid_argument] on length mismatch. *)

val shortest_repr : float -> string
(** The shortest ["%.*g"] rendering of [x] that [float_of_string] reads
    back as [x] (["%.17g"] when none does, e.g. nan). The JSON encoder
    and the formula printer share it, each with its own integer form. *)

val pp_prob : Format.formatter -> float -> unit
(** Pretty-print a probability with enough digits to distinguish the
    values appearing in the paper (e.g. 0.47, 0.9411…). *)
