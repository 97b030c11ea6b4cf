(** The one clock of the code base: [CLOCK_MONOTONIC], so a wall-clock
    step can neither fire a budget nor turn a duration negative. *)

val now : unit -> float
(** Seconds from an arbitrary origin: only differences mean anything. *)
