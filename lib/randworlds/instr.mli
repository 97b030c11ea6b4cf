(** Engine instrumentation: per-engine dispatch counters and wall-clock
    accounting for the top-level {!Engine.degree_of_belief} entry
    point.

    The query service's [stats] reply reports which engines actually
    answered traffic and how much wall-clock each consumed; the
    counters here are the source of truth. Counters are process-global
    in effect but sharded per domain underneath: {!record} writes only
    the calling domain's shard, {!snapshot} and {!reset} merge/clear
    every shard under its lock, so the API is domain-safe and snapshot
    sums are exact even while pool workers are recording. Cheap enough
    to leave on unconditionally. *)

type entry = {
  engine : string;  (** the engine named in the winning {!Answer.t} *)
  count : int;  (** dispatches resolved by this engine *)
  seconds : float;  (** total wall-clock spent in those dispatches *)
}


val record : engine:string -> seconds:float -> unit
(** Credit one dispatch to [engine]. Called by
    {!Engine.degree_of_belief}; other entry points may record
    themselves. *)

val snapshot : unit -> entry list
(** Current counters, sorted by engine name. *)

val reset : unit -> unit
(** Zero every counter (tests and service restarts). *)
