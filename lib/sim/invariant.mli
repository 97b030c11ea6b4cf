(** The invariants checked after every simulation step, each with the
    failure class it exists to catch.

    - {b kb-digest}: the service's resident KB digest equals the
      digest of the simulator's shadow conjunct list (maintained with
      the same canonical-digest assert/retract semantics). Catches
      belief-change drift — an update applied to the wrong conjunct,
      a load that failed to swap.
    - {b stats}: [queries] / [timeouts] / [kb_loads] / session
      [updates] / session-log length equal the simulator's exact
      predictions. Catches double counting, lost counts, and
      counters mutated on error paths that promise "nothing mutated".
    - {b session-chain}: each session-log event's [digest_before]
      equals its predecessor's [digest_after], and the last
      [digest_after] is the resident digest. Catches a mutation that
      bypassed the log, or a log write racing a mutation.
    - {b agreement}: a non-degraded answer — cached, stored, from a
      warm shared artifact or fresh — is bit-identical (result and
      signing engine) to a cold
      {!Randworlds.Engine.degree_of_belief} dispatch on a fresh
      artifact of the shadow KB. This is the paper's belief-change
      contract ([Pr(φ | KB ∧ ψ)] must equal recomputing from scratch)
      and subsumes warm-vs-fresh artifact identity and cache coherence
      across evictions, updates and restarts.
    - {b degrade}: a budget-expired answer is signed by the rules
      engine (the sound-interval fallback), and every observed
      degrade was counted in [timeouts].
    - {b trace}: an explained answer's trace is non-empty and its
      engine-selected fact names the engine that signed the answer —
      including when served from a cache tier.
    - {b recovery}: re-opening the store after a clean shutdown leaves
      the file byte-identical; after an injected torn append it
      truncates exactly the torn tail (a prefix of the old bytes), and
      never truncates without an injected tear. Catches recovery
      eating valid records or resurrecting damaged ones.
    - {b stability}: answers recorded before a restart are reproduced
      bit-identically after it — from the recovered store or by
      recomputation (determinism makes the two indistinguishable,
      which is the point).
    - {b compaction}: after {!Rw_store.Store.compact}, zero dead
      records remain and the live count is unchanged. *)

open Rw_logic
open Randworlds

type violation = {
  invariant : string;  (** which invariant failed (names above) *)
  detail : string;  (** display-ready description *)
}

val pp_violation : Format.formatter -> violation -> unit

(** Exact counter predictions, maintained by the simulator as it
    issues ops. All are per-service-instance (reset by a restart). *)
type expected = {
  queries : int;
  timeouts : int;
  kb_loads : int;
  updates : int;
  log_entries : int;
}

val answers_agree : Answer.t -> Answer.t -> bool
(** Bit-identical verdict and signing engine ([notes] excluded —
    diagnostics may legitimately differ between paths). *)

val check_shadow :
  Rw_service.Service.t -> shadow:Syntax.formula list -> violation list

val check_counters : Rw_service.Service.t -> expected -> violation list

val check_session_chain : Rw_service.Service.t -> violation list

val check_agreement :
  options:Engine.options ->
  shadow:Syntax.formula list ->
  Syntax.formula ->
  Answer.t ->
  violation list
(** Cold-dispatches the query against the shadow KB (a fresh
    artifact, no cache) and compares. *)

val check_degrade : Answer.t -> violation list

val check_trace : Answer.t -> Rw_trace.Trace.event list -> violation list

val check_recovery :
  before:string ->
  after:string ->
  truncated:int ->
  torn_expected:bool ->
  violation list
(** [before]/[after] are the store file's bytes around a restart;
    [truncated] is the open report's count; [torn_expected] whether a
    torn-append fault fired since the last restart. *)

val check_compaction :
  live_before:int -> Rw_store.Store.stats -> violation list
