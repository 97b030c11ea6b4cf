(** The fault plane: the documented catalog of injection points and
    the arm/sweep discipline the simulator drives them with.

    {!Rw_prelude.Hook} is the mechanism (free-form names, one-shot
    arming); this module is the policy: a closed catalog of points
    that actually exist in the tree, validated arming, and the
    per-step sweep that turns "armed but never reached" into an
    observable outcome instead of a latent landmine.

    The catalog:

    - [{"store.append"}] — {!Rw_store.Store.add} fails before writing
      any byte. The service swallows it on the write-through path: the
      answer survives in memory, durability is lost for that record.
    - [{"store.append.torn"}] — {!Rw_store.Store.add} writes a strict
      prefix of the record and fails: the on-disk image of a crash
      mid-append. The file is damaged from that offset; recovery on
      the next open truncates the torn tail.
    - [{"store.sync"}] — {!Rw_store.Store.sync}'s fsync fails (the
      [persist] op's failure mode).
    - [{"compile.kb"}] — the service's KB compilation fails. Without
      an artifact there is no engine input, not even the rules
      interval a budget expiry degrades to, so that query fails with
      an error reply; nothing is cached or persisted, and the next
      query against the KB compiles afresh.
    - [{"pool.submit"}] — fan-out submission fails before any batch
      item runs; the batch call raises and answers nothing.

    Discipline: the simulator arms at most one point per step (drawn
    from the [{"fault"}] stream), executes the next op, then {!sweep}s.
    A point consumed by the op {e fired}; a point still armed at sweep
    time was unreachable from that op (e.g. the query it was meant to
    fail hit the cache) and is disarmed — one armed fault can never
    leak into a later step. *)

val points : string list
(** The full catalog, in a stable documented order. *)

val describe : string -> string
(** One-line description of a catalog point (for [--help] and docs).
    Raises [Invalid_argument] off-catalog. *)

val arm : string -> unit
(** Validated {!Rw_prelude.Hook.arm}: raises [Invalid_argument] for a
    name outside {!points}, so a typo in a corpus file fails loudly
    instead of arming a point nothing will ever reach. *)

val armed : unit -> string list
(** The points currently armed (sorted). *)

val sweep : unit -> string list
(** Disarm everything and return what was still armed — the faults
    that did {e not} fire since arming. Call after every step. *)
