(** Structured derivation traces — the observability substrate behind
    [rw query --explain].

    The paper's central claim is that one definition (counting worlds)
    {e derives} the behaviours other systems postulate: direct
    inference, specificity, irrelevance, maximum entropy. A bare
    interval cannot show which derivation applied — a Theorem-5.6
    direct-inference answer looks exactly like a maxent fixed point or
    a Monte-Carlo estimate. A trace records the derivation itself:
    which engines were considered and why the losers were rejected,
    which theorems fired with which instantiated preconditions, which
    reference classes competed and which won on specificity, the
    entropy-maximum profile, the sampling evidence, the tolerance
    schedule, and cache provenance.

    {2 Design}

    A trace is a mutable event accumulator handed down the dispatch
    path as a {!sink} ([t option]). The discipline that keeps tracing
    free when disabled: {e emission sites match on the sink
    themselves} —

    {[
      match trace with
      | None -> ()
      | Some tr -> Trace.fact tr "theorem" [ ("id", S "5.6"); ... ]
    ]}

    so with [None] no event, field list, or rendered string is ever
    allocated (bench Table 12 holds the dispatcher to within noise of
    the pre-trace baseline). Emission sites sit at decision points —
    per engine, per tolerance step, per rule — never inside counting
    or sampling loops, so an enabled trace is still cheap.

    Events are pre-rendered to strings/floats at the emission site:
    this module deliberately depends on nothing but [fmt] and [unix],
    so every layer ({!Rw_logic}, the engines, the service) can emit
    into it without dependency cycles. The JSON encoding of a trace
    lives in [Rw_service.Protocol.json_of_trace] for the same reason.

    Determinism: for a fixed seed, every engine emits an identical
    event sequence at any [--jobs] width (the Monte-Carlo evidence is
    merged in chunk order before emission). Wall-clock timings are the
    one nondeterministic ingredient; {!pp}'s [mask_timings] renders
    them as [_] for golden tests and CI diffs. *)

(** A field value, pre-rendered at the emission site. *)
type value =
  | S of string  (** rendered formula, engine name, verdict, … *)
  | F of float  (** probability, entropy, milliseconds, … *)
  | I of int  (** domain size, sample count, … *)
  | B of bool

type event =
  | Enter of string  (** open a phase/scope (an engine, the dispatcher) *)
  | Leave of { phase : string; ms : float }
      (** close the matching {!Enter}, with its wall-clock elapsed
          milliseconds *)
  | Fact of { tag : string; fields : (string * value) list }
      (** one structured observation inside the current scope *)

(** The established tag vocabulary (the [--explain-json] schema is
    stable over it):

    - ["engine"] — an engine the dispatcher consulted: [engine],
      [outcome] (its rendered verdict);
    - ["engine-selected"] — the winner: [engine], [reason]; the {e
      last} such fact in a trace names the engine of the final answer;
    - ["theorem"] — a paper theorem fired: [id] (e.g. ["5.16"]),
      [name], plus instantiated preconditions;
    - ["ref-class"] — a reference class considered: [class], [bounds],
      [role] (["candidate"] | ["winner"] | ["link"]), [reason];
    - ["maxent-profile"] — the entropy-maximum: [entropy],
      [constraints], then one [atom=mass] field per atom;
    - ["tolerance"] / ["tolerance-dropped"] — one step of the [τ̄ → 0]
      schedule and its value, or why a step was discarded;
    - ["extrapolation"] / ["limit"] — how the outer limit was taken;
    - ["mc-point"] — one sampling run: [n], [tol], [seed], [samples],
      [kb_hits], [ci_lo]/[ci_hi] (timings deliberately excluded, so
      traces stay deterministic);
    - ["compiled-kb"] — the compiled artifact the dispatch read:
      [digest] (short), [compile_ms], [maxent_point] (["fresh-solve"]
      | ["reused"]);
    - ["cache"] — service provenance: [outcome] (["miss"] | ["hit"]
      (answer LRU) | ["hit-store"] (durable store) | ["hit-retraced"] /
      ["hit-store-retraced"] (an entry stored without a trace,
      re-derived once to obtain one)), [key];
    - ["revalidated"] — the belief-change updates a served entry
      survived by revalidation, summarised in one fact at the end of
      the reply: [count], [first_seq] / [last_seq] (session-log
      sequence numbers), [kb_from] (short KB digest before the first)
      and [kb_to] (after the last);
    - ["note"] — free text. *)

type t
(** A mutable accumulator. Not domain-safe: one trace belongs to one
    query evaluation, which runs on one domain (the Monte-Carlo
    sampler's worker domains never emit — evidence is merged before
    the emission site). *)

type sink = t option
(** What the engines thread: [None] = tracing off (the hot path). *)

val create : unit -> t

val events : t -> event list
(** The events in emission order — an immutable snapshot; the service
    stores these in its answer cache. *)

val add : t -> event -> unit
(** Append one event. Use under a [match sink with Some tr -> …] so
    the disabled path allocates nothing. *)

val fact : t -> string -> (string * value) list -> unit
(** [fact t tag fields] = [add t (Fact { tag; fields })]. *)

val note : t -> string -> unit
(** [note t text] = [fact t "note" [ ("text", S text) ]]. *)

val span : sink -> string -> (unit -> 'a) -> 'a
(** [span sink phase f] runs [f] inside an {!Enter}/{!Leave} pair
    timed with wall-clock milliseconds; with [None] it is exactly
    [f ()]. The {!Leave} is emitted even when [f] raises, so traces
    stay well-nested across engine refusals. *)

val selected_engine : event list -> string option
(** The [engine] field of the last ["engine-selected"] fact — the
    engine that produced the final answer. The fuzz oracle checks this
    against [Answer.engine]. *)

val pp : ?mask_timings:bool -> Format.formatter -> event list -> unit
(** Human-readable tree: [+ phase] opens a scope, [- phase [x ms]]
    closes it, [* tag k=v …] renders a fact at the current depth.
    [mask_timings] (default [false]) prints every {!Leave} duration as
    [_ ms] and every fact field named [*_ms] (a timing, such as the
    compiled-kb fact's [compile_ms]) as [_] — golden tests and the CI
    doc-snippet diff use this to stay byte-stable. *)
