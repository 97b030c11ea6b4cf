(** The query service: a resident KB session with a memoized
    degree-of-belief evaluator.

    The one-shot CLI re-parses, re-validates and re-dispatches every
    query from scratch, even though [Pr_∞(φ | KB)] is a pure function
    of the (KB, query, tolerance schedule, engine options) quadruple.
    A {!t} instead holds one KB resident — parsed, validated and
    canonically digested once per load — and answers queries through a
    bounded LRU cache keyed on

    {v canonical KB digest × canonical query digest × options digest v}

    so syntactic variants of the same question ({!Rw_logic.Canonical})
    cost one engine dispatch between them. The options digest folds in
    the tolerance schedule and every engine knob, so services with
    different configurations never share entries.

    Per-request budgets degrade gracefully. A budget is a
    {!Rw_pool.Budget} deadline on the monotonic clock, polled from the
    engines' inner loops — maxent solver iterations, profile counting,
    world enumeration, Monte-Carlo sampling — on whichever domain runs
    the work, so the same request degrades the same way on the main
    domain, on a pool worker, and across a fan-out. Expiry is noticed
    at the next poll; the request is then answered by the rules
    engine's provably-sound interval instead (never cached, never
    persisted, counted in [timeouts]). A non-positive budget degrades
    immediately — the "shed load but stay sound" mode.

    A {!t} is domain-safe: the answer cache, latency ring and counters
    are synchronised, so {!batch} can fan queries out across a domain
    pool, and the resident KB is one immutable snapshot (formula,
    canonical digest, conjunct list) published atomically. Each query
    answers for the one snapshot it read. {!load_kb} and {!update} may
    run concurrently with queries; they serialise among themselves and
    publish the next snapshot once their cache work is done. A query
    still answering for the previous snapshot may cache its answer
    after that: every cache key starts with the KB digest, so the entry
    is correct for the state it names.

    Answers served from the cache are the very same {!Answer.t} values
    the engine produced — byte-identical verdicts, by construction.

    {b The durable tier.} A service created with [?store] gains a
    second, persistent cache level under the LRU
    ({!Rw_store.Store} — an append-only, checksummed, crash-recovering
    answer log keyed by the same canonical digests). The lookup path
    becomes {e LRU → store probe → engine dispatch}, and a computed
    answer is written through to both tiers (with its trace when one
    was recorded, so persisted answers still explain themselves after
    a restart). A store hit is promoted into the LRU and reported as
    {!Stored}; degraded answers are never persisted, exactly as they
    are never cached. Because the store key includes the options
    digest, services with different engine knobs never share records;
    because it excludes the pool width, records are shared across
    widths. Store appends are serialized inside {!Rw_store.Store};
    probes take only nanosecond-scale index locks — a parallel
    {!batch} write-through is safe at any width.

    {b The compiled-KB artifact.} Orthogonal to the answer caches:
    each resident KB snapshot owns one {!Rw_compile.Compiled_kb.t}
    (vocabulary, statistical index, memoised maxent solves, profile
    tables). Answer caches make {e repeated questions} free; the
    artifact makes {e distinct questions against the same KB} cheap.
    The first dispatch against a snapshot compiles it — the syntactic
    pass only, outside the request budget, so an artifact warms
    however short the budget; under a parallel batch a mutex makes
    compilation happen exactly once per snapshot. {!update} hands the
    carried or recompiled artifact to the next snapshot; a query
    still answering for a superseded snapshot compiles into that
    snapshot's own artifact, which dies with it. A solve that runs out
    of budget leaves the artifact's finished cells filled. An injected
    compile failure (fault point [compile.kb]) fails that query with
    an error and caches nothing.

    {b Belief-change sessions.} A loaded KB is a live object:
    {!update} asserts or retracts statements (at conjunct granularity,
    matched by canonical digest) without restarting the service. An
    update classifies itself against the caches instead of flushing
    them: cached answers whose query vocabulary is disjoint from the
    delta's {e and} whose answer is a definitive rules-engine verdict
    are rechecked against the updated KB — a recheck that reproduces
    the answer re-keys the entry under the new digest (counting the
    update in the entry's fixed-size revalidation summary, which later
    [--explain] hits show as one [revalidated] fact, and writing the
    entry through to the durable store under its new key); every other
    entry of the old digest is evicted. Soundness is
    by construction: dispatch short-circuits on definitive rules
    answers before any numeric engine runs, so a revalidated entry is
    bit-identical to what a cold re-dispatch on the updated KB would
    compute. The compiled artifact is updated delta-aware too
    ({!Rw_compile.Compiled_kb.update}): evidence-only deltas carry the
    solved maxent cells and memo tables over instead of
    re-solving. Every mutation (including full {!load_kb} swaps)
    appends to a {!session_log}; {!stats} aggregates the session
    counters. Updates need no lock against queries: each query answers
    for the one snapshot it read. *)

open Rw_logic
open Randworlds

type config = {
  cache_capacity : int;  (** LRU entries; [0] disables caching *)
  compiled_capacity : int;
      (** [0] keeps no compiled artifact, so every dispatch compiles
          afresh (identical answers); any positive value keeps the
          snapshot's one artifact. Negative raises [Invalid_argument]. *)
  parallel_threshold : int;
      (** batches shorter than this run sequentially even on a
          service with a pool: the hand-off costs more than the work *)
  budget : float option;  (** default per-request seconds; [None] = unlimited *)
  engine_options : Engine.options;  (** fixed per service instance *)
}

val default_config : config
(** 1024 cache entries, compiled artifact kept ([compiled_capacity =
    1]), parallel threshold 8, no budget, {!Engine.default_options}. *)

type t

(** Where an answer came from — the cache-behaviour tests and the
    serve protocol's [cached]/[tier] fields key off this. *)
type origin =
  | Computed  (** full engine dispatch, now cached (and persisted) *)
  | Cached  (** served from the LRU *)
  | Stored  (** served from the durable store, now promoted to the LRU *)
  | Degraded  (** budget expired: rules-engine sound interval *)

val create :
  ?config:config -> ?store:Rw_store.Store.t -> ?pool:Rw_pool.Pool.t -> unit -> t
(** [?store] attaches the durable answer tier (see the module
    docstring); [?pool] is the domain pool batches and Monte-Carlo
    sampling fan out on (without one they run on the caller). The
    service borrows both — callers own closing and shutting them. *)

val config : t -> config

val store : t -> Rw_store.Store.t option

val pool : t -> Rw_pool.Pool.t option

(** {2 KB lifecycle} *)

val load_kb : t -> Syntax.formula -> unit
(** Install an (assumed well-formed) KB, digesting it once. When this
    {e replaces} a different KB, every answer-cache entry of the old
    digest is reclaimed immediately (counted in [Lru.stats.removed]
    and the session's [swap_reclaimed]) — they are unreachable under
    the new digest and would otherwise squat on cache capacity.
    Reloading the same KB keeps them, and the very same formula keeps
    its artifact. *)

val load_kb_string : t -> string -> (unit, string) result
(** Parse ({!Kb_file.of_string}) + validate + install. The error
    string is display-ready. *)

val load_kb_file : t -> string -> (unit, string) result
(** As {!load_kb_string}, reading the file; I/O failures are
    reported, not raised. *)

val kb : t -> Syntax.formula option

val artifact : t -> Rw_compile.Compiled_kb.t option
(** The resident snapshot's compiled artifact, once filled — for
    inspecting which solve cells it holds. Always [None] when
    [compiled_capacity = 0]. *)

val evict_all : t -> int * int
(** Flush both memory tiers: every answer-cache entry, regardless of
    digest (counted in [Lru.stats.removed]), and the resident
    snapshot's artifact. Returns [(answers_dropped, artifacts_dropped)],
    the latter [0] or [1]. The durable store is untouched — subsequent
    queries re-probe it (or recompute) and serve identical answers;
    the simulator's [evict] op exists to check exactly that. *)

(** {2 Belief-change sessions} *)

type update_action = Assert | Retract

(** One line of the {!session_log}: a KB mutation and the cache
    bookkeeping it caused. *)
type session_event = {
  seq : int;  (** this mutation's sequence number in the session log *)
  action : string;  (** ["assert"], ["retract"] or ["load"] *)
  src : string;  (** delta source text; empty for loads *)
  digest_before : string;
  digest_after : string;
  changed : bool;
      (** [false] for a canonical no-op — asserting an already-present
          statement, retracting an absent one, a delta that leaves the
          canonical KB digest where it was, or reloading the same KB;
          nothing was evicted *)
  revalidated : int;  (** cache entries re-keyed to the new digest *)
  evicted : int;
      (** cache entries invalidated by the delta, or reclaimed by a
          load that swapped the KB *)
  artifact : string;
      (** what happened to the compiled artifact: ["carried"] (memo
          tables survived an evidence-only delta), ["recompiled"],
          ["dropped"] (a load swapped the KB) or ["unchanged"] *)
  elapsed_ms : float;
}

val update :
  ?src:string ->
  t ->
  update_action ->
  Syntax.formula ->
  (session_event, string) result
(** Apply one belief change to the resident KB. [Assert] conjoins the
    formula's conjuncts (those not already present, by canonical
    digest); [Retract] removes the KB conjuncts canonically matching
    the formula's. [Error] when no KB is loaded, or when the asserted
    delta makes the combined KB ill-formed (e.g. a symbol reused at
    a different arity) — nothing is mutated on error. [?src] is the
    source text recorded in the session log (defaults to the
    pretty-printed formula). Returns the event it appends to the
    {!session_log}. See the module docstring for the delta-aware cache
    invalidation an update performs. *)

val update_src : t -> update_action -> string -> (session_event, string) result
(** Parse ({!Kb_file.of_string}, so multi-statement text asserts or
    retracts several conjuncts at once), then {!update}. *)

val session_log : t -> session_event list
(** Every KB mutation this service has performed, oldest first — full
    {!load_kb} swaps and incremental {!update}s alike. *)

(** {2 Queries} *)

val query :
  ?budget:float -> t -> Syntax.formula -> (Answer.t * origin, string) result
(** Evaluate one query against the resident KB. [Error] only when no
    KB is loaded. [?budget] overrides the config default for this
    request. *)

val query_src :
  ?budget:float -> t -> string -> (Answer.t * origin, string) result
(** Parse, then {!query} — parse failures land in [Error]. *)

(** {2 Explained queries}

    The trace-carrying variants behind [rw query --explain] and the
    serve protocol's ["explain": true]. Cache entries store the trace
    of the computation that produced them, so a cached answer explains
    itself — the reply's trace leads with a ["cache"] fact saying how
    it was served: [miss], [hit] (LRU), [hit-store] (the durable
    tier's stored trace replayed, possibly from a previous process),
    or the [-retraced] variants ([hit-retraced] / [hit-store-retraced])
    when an entry computed with tracing off had to be re-derived once
    to obtain its trace — the upgrade is written back to both tiers.
    An entry that survived KB updates by revalidation ends the reply
    with exactly one ["revalidated"] fact summarising them, however
    many there were: [count], [first_seq] / [last_seq] (session-log
    sequence numbers) and the short KB digests [kb_from] (before the
    first) and [kb_to] (after the last). The summary is memory-only —
    never part of a stored trace. *)

type explained = {
  answer : Answer.t;
  origin : origin;
  trace : Rw_trace.Trace.event list;
}

val query_explained :
  ?budget:float -> t -> Syntax.formula -> (explained, string) result
(** As {!query}, threading a {!Rw_trace.Trace.t} through the dispatch
    and returning its events. Identical caching behaviour: a miss
    computes once (now storing the trace), a hit re-serves the stored
    answer, and a budget expiry degrades without caching. *)

val query_src_explained :
  ?budget:float -> t -> string -> (explained, string) result
(** Parse, then {!query_explained}. *)

val batch :
  ?budget:float ->
  t ->
  Syntax.formula list ->
  (Answer.t * origin, string) result list
(** The batch evaluator: every query runs against the resident KB,
    sharing its digest, validation, and the cache — the KB is loaded
    and keyed once for the whole batch. Each item answers for the
    snapshot it read, so an update published mid-batch reaches only
    the items that start after it. Items fan out on the
    service's pool, if it has one; results stay in input order, and
    each item's budget is enforced by deadline polling on whichever
    domain runs it. Batches shorter than [config.parallel_threshold]
    run sequentially — see the config field. *)

val batch_srcs :
  ?budget:float ->
  t ->
  string list ->
  ((Answer.t * origin, string) result * float) list
(** As {!batch}, from unparsed query strings (parse failures land in
    the item's [Error]), also reporting each item's wall-clock
    milliseconds — what the serve protocol's batch reply surfaces per
    item. *)

(** {2 Observability} *)

type latency_summary = {
  requests : int;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  max_ms : float;
}

type compiled_stats = {
  hits : int;  (** dispatches that found their snapshot's artifact *)
  misses : int;  (** dispatches that compiled it *)
  compiles : int;
      (** artifacts compiled: [misses] plus {!update} recompiles *)
  compile_ms_total : float;  (** wall-clock spent compiling, summed *)
}

type session_stats = {
  updates : int;  (** {!update} calls applied (no-ops included) *)
  asserts : int;
  retracts : int;
  revalidated : int;  (** entries re-keyed across updates, total *)
  update_evicted : int;  (** entries dropped by update invalidation *)
  swap_reclaimed : int;  (** entries reclaimed by full {!load_kb} swaps *)
  artifact_carries : int;  (** compiled artifacts carried across deltas *)
  log_entries : int;  (** {!session_log} length *)
}

type stats = {
  cache : Lru.stats;
  compiled : compiled_stats;  (** the compiled artifacts' counters *)
  engines : Instr.entry list;
      (** per-engine dispatch counts and wall-clock (process-global,
          merged across domains — see {!Instr}) *)
  queries : int;  (** query requests handled, batch items included *)
  timeouts : int;  (** requests degraded on budget expiry *)
  kb_loads : int;
  latency : latency_summary;
  store : Rw_store.Store.stats option;
      (** the durable tier's counters (probe hits/misses,
          write-throughs, live/dead records, recovery truncations)
          when one is attached *)
  session : session_stats;
}

val stats : t -> stats
