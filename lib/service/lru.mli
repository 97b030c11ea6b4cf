(** A bounded LRU cache with hit/miss/eviction counters.

    The answer cache of the query service: keys are canonical digests
    (strings), values are whatever the caller memoizes (answers).
    O(1) lookup and insertion via a hash table over an intrusive
    doubly-linked recency list; the least-recently-used entry is
    evicted when insertion exceeds capacity.

    The base structure is not thread-safe — even {!find} mutates the
    recency list and counters, so concurrent readers corrupt the
    doubly-linked list. Domain-shared users (the service's answer
    cache under a parallel batch) go through {!Sync}, the mutex-guarded
    wrapper. *)

type 'v t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  removed : int;
      (** entries dropped by {!remove_if}/{!remap} — deliberate
          invalidation, counted apart from capacity [evictions] *)
  size : int;  (** live entries *)
  capacity : int;
}

val create : capacity:int -> 'v t
(** [create ~capacity] — a cache holding at most [capacity] entries.
    Capacity [0] disables caching (every lookup is a counted miss,
    insertions are dropped). Raises [Invalid_argument] when
    negative. *)

val find : 'v t -> string -> 'v option
(** Lookup; a hit refreshes the entry's recency and bumps [hits], a
    miss bumps [misses]. *)

val add : 'v t -> string -> 'v -> unit
(** Insert or overwrite, making the entry most-recent. Evicts the
    least-recently-used entry (bumping [evictions]) when the cache is
    over capacity. *)

val mem : 'v t -> string -> bool
(** Presence test that touches neither recency nor counters. *)

val remove_if : 'v t -> (string -> 'v -> bool) -> int
(** [remove_if t p] drops every entry satisfying [p], returning how
    many were dropped (also added to the [removed] counter). The
    invalidation primitive: a digest-keyed cache passes a key-prefix
    predicate to reclaim everything belonging to a retired KB. *)

val remap : 'v t -> prefix:string -> (string -> 'v -> (string * 'v) option) -> int * int
(** [remap t ~prefix f] visits every entry whose key starts with
    [prefix]: [f key value] returning [None] drops the entry (counted
    in [removed]), [Some (key', value')] re-keys it in place,
    preserving its recency position. Returns [(kept, dropped)]. When a
    re-key target collides with a live entry, the resident entry wins
    and the visited one is dropped. The session layer's delta-aware
    invalidation walks old-digest entries with this. *)

val stats : 'v t -> stats

(** The domain-safe cache: the same structure and counters behind one
    mutex. Each operation is individually atomic; sequences are not
    (two domains may both miss one key and both compute — benign for a
    memo cache of a pure function, the second [add] just overwrites
    with an equal answer). *)
module Sync : sig
  type nonrec 'v t

  val create : capacity:int -> 'v t
  val find : 'v t -> string -> 'v option
  val add : 'v t -> string -> 'v -> unit

  val remove_if : 'v t -> (string -> 'v -> bool) -> int
  (** Runs under the lock: the predicate must not call back into the
      same cache. *)

  val remap : 'v t -> prefix:string -> (string -> 'v -> (string * 'v) option) -> int * int
  (** Runs under the lock — the whole walk is atomic with respect to
      concurrent [find]/[add]; [f] must not call back into the same
      cache. *)

  val stats : 'v t -> stats
end
