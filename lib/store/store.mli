(** The durable answer store: a crash-safe, append-only key/value log.

    The service's LRU answer cache dies with the process; this module
    is the persistent tier underneath it. Keys are the service's
    canonical [KB × query × options] digests, values are opaque
    payload strings (the service stores a JSON-encoded answer plus its
    explanation trace). The design is the classic append-only log:

    - {b Record format.} The file opens with an 8-byte magic
      ["RWSTORE1"]. Each record is
      [klen:u32le · plen:u32le · key · payload · crc:u32le],
      where the CRC-32 (IEEE) covers the two length words, the key and
      the payload — a torn length word is as detectable as a torn
      payload.
    - {b Crash-safe append.} A record is written with a single
      [Unix.write] (no userspace buffering), optionally [fsync]ed, and
      only then entered into the in-memory index. A crash — including
      [kill -9] mid-write — can lose at most the in-flight record: the
      recovery scan stops at the first byte that fails framing or
      checksum and truncates the file back to the last whole record.
    - {b Recovery.} {!open_} scans the log front to back, rebuilding
      the key → offset index (later records for a key shadow earlier
      ones — an overwrite with a new payload is an append, while a
      re-add of the payload the key already holds writes nothing, so
      repeated write-throughs of one answer leave one record to scan).
      The scan validates every
      CRC, so a record it indexes can never be served corrupt. It is
      one sequential pass through a fixed 64 KiB window (an input
      channel's buffer, refilled by one [read] per 64 KiB): each record
      is copied out into one reusable record buffer, which grows only
      for a record larger than itself, and checksummed there. The
      index keeps each key with its payload's offset and length packed
      into one int, so a log is limited to 16 GiB.
    - {b Compaction.} Superseded records are dead weight; {!compact}
      rewrites the live entries, through one 64 KiB output buffer,
      into a fresh generation file beside the log, [fsync]s it and
      atomically
      [rename]s it over the old one — a crash during compaction leaves
      either the old generation or the new one, both complete.

    Concurrency: appends are serialized behind a writer lock (the log
    has one tail); reads never wait on an appender's I/O — a lookup
    takes only the index lock (nanoseconds, it guards a hashtable op)
    and a reader lock for the positional read on a dedicated read
    descriptor. {!compact} briefly excludes both.

    The store never interprets payloads. Callers own the encoding —
    and therefore also versioning of what they stored. *)

type t

(** What {!open_} found on disk. *)
type open_report = {
  recovered : int;  (** whole records scanned back in *)
  live : int;  (** distinct keys after shadowing *)
  truncated_bytes : int;
      (** torn/corrupt tail bytes dropped; [0] on a clean open *)
}

val open_ : ?fsync:bool -> string -> (t * open_report, string) result
(** [open_ path] opens (creating if absent) the log at [path],
    scans/recovers it, and rebuilds the index. [fsync] (default
    [false]) forces an [fsync] after every append: crash-safety
    against power loss rather than just process death, at a large
    per-append cost. Errors (permissions, a directory, a foreign
    magic, a log over 16 GiB) are returned, not raised. *)

val close : t -> unit
(** Flush and close both descriptors. Idempotent; using [t] after
    [close] raises. *)

val path : t -> string

val find : t -> string -> string option
(** Index lookup + one positional read. Counted as a probe hit or
    miss in {!stats}. *)

val mem : t -> string -> bool
(** Index-only presence test; touches no counters and no I/O. *)

val add : t -> string -> string -> unit
(** Append a record and index it. An existing key is shadowed (the
    old record becomes dead until {!compact}) — unless its indexed
    payload is byte-identical to the new one (same length, then the
    bytes read back), in which case nothing is written and no counter
    moves: the index already points at the same bytes. The
    ["store.append"] and ["store.append.torn"] fault points fire before
    that comparison, as for any add. Raises [Sys_error] on
    I/O failure, [Invalid_argument] on an over-long key
    ([> 65535] bytes) or payload ([>= 256 MiB] — both far beyond any
    digest/answer this tree produces), and [Failure] when the record
    would take the log past 16 GiB (the index packs each payload's
    offset and length into one int). *)

val length : t -> int
(** Live (distinct-key) record count. *)

val sync : t -> unit
(** [fsync] the log now — the serve protocol's ["persist"] op. A
    no-op in effect when the store was opened with [~fsync:true]. *)

val compact : t -> unit
(** Rewrite live entries into a fresh generation file and atomically
    rename it over the log. Dead records and their bytes are
    reclaimed; the key → payload mapping is unchanged (the
    compaction-equivalence test pins this). Safe against concurrent
    readers/appenders: both are excluded for the duration. *)

(** Counters for the operator/stats surfaces. [recovered] /
    [truncated_bytes] describe what {!open_} found; the rest
    accumulate over this process's lifetime. *)
type stats = {
  path : string;
  live : int;  (** distinct keys *)
  dead : int;  (** shadowed records awaiting compaction *)
  appends : int;
      (** records written this process; an {!add} of a payload the key
          already holds is not one *)
  probe_hits : int;
  probe_misses : int;
  recovered : int;
  truncated_bytes : int;
  compactions : int;
  file_bytes : int;
  generation : int;  (** bumped by each {!compact} *)
}

val stats : t -> stats

(** {2 Offline inspection} — the [rw store] subcommand's back end.
    These open the file read-only and touch no store state. *)

type verify_report = {
  total_records : int;  (** whole, checksum-valid records *)
  live_records : int;
  dead_records : int;
  file_bytes : int;
  valid_prefix_bytes : int;  (** header + every whole record *)
  checksum_failures : int;
      (** [0] or [1]: framing is lost at the first bad CRC, so the
          scan cannot resynchronise past it *)
  torn_tail_bytes : int;  (** bytes past the valid prefix *)
}

val verify : string -> (verify_report, string) result
(** Full scan, every CRC checked, nothing modified. A report with
    [checksum_failures = 0] and [torn_tail_bytes = 0] is a clean
    log. *)

val crc32 : ?crc:int32 -> bytes -> pos:int -> len:int -> int32
(** The store's CRC-32 (IEEE 802.3, reflected, the zlib polynomial),
    exposed so tests can forge and corrupt records deliberately.
    [?crc] (default [0l]) continues a previous value, so a CRC over
    two chained calls equals the CRC over the concatenation. Computed
    eight bytes at a time (slicing-by-8). Raises [Invalid_argument]
    when [len > 0] and [pos]/[len] leave the buffer. *)
