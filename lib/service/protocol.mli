(** The NDJSON serve protocol: request shapes, and the JSON encoders
    shared between [rw serve], [rw batch --json] and [rw query
    --json].

    One request per line on stdin, one reply per line on stdout.
    Requests are objects with an ["op"] field:

    {v
  {"op":"load_kb","path":"examples/kb/hepatitis.kb"}   load from disk
  {"op":"load_kb","kb":"Jaun(Eric) /\\ ..."}           inline KB text
  {"op":"query","query":"Hep(Eric)","budget":0.5}      one query
  {"op":"batch","queries":["Hep(Eric)","~Hep(Eric)"]}
                                          many queries, domain pool
  {"op":"session_update","action":"assert",
   "src":"Jaun(Dana)"}                    belief change, delta-aware
  {"op":"session_update","action":"retract","src":"Jaun(Dana)"}
  {"op":"session_log"}                    every KB mutation so far
  {"op":"stats"}                                       counters
  {"op":"persist"}                        fsync the durable store
  {"op":"persist","compact":true}         ... and compact it
  {"op":"shutdown"}                                    clean exit
    v}

    Every request may carry an ["id"] (any JSON value), echoed
    verbatim in the reply. Every reply has ["ok"] — [true] with the
    op's payload, or [false] with an ["error"] string; a malformed
    line yields an [ok:false] reply rather than killing the session. *)

open Randworlds

type request =
  | Query of {
      id : Json.t option;
      src : string;
      budget : float option;
      explain : bool;  (** attach the derivation trace to the reply *)
    }
  | Batch of {
      id : Json.t option;
      srcs : string list;
      budget : float option;
    }
      (** fans out on the server's one pool ([rw serve --jobs]); a
          wire ["jobs"] field is ignored *)
  | Load_kb of { id : Json.t option; path : string option; text : string option }
  | Session_update of {
      id : Json.t option;
      action : Service.update_action;
      src : string;  (** KB-file syntax; multi-statement text allowed *)
    }
      (** incremental belief change against the resident KB
          ({!Service.update_src}): evicts exactly the cache entries the
          delta can affect, revalidates the rest under the new digest *)
  | Session_log of { id : Json.t option }
      (** the session's mutation history ({!Service.session_log}) *)
  | Stats of { id : Json.t option }
  | Persist of { id : Json.t option; compact : bool }
      (** force the durable answer store to disk; [compact] also
          rewrites it dead-record-free. [ok:false] when the service
          has no store attached. *)
  | Shutdown of { id : Json.t option }

val request_of_json : Json.t -> (request, string) result

val request_id : request -> Json.t option

(** {2 Encoders} *)

val json_of_answer :
  ?cached:bool -> ?elapsed_ms:float -> Answer.t -> Json.t
(** The one answer encoding every [--json] surface shares:
    [{"result":{"kind":...},"engine":...,"notes":[...]}], plus
    ["cached"]/["elapsed_ms"] when given. Point results carry
    ["value"]; intervals ["lo"]/["hi"]; the failure kinds carry
    ["why"]. *)

val json_of_stats : Service.stats -> Json.t
(** The serve [stats] payload; includes a ["compiled"] object
    (compiled-KB artifact cache hits/misses/evictions/size/capacity,
    compile count and total compile milliseconds) when the compiled
    tier is enabled, a ["store"] object (see {!json_of_store_stats})
    when a durable tier is attached, and always a ["session"] object
    (update/revalidation/eviction/reclaim counters). *)

val session_update_fields : Service.session_event -> (string * Json.t) list
(** The [session_update] reply payload, from the event the update
    logged: [seq], [digest] (the digest after), [changed],
    [revalidated], [evicted], [artifact] and [elapsed_ms]. *)

val json_of_session_event : Service.session_event -> Json.t
(** One [session_log] entry, mirroring {!Service.session_event}. *)

val json_of_session_stats : Service.session_stats -> Json.t

val json_of_store_stats : Rw_store.Store.stats -> Json.t
(** The durable tier's counters: live/dead record counts,
    write-throughs, probe hits/misses, recovery truncations,
    compaction generation, file bytes. Shared by the serve [stats] /
    [persist] replies and [rw store stats]. *)

val json_of_trace : Rw_trace.Trace.event list -> Json.t
(** The stable [--explain-json] schema: a flat list, one object per
    event, discriminated by ["ev"] —
    [{"ev":"enter","phase":…}], [{"ev":"leave","phase":…,"ms":…}], and
    [{"ev":"fact","tag":…, …flattened fields}] (string / float / int /
    bool values as emitted). NDJSON-friendly: the list is a single
    line inside the reply object. *)

val trace_of_json : Json.t -> (Rw_trace.Trace.event list, string) result
(** Decode {!json_of_trace} output. Whole-valued floats may come back
    as ints (the wire format does not distinguish them); tags, phases
    and string fields round-trip exactly — enough for the fuzz
    oracle's [selected_engine] consistency check. *)

(** {2 Replies} *)

val ok_reply : ?id:Json.t -> (string * Json.t) list -> Json.t
(** [{"ok":true, ...payload}] with the echoed [id] first. *)

val error_reply : ?id:Json.t -> string -> Json.t
(** [{"ok":false,"error":msg}]. *)
