(** NDJSON protocol codecs — see the interface. *)

open Randworlds

type request =
  | Query of {
      id : Json.t option;
      src : string;
      budget : float option;
      explain : bool;
    }
  | Batch of {
      id : Json.t option;
      srcs : string list;
      budget : float option;
    }
  | Load_kb of { id : Json.t option; path : string option; text : string option }
  | Session_update of {
      id : Json.t option;
      action : Service.update_action;
      src : string;
    }
  | Session_log of { id : Json.t option }
  | Stats of { id : Json.t option }
  | Persist of { id : Json.t option; compact : bool }
  | Shutdown of { id : Json.t option }

let request_id = function
  | Query { id; _ } | Batch { id; _ } | Load_kb { id; _ }
  | Session_update { id; _ } | Session_log { id } | Stats { id }
  | Persist { id; _ } | Shutdown { id } ->
    id

let request_of_json json =
  let id = Json.member "id" json in
  let budget = Option.bind (Json.member "budget" json) Json.to_float in
  match Option.bind (Json.member "op" json) Json.to_str with
  | None -> Error "missing \"op\" field"
  | Some "query" -> (
    match Option.bind (Json.member "query" json) Json.to_str with
    | Some src ->
      let explain =
        match Option.bind (Json.member "explain" json) Json.to_bool with
        | Some b -> b
        | None -> false
      in
      Ok (Query { id; src; budget; explain })
    | None -> Error "\"query\" op needs a string \"query\" field")
  | Some "batch" -> (
    match Option.bind (Json.member "queries" json) Json.to_list with
    | Some items -> (
      let srcs = List.filter_map Json.to_str items in
      if List.length srcs = List.length items then
        Ok (Batch { id; srcs; budget })
      else Error "\"queries\" must be a list of strings")
    | None -> Error "\"batch\" op needs a \"queries\" list")
  | Some "load_kb" -> (
    let path = Option.bind (Json.member "path" json) Json.to_str in
    let text = Option.bind (Json.member "kb" json) Json.to_str in
    match (path, text) with
    | None, None -> Error "\"load_kb\" op needs a \"path\" or inline \"kb\""
    | _ -> Ok (Load_kb { id; path; text }))
  | Some "session_update" -> (
    let action =
      match Option.bind (Json.member "action" json) Json.to_str with
      | Some "assert" -> Ok Service.Assert
      | Some "retract" -> Ok Service.Retract
      | Some a -> Error (Printf.sprintf "unknown session_update action %S" a)
      | None ->
        Error "\"session_update\" op needs an \"action\" (assert|retract)"
    in
    match (action, Option.bind (Json.member "src" json) Json.to_str) with
    | Error e, _ -> Error e
    | Ok _, None -> Error "\"session_update\" op needs a string \"src\" field"
    | Ok action, Some src -> Ok (Session_update { id; action; src }))
  | Some "session_log" -> Ok (Session_log { id })
  | Some "stats" -> Ok (Stats { id })
  | Some "persist" ->
    let compact =
      Option.value ~default:false
        (Option.bind (Json.member "compact" json) Json.to_bool)
    in
    Ok (Persist { id; compact })
  | Some "shutdown" -> Ok (Shutdown { id })
  | Some op -> Error (Printf.sprintf "unknown op %S" op)

(* ------------------------------------------------------------------ *)
(* Encoders                                                           *)
(* ------------------------------------------------------------------ *)

(* The answer/trace codecs live in {!Codec} (the service needs them
   below this layer, to persist and replay store payloads); the
   protocol re-exports them so wire consumers keep one import. *)
let json_of_answer = Codec.json_of_answer
let json_of_trace = Codec.json_of_trace
let trace_of_json = Codec.trace_of_json

let json_of_store_stats (s : Rw_store.Store.stats) =
  Json.Obj
    [
      ("path", Json.String s.Rw_store.Store.path);
      ("live", Json.Int s.Rw_store.Store.live);
      ("dead", Json.Int s.Rw_store.Store.dead);
      ("write_throughs", Json.Int s.Rw_store.Store.appends);
      ("probe_hits", Json.Int s.Rw_store.Store.probe_hits);
      ("probe_misses", Json.Int s.Rw_store.Store.probe_misses);
      ("recovered", Json.Int s.Rw_store.Store.recovered);
      ("truncated_bytes", Json.Int s.Rw_store.Store.truncated_bytes);
      ("compactions", Json.Int s.Rw_store.Store.compactions);
      ("file_bytes", Json.Int s.Rw_store.Store.file_bytes);
      ("generation", Json.Int s.Rw_store.Store.generation);
    ]

let json_of_compiled_stats (c : Service.compiled_stats) =
  Json.Obj
    [
      ("hits", Json.Int c.Service.hits);
      ("misses", Json.Int c.Service.misses);
      ("compiles", Json.Int c.Service.compiles);
      ("compile_ms_total", Json.Float c.Service.compile_ms_total);
    ]

let session_update_fields (e : Service.session_event) =
  [
    ("seq", Json.Int e.Service.seq);
    ("digest", Json.String e.Service.digest_after);
    ("changed", Json.Bool e.Service.changed);
    ("revalidated", Json.Int e.Service.revalidated);
    ("evicted", Json.Int e.Service.evicted);
    ("artifact", Json.String e.Service.artifact);
    ("elapsed_ms", Json.Float e.Service.elapsed_ms);
  ]

let json_of_session_event (e : Service.session_event) =
  Json.Obj
    [
      ("seq", Json.Int e.Service.seq);
      ("action", Json.String e.Service.action);
      ("src", Json.String e.Service.src);
      ("digest_before", Json.String e.Service.digest_before);
      ("digest_after", Json.String e.Service.digest_after);
      ("changed", Json.Bool e.Service.changed);
      ("revalidated", Json.Int e.Service.revalidated);
      ("evicted", Json.Int e.Service.evicted);
      ("artifact", Json.String e.Service.artifact);
      ("elapsed_ms", Json.Float e.Service.elapsed_ms);
    ]

let json_of_session_stats (s : Service.session_stats) =
  Json.Obj
    [
      ("updates", Json.Int s.Service.updates);
      ("asserts", Json.Int s.Service.asserts);
      ("retracts", Json.Int s.Service.retracts);
      ("revalidated", Json.Int s.Service.revalidated);
      ("update_evicted", Json.Int s.Service.update_evicted);
      ("swap_reclaimed", Json.Int s.Service.swap_reclaimed);
      ("artifact_carries", Json.Int s.Service.artifact_carries);
      ("log_entries", Json.Int s.Service.log_entries);
    ]

let json_of_stats_fields (s : Service.stats) =
  [
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int s.Service.cache.Lru.hits);
            ("misses", Json.Int s.Service.cache.Lru.misses);
            ("evictions", Json.Int s.Service.cache.Lru.evictions);
            ("removed", Json.Int s.Service.cache.Lru.removed);
            ("size", Json.Int s.Service.cache.Lru.size);
            ("capacity", Json.Int s.Service.cache.Lru.capacity);
          ] );
      ( "engines",
        Json.List
          (List.map
             (fun (e : Instr.entry) ->
               Json.Obj
                 [
                   ("engine", Json.String e.Instr.engine);
                   ("dispatches", Json.Int e.Instr.count);
                   ("seconds", Json.Float e.Instr.seconds);
                 ])
             s.Service.engines) );
      ("queries", Json.Int s.Service.queries);
      ("timeouts", Json.Int s.Service.timeouts);
      ("kb_loads", Json.Int s.Service.kb_loads);
      ( "latency_ms",
        Json.Obj
          [
            ("requests", Json.Int s.Service.latency.Service.requests);
            ("mean", Json.Float s.Service.latency.Service.mean_ms);
            ("p50", Json.Float s.Service.latency.Service.p50_ms);
            ("p95", Json.Float s.Service.latency.Service.p95_ms);
            ("max", Json.Float s.Service.latency.Service.max_ms);
          ] );
      ("compiled", json_of_compiled_stats s.Service.compiled);
    ]
    @ (match s.Service.store with
      | None -> []
      | Some st -> [ ("store", json_of_store_stats st) ])
    @ [ ("session", json_of_session_stats s.Service.session) ]

let json_of_stats s = Json.Obj (json_of_stats_fields s)

(* ------------------------------------------------------------------ *)
(* Replies                                                            *)
(* ------------------------------------------------------------------ *)

let with_id id fields =
  match id with Some id -> ("id", id) :: fields | None -> fields

let ok_reply ?id payload = Json.Obj (with_id id (("ok", Json.Bool true) :: payload))

let error_reply ?id msg =
  Json.Obj (with_id id [ ("ok", Json.Bool false); ("error", Json.String msg) ])
