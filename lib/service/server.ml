(** The serve loop — see the interface. *)

let src = Logs.Src.create "rw.serve" ~doc:"rw serve request log"

module Log = (val Logs.src_log src : Logs.LOG)

let origin_tag = function
  | Service.Computed -> "miss"
  | Service.Cached -> "hit"
  | Service.Stored -> "hit-store"
  | Service.Degraded -> "degraded"

(* Which cache level served the answer — [none] is a full dispatch. *)
let tier_tag = function
  | Service.Computed -> "none"
  | Service.Cached -> "lru"
  | Service.Stored -> "store"
  | Service.Degraded -> "degraded"

let served_from_cache = function
  | Service.Cached | Service.Stored -> true
  | Service.Computed | Service.Degraded -> false

let answer_payload (a, origin) elapsed_ms =
  match
    Protocol.json_of_answer ~cached:(served_from_cache origin) ~elapsed_ms a
  with
  | Json.Obj fields ->
    Json.Obj (fields @ [ ("tier", Json.String (tier_tag origin)) ])
  | other -> other

(* One batch reply shape for both serve modes: the stdio loop gets its
   results from [Service.batch_srcs], the listener from per-item pool
   futures. *)
let batch_reply ?id srcs results ms =
  let items =
    List.map2
      (fun qsrc (result, item_ms) ->
        match result with
        | Ok ((_, origin) as hit) ->
          Json.Obj
            [
              ("query", Json.String qsrc);
              ("ok", Json.Bool true);
              ("answer", answer_payload hit item_ms);
              ("cached", Json.Bool (served_from_cache origin));
            ]
        | Error msg ->
          Json.Obj
            [
              ("query", Json.String qsrc);
              ("ok", Json.Bool false);
              ("error", Json.String msg);
            ])
      srcs results
  in
  let failed =
    List.length (List.filter (function Error _, _ -> true | _ -> false) results)
  in
  Log.info (fun m ->
      m "batch of %d (%d failed) %.2fms" (List.length srcs) failed ms);
  `Reply
    (Protocol.ok_reply ?id
       [
         ("answers", Json.List items);
         ("count", Json.Int (List.length srcs));
         ("failed", Json.Int failed);
         ("elapsed_ms", Json.Float ms);
       ])

let handle_request service req =
  let id = Protocol.request_id req in
  let timed f =
    let t0 = Rw_prelude.Clock.now () in
    let r = f () in
    (r, (Rw_prelude.Clock.now () -. t0) *. 1000.0)
  in
  match req with
  | Protocol.Query { src = qsrc; budget; explain; _ } -> begin
    let result, ms =
      timed (fun () ->
          if explain then Service.query_src_explained ?budget service qsrc
          else
            Result.map
              (fun (answer, origin) -> { Service.answer; origin; trace = [] })
              (Service.query_src ?budget service qsrc))
    in
    match result with
    | Ok { Service.answer; origin; trace } ->
      Log.info (fun m ->
          m "query%s %s %.2fms %s"
            (if explain then "+explain" else "")
            (origin_tag origin) ms qsrc);
      `Reply
        (Protocol.ok_reply ?id
           (("answer", answer_payload (answer, origin) ms)
           :: (if explain then [ ("trace", Protocol.json_of_trace trace) ]
               else [])))
    | Error msg ->
      Log.warn (fun m -> m "query error: %s" msg);
      `Reply (Protocol.error_reply ?id msg)
  end
  | Protocol.Batch { srcs; budget; _ } ->
    let results, ms = timed (fun () -> Service.batch_srcs ?budget service srcs) in
    batch_reply ?id srcs results ms
  | Protocol.Load_kb { path; text; _ } -> begin
    let result =
      match (text, path) with
      | Some text, _ -> Service.load_kb_string service text
      | None, Some path -> Service.load_kb_file service path
      | None, None -> Error "load_kb needs a \"path\" or inline \"kb\""
    in
    match result with
    | Ok () ->
      Log.info (fun m ->
          m "load_kb %s" (match path with Some p -> p | None -> "<inline>"));
      `Reply (Protocol.ok_reply ?id [ ("loaded", Json.Bool true) ])
    | Error msg ->
      Log.warn (fun m -> m "load_kb failed: %s" msg);
      `Reply (Protocol.error_reply ?id msg)
  end
  | Protocol.Session_update { action; src = usrc; _ } -> begin
    match Service.update_src service action usrc with
    | Ok ev ->
      Log.info (fun m ->
          m "session_update %s seq=%d revalidated=%d evicted=%d %s"
            ev.Service.action ev.Service.seq ev.Service.revalidated
            ev.Service.evicted usrc);
      `Reply (Protocol.ok_reply ?id (Protocol.session_update_fields ev))
    | Error msg ->
      Log.warn (fun m -> m "session_update failed: %s" msg);
      `Reply (Protocol.error_reply ?id msg)
  end
  | Protocol.Session_log _ ->
    let log = Service.session_log service in
    Log.info (fun m -> m "session_log (%d entries)" (List.length log));
    `Reply
      (Protocol.ok_reply ?id
         [
           ("log", Json.List (List.map Protocol.json_of_session_event log));
           ("count", Json.Int (List.length log));
         ])
  | Protocol.Stats _ ->
    Log.info (fun m -> m "stats");
    `Reply
      (Protocol.ok_reply ?id
         [ ("stats", Protocol.json_of_stats (Service.stats service)) ])
  | Protocol.Persist { compact; _ } -> begin
    match Service.store service with
    | None ->
      Log.warn (fun m -> m "persist: no store attached");
      `Reply (Protocol.error_reply ?id "no store attached")
    | Some store -> (
      match
        if compact then Rw_store.Store.compact store
        else Rw_store.Store.sync store
      with
      | () ->
        Log.info (fun m -> m "persist%s" (if compact then "+compact" else ""));
        `Reply
          (Protocol.ok_reply ?id
             [
               ("persisted", Json.Bool true);
               ("compacted", Json.Bool compact);
               ("store", Protocol.json_of_store_stats (Rw_store.Store.stats store));
             ])
      | exception Sys_error msg ->
        Log.err (fun m -> m "persist failed: %s" msg);
        `Reply (Protocol.error_reply ?id msg))
  end
  | Protocol.Shutdown _ ->
    Log.info (fun m -> m "shutdown");
    `Quit (Protocol.ok_reply ?id [ ("bye", Json.Bool true) ])

(* Parse and decode one NDJSON line, then hand the request to
   [dispatch] — the stdio loop's or the listener's. A line that does
   not decode gets its error reply here, with the echoed id when the
   JSON carried one. *)
let decode_line dispatch line =
  match Json.of_string line with
  | Error msg ->
    Log.warn (fun m -> m "malformed request: %s" msg);
    `Reply (Protocol.error_reply msg)
  | Ok json -> (
    match Protocol.request_of_json json with
    | Error msg ->
      Log.warn (fun m -> m "bad request: %s" msg);
      `Reply (Protocol.error_reply ?id:(Json.member "id" json) msg)
    | Ok req -> dispatch req)

let handle_line service = decode_line (handle_request service)

(* ------------------------------------------------------------------ *)
(* The socket listener                                                *)
(* ------------------------------------------------------------------ *)

type addr = Unix_path of string | Tcp of string * int

(* HOST:PORT with a non-empty host and an in-range integer port is
   TCP; everything else is a filesystem path. (rindex, so IPv6-less
   but colon-bearing paths like ./a:b still resolve as paths when the
   suffix is not a port number.) *)
let parse_addr s =
  match String.rindex_opt s ':' with
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p >= 0 && p < 65536 && host <> "" -> Tcp (host, p)
    | _ -> Unix_path s)
  | None -> Unix_path s

let pp_addr ppf = function
  | Unix_path p -> Fmt.pf ppf "unix:%s" p
  | Tcp (h, p) -> Fmt.pf ppf "%s:%d" h p

type listener = {
  service : Service.t;
  pool : Rw_pool.Pool.t;
  max_clients : int;
  idle_timeout : float option;
  closing : bool Atomic.t;
      (** set by a [shutdown] request or SIGTERM; polled by the accept
          loop and every connection loop between requests *)
  lm : Mutex.t;  (** guards the counters *)
  drained : Condition.t;  (** signalled when [active] reaches 0 *)
  mutable active : int;
  mutable total : int;
  mutable rejected : int;
  mutable idle_closed : int;
  mutable truncated : int;
  mutable conn_requests : int;
}

let counted st bump =
  Mutex.lock st.lm;
  bump st;
  Mutex.unlock st.lm

let server_json st =
  Mutex.lock st.lm;
  let fields =
    [
      ("active", Json.Int st.active);
      ("total", Json.Int st.total);
      ("rejected", Json.Int st.rejected);
      ("idle_closed", Json.Int st.idle_closed);
      ("truncated", Json.Int st.truncated);
      ("requests", Json.Int st.conn_requests);
      ("max_clients", Json.Int st.max_clients);
      ( "idle_timeout",
        match st.idle_timeout with
        | Some t -> Json.Float t
        | None -> Json.Null );
      ("jobs", Json.Int (Rw_pool.Pool.jobs st.pool));
    ]
  in
  Mutex.unlock st.lm;
  Json.Obj fields

(* Per-request routing in listen mode. Connection threads all live on
   the main domain and share its domain-local state — budget deadlines
   and the pool's worker flag — so anything that dispatches an engine
   MUST run on a worker domain, never on the connection thread; the
   request's budget is installed there and polled by the engines
   exactly as on the stdio path. Batch items fan out as independent
   futures on the shared pool ([Service.batch_srcs] would run items on
   the connection thread). No query path takes a lock here: each query
   (and each batch item) answers for the one KB snapshot it read.
   [load_kb] and [session_update] run on the connection thread — the
   service's session mutex serialises them, and the revalidation
   walk's rules rechecks are purely syntactic — and publish the next
   snapshot when their cache work is done. Stats, persist and shutdown
   are mutex-guarded and cheap, so they answer from the connection
   thread directly. *)
let listen_dispatch st req =
  let id = Protocol.request_id req in
  match req with
  | Protocol.Query _ ->
    Rw_pool.Pool.await
      (Rw_pool.Pool.async st.pool (fun () -> handle_request st.service req))
  | Protocol.Batch { id; srcs; budget } ->
    let t0 = Rw_prelude.Clock.now () in
    let futures =
      List.map
        (fun qsrc ->
          Rw_pool.Pool.async st.pool (fun () ->
              let t0 = Rw_prelude.Clock.now () in
              let r = Service.query_src ?budget st.service qsrc in
              (r, (Rw_prelude.Clock.now () -. t0) *. 1000.0)))
        srcs
    in
    let results = List.map Rw_pool.Pool.await futures in
    let ms = (Rw_prelude.Clock.now () -. t0) *. 1000.0 in
    batch_reply ?id srcs results ms
  | Protocol.Stats _ -> begin
    Log.info (fun m -> m "stats");
    let stats_json =
      match Protocol.json_of_stats (Service.stats st.service) with
      | Json.Obj fields -> Json.Obj (fields @ [ ("server", server_json st) ])
      | other -> other
    in
    `Reply (Protocol.ok_reply ?id [ ("stats", stats_json) ])
  end
  | Protocol.Load_kb _ | Protocol.Session_update _ | Protocol.Session_log _
  | Protocol.Persist _ | Protocol.Shutdown _ ->
    handle_request st.service req

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

(* A reply to a client that already hung up is their loss, not a
   server crash (SIGPIPE is ignored; EPIPE lands here). *)
let emit_fd fd reply =
  match write_all fd (Json.to_string reply ^ "\n") with
  | () -> ()
  | exception Unix.Unix_error _ -> ()

(* NDJSON framing over raw reads: only the [n] new bytes are scanned
   for newlines, and [pending] holds just the unterminated tail, so a
   long line costs time linear in its length however many reads it
   spans. *)
let frame pending chunk n on_line =
  let rec go start i =
    if i >= n then begin
      Buffer.add_subbytes pending chunk start (n - start);
      `Continue
    end
    else if Bytes.get chunk i <> '\n' then go start (i + 1)
    else begin
      Buffer.add_subbytes pending chunk start (i - start);
      let line = Buffer.contents pending in
      Buffer.clear pending;
      match on_line line with
      | `Continue -> go (i + 1) (i + 1)
      | `Close -> `Close
    end
  in
  go 0 0

let max_line_bytes = 1 lsl 20

(* The per-connection loop: select-with-timeout framing so the thread
   can notice [closing] and the idle deadline between reads. One
   request is processed at a time per connection; [closing] is only
   checked between requests, which is exactly the drain contract — an
   in-flight request always finishes and its reply is flushed. A line
   longer than [max_line_bytes] gets an error reply and the connection
   is closed, so one connection holds at most that much plus one read
   of unterminated input. *)
let conn_loop st fd =
  let chunk = Bytes.create 8192 in
  let pending = Buffer.create 256 in
  (* Monotonic, so a wall-clock step can neither fire nor postpone an
     idle timeout. *)
  let now = Rw_pool.Budget.now in
  let last_activity = ref (now ()) in
  let refuse_oversized () =
    Log.warn (fun m -> m "request line over %d bytes; closing" max_line_bytes);
    emit_fd fd
      (Protocol.error_reply
         (Printf.sprintf "request line exceeds %d bytes; closing connection"
            max_line_bytes))
  in
  let process_line line =
    if String.length line > max_line_bytes then begin
      refuse_oversized ();
      `Close
    end
    else if String.trim line = "" then `Continue
    else begin
      counted st (fun st -> st.conn_requests <- st.conn_requests + 1);
      match decode_line (listen_dispatch st) line with
      | `Reply reply ->
        emit_fd fd reply;
        `Continue
      | `Quit reply ->
        emit_fd fd reply;
        Atomic.set st.closing true;
        `Close
    end
  in
  let idle_expired () =
    match st.idle_timeout with
    | Some t -> now () -. !last_activity > t
    | None -> false
  in
  let rec loop () =
    if Atomic.get st.closing then ()
    else
      match Unix.select [ fd ] [] [] 0.25 with
      | [], _, _ ->
        if idle_expired () then begin
          counted st (fun st -> st.idle_closed <- st.idle_closed + 1);
          emit_fd fd (Protocol.error_reply "idle timeout; closing connection")
        end
        else loop ()
      | _ -> (
        let n =
          try Unix.read fd chunk 0 (Bytes.length chunk)
          with Unix.Unix_error _ -> 0
        in
        last_activity := now ();
        if n = 0 then begin
          (* EOF. A non-empty remainder is a truncated NDJSON line —
             the client hung up (or shut down its write side) without
             the newline. The contract says every line gets a reply
             object, so run it through the normal path: malformed JSON
             yields the documented {"ok":false,"error":...} object,
             and a line that merely lost its newline still gets its
             real answer. *)
          if String.trim (Buffer.contents pending) <> "" then begin
            counted st (fun st -> st.truncated <- st.truncated + 1);
            Log.warn (fun m -> m "connection closed mid-line; replying anyway");
            ignore (process_line (Buffer.contents pending));
            Buffer.clear pending
          end
        end
        else begin
          match frame pending chunk n process_line with
          | `Continue when Buffer.length pending > max_line_bytes ->
            refuse_oversized ()
          | `Continue -> loop ()
          | `Close -> ()
        end)
  in
  loop ()

let conn_main st fd =
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Mutex.lock st.lm;
      st.active <- st.active - 1;
      Condition.broadcast st.drained;
      Mutex.unlock st.lm)
    (fun () ->
      try conn_loop st fd
      with e ->
        (* One client's failure never takes the server down. *)
        Log.warn (fun m -> m "connection error: %s" (Printexc.to_string e)))

let sockaddr = function
  | Unix_path path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found ->
          raise (Unix.Unix_error (Unix.EINVAL, "gethostbyname", host)))
    in
    Unix.ADDR_INET (inet, port)

let bind_addr addr =
  match sockaddr addr with
  | Unix.ADDR_UNIX path as sa ->
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try if Sys.file_exists path then Unix.unlink path
     with Sys_error _ | Unix.Unix_error _ -> ());
    Unix.bind sock sa;
    sock
  | Unix.ADDR_INET _ as sa ->
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    Unix.bind sock sa;
    sock

let listen ?(max_clients = 64) ?idle_timeout ~addr service =
  if max_clients < 1 then invalid_arg "Server.listen: max_clients must be >= 1";
  let pool =
    try Option.get (Service.pool service)
    with Invalid_argument _ -> invalid_arg "Server.listen: no pool"
  in
  (* A mid-write disconnect must be an EPIPE to handle, not a fatal
     signal; and concurrent connection threads share one Logs
     reporter, which is not reentrant. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let log_m = Mutex.create () in
  Logs.set_reporter_mutex
    ~lock:(fun () -> Mutex.lock log_m)
    ~unlock:(fun () -> Mutex.unlock log_m);
  let sock = bind_addr addr in
  Unix.listen sock 64;
  let st =
    {
      service;
      pool;
      max_clients;
      idle_timeout;
      closing = Atomic.make false;
      lm = Mutex.create ();
      drained = Condition.create ();
      active = 0;
      total = 0;
      rejected = 0;
      idle_closed = 0;
      truncated = 0;
      conn_requests = 0;
    }
  in
  (* SIGTERM is a polite shutdown request: the handler only flips the
     atomic (no locks — it may interrupt a thread holding one). *)
  let prev_term =
    try
      Some
        (Sys.signal Sys.sigterm
           (Sys.Signal_handle (fun _ -> Atomic.set st.closing true)))
    with Invalid_argument _ | Sys_error _ -> None
  in
  Log.info (fun m ->
      m "listening on %a (jobs=%d, max_clients=%d%s)" pp_addr addr
        (Rw_pool.Pool.jobs pool)
        max_clients
        (match idle_timeout with
        | Some t -> Fmt.str ", idle_timeout=%gs" t
        | None -> ""));
  let rec accept_loop () =
    if Atomic.get st.closing then ()
    else
      match Unix.select [ sock ] [] [] 0.25 with
      | [], _, _ -> accept_loop ()
      | _ -> (
        match Unix.accept sock with
        | exception Unix.Unix_error _ -> accept_loop ()
        | fd, _peer ->
          Mutex.lock st.lm;
          let admitted = st.active < st.max_clients in
          if admitted then begin
            st.active <- st.active + 1;
            st.total <- st.total + 1
          end
          else st.rejected <- st.rejected + 1;
          Mutex.unlock st.lm;
          if admitted then
            ignore (Thread.create (fun () -> conn_main st fd) ())
          else begin
            Log.warn (fun m ->
                m "rejecting connection: %d clients connected" max_clients);
            emit_fd fd
              (Protocol.error_reply "server at capacity; try again later");
            try Unix.close fd with Unix.Unix_error _ -> ()
          end;
          accept_loop ())
  in
  accept_loop ();
  (* Stop accepting, then drain: every connection thread notices
     [closing] after finishing (and flushing) its in-flight request. *)
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (match addr with
  | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  Mutex.lock st.lm;
  while st.active > 0 do
    Condition.wait st.drained st.lm
  done;
  Mutex.unlock st.lm;
  (match Service.store service with
  | Some store -> ( try Rw_store.Store.sync store with Sys_error _ -> ())
  | None -> ());
  (match prev_term with
  | Some h -> ( try Sys.set_signal Sys.sigterm h with Invalid_argument _ -> ())
  | None -> ());
  Log.info (fun m ->
      m "drained %d requests across %d connections; store persisted"
        st.conn_requests st.total);
  0

let run ?(ic = stdin) ?(oc = stdout) service =
  let emit reply =
    output_string oc (Json.to_string reply);
    output_char oc '\n';
    flush oc
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file ->
      Log.info (fun m -> m "eof; exiting");
      0
    | line when String.trim line = "" -> loop ()
    | line -> (
      match handle_line service line with
      | `Reply reply ->
        emit reply;
        loop ()
      | `Quit reply ->
        emit reply;
        0)
  in
  loop ()
