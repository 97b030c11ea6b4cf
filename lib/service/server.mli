(** The serve loop: newline-delimited JSON requests in, replies out.

    Channel-parametric so tests can drive a server through pipes or
    strings; [rw serve] runs it over stdin/stdout. Every request is
    logged on the [rw.serve] {!Logs} source (op, outcome, latency) —
    logging goes wherever the reporter sends it (stderr in the CLI),
    never onto the reply stream. *)

val src : Logs.src
(** The [rw.serve] log source. *)

val handle_line : Service.t -> string -> [ `Reply of Json.t | `Quit of Json.t ]
(** Process one request line: parse, dispatch, build the reply.
    Malformed JSON or an unknown op yields an [ok:false] [`Reply];
    only a well-formed [shutdown] yields [`Quit]. [batch] requests fan
    out on the service's pool ({!Service.batch_srcs}). Exposed for
    tests. *)

val frame :
  Buffer.t ->
  bytes ->
  int ->
  (string -> [ `Continue | `Close ]) ->
  [ `Continue | `Close ]
(** [frame pending chunk n on_line] — the NDJSON framing of both serve
    modes.
    Appends the first [n] bytes of [chunk] to the unterminated line
    held in [pending], calling [on_line] on every line a newline
    completes (newline stripped) until one returns [`Close]; the tail
    after the last newline stays in [pending]. Only the new bytes are
    scanned, so framing is linear in the bytes read, however many
    reads a line spans. Exposed for tests. *)

val run : ?ic:in_channel -> ?oc:out_channel -> Service.t -> int
(** Read requests from [ic] (default stdin) until [shutdown] or EOF,
    writing one reply line per request to [oc] (default stdout,
    flushed per reply), each through {!handle_line}. A line longer
    than {!max_line_bytes} gets the listener's [ok:false] reply and
    ends the session. Returns the process exit code: 0 on clean
    shutdown or EOF, 1 after an oversized line. *)

(** {2 The socket listener}

    [rw serve --listen] speaks the same NDJSON protocol to many
    concurrent clients over one shared {!Service.t}: one sys-thread
    per connection for framing and I/O, with every engine dispatch
    submitted via {!Rw_pool.Pool.async} to the service's borrowed pool
    ({!Service.pool}) — single-query requests route across the pool
    exactly like batch items, and request budgets are the same polled
    deadlines as on the stdio path, so a request degrades the same way
    in either mode.
    Clients are isolated: a parse error is that client's [ok:false]
    reply, a disconnect closes that socket, a line truncated by a
    mid-stream hangup still gets the documented error object before
    the close, and a line longer than {!max_line_bytes} gets an
    [ok:false] reply and a close. No query takes a lock: each query
    answers for the one KB snapshot it read ({!Service}), while
    [load_kb] and [session_update] publish the next snapshot without
    waiting for in-flight queries.

    Shutdown — a [shutdown] request from any client, or SIGTERM —
    stops the acceptor, lets every connection finish and flush its
    in-flight request (new requests on open connections are not read),
    and syncs the durable store when one is attached.
    Per-server counters (active/total/rejected/idle-closed/truncated
    connections, requests served) ride in the [stats] reply under
    ["server"]. *)

val max_line_bytes : int
(** The longest request line (newline excluded) a client may send,
    over a listener connection or to {!run}: 1 MiB. *)

type addr = Unix_path of string | Tcp of string * int

val parse_addr : string -> addr
(** [HOST:PORT] with a non-empty host and in-range integer port is
    {!Tcp}; anything else is a {!Unix_path} filesystem socket path. *)

val pp_addr : Format.formatter -> addr -> unit

val sockaddr : addr -> Unix.sockaddr
(** Resolve to a connectable/bindable address ([gethostbyname] for
    non-numeric TCP hosts; raises [Unix.Unix_error] on resolution
    failure). Shared by {!listen} and the [rw client] connector. *)

val listen :
  ?max_clients:int ->
  ?idle_timeout:float ->
  addr:addr ->
  Service.t ->
  int
(** Bind [addr] (a stale Unix socket path is unlinked; TCP sets
    [SO_REUSEADDR]) and serve until shutdown. Requests run on the
    service's pool; raises [Invalid_argument] if it has none.
    [?max_clients]
    (default 64) bounds concurrent connections — excess connects get
    an [ok:false] reply and an immediate close; [?idle_timeout]
    closes connections silent for that many seconds. Returns the
    process exit code (0 on clean shutdown). *)
