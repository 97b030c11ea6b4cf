(** The serve loop: newline-delimited JSON requests in, replies out.

    Channel-parametric so tests can drive a server through pipes or
    strings; [rw serve] runs it over stdin/stdout. Every request is
    logged on the [rw.serve] {!Logs} source (op, outcome, latency) —
    logging goes wherever the reporter sends it (stderr in the CLI),
    never onto the reply stream. *)

val src : Logs.src
(** The [rw.serve] log source. *)

val handle_line :
  ?jobs:int -> Service.t -> string -> [ `Reply of Json.t | `Quit of Json.t ]
(** Process one request line: parse, dispatch, build the reply.
    Malformed JSON or an unknown op yields an [ok:false] [`Reply];
    only a well-formed [shutdown] yields [`Quit]. [?jobs] is the
    serve-level default pool width for [batch] requests that do not
    carry their own ["jobs"] field. Exposed for tests. *)

val run : ?ic:in_channel -> ?oc:out_channel -> ?jobs:int -> Service.t -> int
(** Read requests from [ic] (default stdin) until [shutdown] or EOF,
    writing one reply line per request to [oc] (default stdout,
    flushed per reply). [?jobs] as in {!handle_line} ([rw serve
    --jobs]). Returns the process exit code (0 on clean shutdown or
    EOF). *)

(** {2 The socket listener}

    [rw serve --listen] speaks the same NDJSON protocol to many
    concurrent clients over one shared {!Service.t}: one sys-thread
    per connection for framing and I/O, with every engine dispatch
    submitted to a shared {!Rw_pool.Pool} of worker domains via
    {!Rw_pool.Pool.async} — single-query requests route across the
    pool exactly like batch items, and request budgets are the same
    polled deadlines as on the stdio path, so a request degrades the
    same way in either mode.
    Clients are isolated: a parse error is that client's [ok:false]
    reply, a disconnect closes that socket, and a line truncated by a
    mid-stream hangup still gets the documented error object before
    the close. [load_kb] takes a write lock against all in-flight
    queries (the KB slot itself is unsynchronised).

    Shutdown — a [shutdown] request from any client, or SIGTERM —
    stops the acceptor, lets every connection finish and flush its
    in-flight request (new requests on open connections are not read),
    syncs the durable store when one is attached, and joins the pool.
    Per-server counters (active/total/rejected/idle-closed/truncated
    connections, requests served) ride in the [stats] reply under
    ["server"]. *)

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
  ?jobs:int ->
  ?max_clients:int ->
  ?idle_timeout:float ->
  addr:addr ->
  Service.t ->
  int
(** Bind [addr] (a stale Unix socket path is unlinked; TCP sets
    [SO_REUSEADDR]) and serve until shutdown. [?jobs] (default 1) is
    the number of worker domains answering requests; [?max_clients]
    (default 64) bounds concurrent connections — excess connects get
    an [ok:false] reply and an immediate close; [?idle_timeout]
    closes connections silent for that many seconds. Returns the
    process exit code (0 on clean shutdown). *)
