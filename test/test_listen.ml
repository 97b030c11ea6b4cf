(* Tests for the socket listener: concurrent clients sharing one
   service (compile-once, cache coherence, byte-identical answers vs
   the single-connection path), per-client isolation (truncated lines,
   capacity rejection, idle timeout), and the shutdown drain/persist
   contract.

   Every test runs a real listener on a Unix socket in a temp
   directory, driven by raw client sockets from sys-threads — the same
   machinery [rw serve --listen] and [rw client] use. *)

module Json = Rw_service.Json
module Service = Rw_service.Service
module Server = Rw_service.Server

let kb_path () =
  let candidates =
    [
      "../examples/kb/hepatitis.kb";
      "examples/kb/hepatitis.kb";
      "../../examples/kb/hepatitis.kb";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail "examples/kb/hepatitis.kb not found"

let fresh_sock_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rw-test-%d-%d.sock" (Unix.getpid ()) !n)

(* A service borrowing a fresh width-2 pool, as [rw serve --jobs 2]
   makes one; the listener thread shuts it down when the listener
   returns. The pool starts no domain until a request needs one. *)
let pooled ?config ?store () =
  Service.create ?config ?store ~pool:(Rw_pool.Pool.create ~jobs:2) ()

(* The shared serve config: no budget, default caches. *)
let make_service ?store () =
  let svc = pooled ?store () in
  (match Service.load_kb_file svc (kb_path ()) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "load_kb: %s" msg);
  svc

type listener = {
  path : string;
  thread : Thread.t;  (** joins when the listener drains and returns *)
}

let start_listener ?(max_clients = 64) ?idle_timeout svc =
  let path = fresh_sock_path () in
  let thread =
    Thread.create
      (fun () ->
        let code =
          Fun.protect
            ~finally:(fun () ->
              Option.iter Rw_pool.Pool.shutdown (Service.pool svc))
            (fun () ->
              Server.listen ~max_clients ?idle_timeout
                ~addr:(Server.Unix_path path) svc)
        in
        Alcotest.(check int) "listener exit code" 0 code)
      ()
  in
  { path; thread }

(* Connect with retries: the listener thread races the client past
   bind. *)
let connect path =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "cannot connect to %s" path
      else begin
        Thread.delay 0.02;
        go ()
      end
  in
  go ()

let send fd line =
  let b = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

(* Read one reply line (byte-at-a-time is plenty for tests). [None] on
   EOF before any newline with an empty read buffer. *)
let recv fd =
  let buf = Buffer.create 128 in
  let one = Bytes.create 1 in
  let rec go () =
    match Unix.read fd one 0 1 with
    | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
    | _ ->
      if Bytes.get one 0 = '\n' then Some (Buffer.contents buf)
      else begin
        Buffer.add_char buf (Bytes.get one 0);
        go ()
      end
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> None
  in
  go ()

let request fd line =
  send fd line;
  match recv fd with
  | Some reply -> reply
  | None -> Alcotest.failf "no reply to %s" line

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Retry until acknowledged: a connect can race a still-counted
   previous connection (max_clients) and get the rejection reply
   instead. *)
let shutdown_server path =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    let fd = connect path in
    let acknowledged =
      match
        send fd {|{"op":"shutdown"}|};
        recv fd
      with
      | Some reply -> (
        match Json.of_string reply with
        | Ok j -> Json.member "ok" j = Some (Json.Bool true)
        | Error _ -> false)
      | None -> false
      | exception Unix.Unix_error _ -> false
    in
    close fd;
    if not acknowledged then
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "shutdown never acknowledged"
      else begin
        Thread.delay 0.05;
        go ()
      end
  in
  go ()

(* The comparable core of an answer: everything except the fields that
   legitimately vary with how it was served (latency, which cache tier
   answered). The verdict, engine and notes must be byte-identical
   however the request travelled. *)
let comparable_answer reply_line =
  match Json.of_string reply_line with
  | Error msg -> Alcotest.failf "unparsable reply %s: %s" reply_line msg
  | Ok j -> (
    match Json.member "answer" j with
    | Some (Json.Obj fields) ->
      Json.to_string
        (Json.Obj
           (List.filter
              (fun (k, _) ->
                k <> "elapsed_ms" && k <> "cached" && k <> "tier")
              fields))
    | _ -> Alcotest.failf "reply without answer object: %s" reply_line)

(* ------------------------------------------------------------------ *)
(* Concurrent clients: compile-once, coherence, identical answers     *)
(* ------------------------------------------------------------------ *)

let queries =
  [
    "Hep(Eric)";
    "~Hep(Eric)";
    "Hep(Eric) \\/ ~Hep(Eric)";
    "Jaun(Eric) /\\ Hep(Eric)";
    "Jaun(Eric)";
  ]

let query_line q = Json.to_string (Json.Obj [ ("op", Json.String "query"); ("query", Json.String q) ])

let test_concurrent_clients () =
  (* Single-connection reference: the stdio handler over a fresh
     service — what one lone client would have been told. *)
  let reference =
    let svc = make_service () in
    List.map
      (fun q ->
        match Server.handle_line svc (query_line q) with
        | `Reply reply -> comparable_answer (Json.to_string reply)
        | `Quit _ -> Alcotest.fail "unexpected quit")
      queries
  in
  let svc = make_service () in
  let l = start_listener svc in
  let n_clients = 4 in
  let results = Array.make n_clients [] in
  let errors = Array.make n_clients None in
  let clients =
    List.init n_clients (fun i ->
        Thread.create
          (fun () ->
            try
              let fd = connect l.path in
              (* Overlapping same-KB queries from every client, each
                 connection its own order. *)
              let mine =
                if i mod 2 = 0 then queries else List.rev queries
              in
              let replies =
                List.map (fun q -> (q, request fd (query_line q))) mine
              in
              close fd;
              results.(i) <- replies
            with e -> errors.(i) <- Some (Printexc.to_string e))
          ())
  in
  List.iter Thread.join clients;
  Array.iteri
    (fun i -> function
      | Some e -> Alcotest.failf "client %d failed: %s" i e
      | None -> ())
    errors;
  (* Byte-identical verdicts vs the single-connection session. *)
  let expected = List.combine queries reference in
  Array.iter
    (List.iter (fun (q, reply) ->
         Alcotest.(check string)
           (Printf.sprintf "answer for %s" q)
           (List.assoc q expected) (comparable_answer reply)))
    results;
  (* Compile-once and cache coherence, straight from the stats op. *)
  let fd = connect l.path in
  let stats_reply = request fd {|{"op":"stats"}|} in
  close fd;
  let stats =
    match Json.of_string stats_reply with
    | Ok j -> Option.get (Json.member "stats" j)
    | Error msg -> Alcotest.failf "stats reply: %s" msg
  in
  let compiled = Option.get (Json.member "compiled" stats) in
  Alcotest.(check (option int))
    "one shared KB artifact compiled" (Some 1)
    (Option.bind (Json.member "compiles" compiled) Json.to_int);
  let cache = Option.get (Json.member "cache" stats) in
  let get field j = Option.bind (Json.member field j) Json.to_int in
  (* 4 clients x 5 queries = 20 requests over 5 distinct digests: the
     cache must have served everything it had seen before. *)
  (match (get "hits" cache, get "misses" cache) with
  | Some hits, Some misses ->
    Alcotest.(check int) "every query answered" 20 (hits + misses);
    Alcotest.(check bool)
      (Printf.sprintf "cold misses bounded by distinct digests (%d)" misses)
      true
      (misses >= 5 && misses <= 5 + 15)
  | _ -> Alcotest.fail "cache stats missing");
  let server = Option.get (Json.member "server" stats) in
  Alcotest.(check (option int))
    "all connections counted" (Some (n_clients + 1))
    (get "total" server);
  shutdown_server l.path;
  Thread.join l.thread

(* With the LRU disabled the answers must still be identical — every
   request is a full dispatch, so this pins determinism of the engine
   path itself under concurrency, not cache coherence. *)
let test_concurrent_no_cache () =
  let config = { Service.default_config with Service.cache_capacity = 0 } in
  let svc = pooled ~config () in
  (match Service.load_kb_file svc (kb_path ()) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "load_kb: %s" msg);
  let reference =
    let svc2 = Service.create ~config () in
    (match Service.load_kb_file svc2 (kb_path ()) with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "load_kb: %s" msg);
    match Server.handle_line svc2 (query_line "Hep(Eric)") with
    | `Reply reply -> comparable_answer (Json.to_string reply)
    | `Quit _ -> Alcotest.fail "unexpected quit"
  in
  let l = start_listener svc in
  let replies = Array.make 4 "" in
  let clients =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
            let fd = connect l.path in
            replies.(i) <- request fd (query_line "Hep(Eric)");
            close fd)
          ())
  in
  List.iter Thread.join clients;
  Array.iter
    (fun reply ->
      Alcotest.(check string)
        "uncached concurrent dispatch matches the lone client" reference
        (comparable_answer reply))
    replies;
  shutdown_server l.path;
  Thread.join l.thread

(* ------------------------------------------------------------------ *)
(* Isolation: truncated lines, capacity, idle timeout                 *)
(* ------------------------------------------------------------------ *)

let test_truncated_line () =
  let svc = make_service () in
  let l = start_listener svc in
  let fd = connect l.path in
  (* A request cut off mid-object, newline never sent: the client
     still gets the documented error object, not a silent close. *)
  let partial = {|{"op":"query","query":"Hep(Er|} in
  let b = Bytes.of_string partial in
  let _ = Unix.write fd b 0 (Bytes.length b) in
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  (match recv fd with
  | None -> Alcotest.fail "connection dropped without the error object"
  | Some reply -> (
    match Json.of_string reply with
    | Error msg -> Alcotest.failf "unparsable error reply %s: %s" reply msg
    | Ok j ->
      Alcotest.(check bool)
        "ok:false" true
        (Json.member "ok" j = Some (Json.Bool false));
      Alcotest.(check bool)
        "carries an error string" true
        (match Json.member "error" j with
        | Some (Json.String _) -> true
        | _ -> false)));
  close fd;
  (* ... and the server is still alive for the next client. *)
  let fd2 = connect l.path in
  let reply = request fd2 (query_line "Hep(Eric)") in
  (match Json.of_string reply with
  | Ok j ->
    Alcotest.(check bool)
      "server survives a truncating client" true
      (Json.member "ok" j = Some (Json.Bool true))
  | Error msg -> Alcotest.failf "reply after truncation: %s" msg);
  (* The stats op reports the truncation. *)
  let stats_reply = request fd2 {|{"op":"stats"}|} in
  (match Json.of_string stats_reply with
  | Ok j ->
    let truncated =
      Option.bind (Json.member "stats" j) (fun s ->
          Option.bind (Json.member "server" s) (fun srv ->
              Option.bind (Json.member "truncated" srv) Json.to_int))
    in
    Alcotest.(check (option int)) "truncated counted" (Some 1) truncated
  | Error msg -> Alcotest.failf "stats reply: %s" msg);
  close fd2;
  shutdown_server l.path;
  Thread.join l.thread

let test_max_clients () =
  let svc = make_service () in
  let l = start_listener ~max_clients:1 svc in
  let fd1 = connect l.path in
  (* A round trip guarantees the first connection is admitted before
     the second connects. *)
  let _ = request fd1 (query_line "Hep(Eric)") in
  let fd2 = connect l.path in
  (match recv fd2 with
  | None -> Alcotest.fail "rejected client got no reply object"
  | Some reply -> (
    match Json.of_string reply with
    | Ok j ->
      Alcotest.(check bool)
        "capacity rejection is ok:false" true
        (Json.member "ok" j = Some (Json.Bool false))
    | Error msg -> Alcotest.failf "rejection reply: %s" msg));
  close fd2;
  (* The admitted client keeps working through the rejection. *)
  let reply = request fd1 {|{"op":"stats"}|} in
  (match Json.of_string reply with
  | Ok j ->
    let rejected =
      Option.bind (Json.member "stats" j) (fun s ->
          Option.bind (Json.member "server" s) (fun srv ->
              Option.bind (Json.member "rejected" srv) Json.to_int))
    in
    Alcotest.(check (option int)) "rejection counted" (Some 1) rejected
  | Error msg -> Alcotest.failf "stats reply: %s" msg);
  close fd1;
  shutdown_server l.path;
  Thread.join l.thread

let test_idle_timeout () =
  let svc = make_service () in
  let l = start_listener ~idle_timeout:0.3 svc in
  let fd = connect l.path in
  (* Say nothing; the server must close us with a reply object. *)
  (match recv fd with
  | None -> Alcotest.fail "idle connection dropped without a reply"
  | Some reply ->
    Alcotest.(check bool)
      "idle close is ok:false" true
      (match Json.of_string reply with
      | Ok j -> Json.member "ok" j = Some (Json.Bool false)
      | Error _ -> false));
  (* EOF follows the goodbye. *)
  Alcotest.(check bool) "connection closed" true (recv fd = None);
  close fd;
  shutdown_server l.path;
  Thread.join l.thread

(* ------------------------------------------------------------------ *)
(* Shutdown drain + persist                                           *)
(* ------------------------------------------------------------------ *)

let test_shutdown_persists_store () =
  let dir = Filename.temp_file "rw-listen-store" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let store_path = Filename.concat dir "answers.rws" in
  let store =
    match Rw_store.Store.open_ store_path with
    | Ok (s, _) -> s
    | Error msg -> Alcotest.failf "store open: %s" msg
  in
  let svc = make_service ~store () in
  let l = start_listener svc in
  let fd = connect l.path in
  let _ = request fd (query_line "Hep(Eric)") in
  close fd;
  shutdown_server l.path;
  Thread.join l.thread;
  Rw_store.Store.close store;
  (* A fresh process (here: a fresh open) must recover the answer the
     drained server persisted. *)
  (match Rw_store.Store.open_ store_path with
  | Ok (s, report) ->
    Alcotest.(check bool)
      "persisted answer survived the shutdown" true
      (report.Rw_store.Store.live >= 1);
    Rw_store.Store.close s
  | Error msg -> Alcotest.failf "store reopen: %s" msg);
  Sys.remove store_path;
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Belief-change session over the listener                            *)
(* ------------------------------------------------------------------ *)

(* Two clients share one session: one mutates the KB (session_update
   takes the write lock), the other observes coherent answers — a
   disjoint update leaves its cached answer byte-identical and still
   cached, an overlapping one forces a recompute, and the session log
   is visible from any connection. *)
let test_session_two_clients () =
  let svc = make_service () in
  let l = start_listener svc in
  let a = connect l.path and b = connect l.path in
  let ok_of reply =
    match Json.of_string reply with
    | Ok j -> Json.member "ok" j = Some (Json.Bool true)
    | Error msg -> Alcotest.failf "unparsable reply %s: %s" reply msg
  in
  let cached_of reply =
    match Json.of_string reply with
    | Ok j ->
      Option.bind (Json.member "answer" j) (Json.member "cached")
      = Some (Json.Bool true)
    | Error msg -> Alcotest.failf "unparsable reply %s: %s" reply msg
  in
  let r1 = request a (query_line "Hep(Eric)") in
  Alcotest.(check bool) "client A's query ok" true (ok_of r1);
  (* Client B asserts evidence disjoint from A's cached query. *)
  let r =
    request b {|{"op":"session_update","action":"assert","src":"Wet(Sam)"}|}
  in
  Alcotest.(check bool) "B's disjoint assert ok" true (ok_of r);
  let r2 = request a (query_line "Hep(Eric)") in
  Alcotest.(check bool) "A still served from cache" true (cached_of r2);
  Alcotest.(check string) "verdict byte-identical across the update"
    (comparable_answer r1) (comparable_answer r2);
  (* An overlapping assert from B evicts A's entry. *)
  let r =
    request b {|{"op":"session_update","action":"assert","src":"Hep(Dana)"}|}
  in
  Alcotest.(check bool) "B's overlapping assert ok" true (ok_of r);
  let r3 = request a (query_line "Hep(Eric)") in
  Alcotest.(check bool) "A's query recomputed" false (cached_of r3);
  Alcotest.(check bool) "recomputed query ok" true (ok_of r3);
  (* The session log is shared state: A sees B's mutations. *)
  let r = request a {|{"op":"session_log"}|} in
  Alcotest.(check bool) "session_log ok" true (ok_of r);
  (match Json.of_string r with
  | Ok j ->
    Alcotest.(check (option int))
      "load + two updates logged" (Some 3)
      (Option.bind (Json.member "count" j) Json.to_int)
  | Error msg -> Alcotest.failf "session_log reply: %s" msg);
  close a;
  close b;
  shutdown_server l.path;
  Thread.join l.thread

(* Framing is independent of how the bytes arrive: a multi-line payload
   split into two reads at every byte offset (and fed one byte per
   read) yields the same lines and the same unterminated tail. *)
let test_frame_any_split () =
  let payload = "{\"op\":\"stats\"}\n\nab\ncd\n\nlong line tail" in
  let expected = [ "{\"op\":\"stats\"}"; ""; "ab"; "cd"; "" ] in
  let run reads =
    let pending = Buffer.create 4 in
    let lines = ref [] in
    List.iter
      (fun piece ->
        let chunk = Bytes.of_string (piece ^ "garbage past n") in
        match
          Server.frame pending chunk (String.length piece) (fun l ->
              lines := l :: !lines;
              `Continue)
        with
        | `Continue -> ()
        | `Close -> Alcotest.fail "framing closed on its own")
      reads;
    (List.rev !lines, Buffer.contents pending)
  in
  let check name reads =
    let lines, tail = run reads in
    Alcotest.(check (list string)) (name ^ ": lines") expected lines;
    Alcotest.(check string) (name ^ ": tail") "long line tail" tail
  in
  let n = String.length payload in
  for k = 0 to n do
    check
      (Printf.sprintf "split at %d" k)
      [ String.sub payload 0 k; String.sub payload k (n - k) ]
  done;
  check "byte by byte" (List.init n (fun i -> String.make 1 payload.[i]));
  (* [`Close] stops at that line: later lines in the read are dropped. *)
  let pending = Buffer.create 4 in
  let seen = ref [] in
  let chunk = Bytes.of_string "a\nb\nc" in
  (match
     Server.frame pending chunk (Bytes.length chunk) (fun l ->
         seen := l :: !seen;
         `Close)
   with
  | `Close -> ()
  | `Continue -> Alcotest.fail "framing ignored `Close");
  Alcotest.(check (list string)) "close stops framing" [ "a" ] !seen

(* Updates beside query streams: two connections query nonstop while a
   third sends 50 alternating updates of a statement the queries
   overlap. No lock stands between queries and updates, so every reply
   is ok and each update is answered within a generous 1 s; the
   session log counts the load plus the 50 updates. *)
let ok_of reply =
  match Json.of_string reply with
  | Ok j -> Json.member "ok" j = Some (Json.Bool true)
  | Error _ -> false

let test_updates_beside_query_streams () =
  let svc = make_service () in
  let l = start_listener svc in
  let stop = Atomic.make false in
  let streams =
    List.init 2 (fun i ->
        let replies = ref 0 and bad = ref [] in
        let th =
          Thread.create
            (fun () ->
              let fd = connect l.path in
              let mine = "Hep(Dana)" :: queries in
              let mine = if i = 0 then mine else List.rev mine in
              while not (Atomic.get stop) do
                List.iter
                  (fun q ->
                    let r = request fd (query_line q) in
                    incr replies;
                    if not (ok_of r) then bad := r :: !bad)
                  mine
              done;
              close fd)
            ()
        in
        (th, replies, bad))
  in
  let fd = connect l.path in
  let slowest = ref 0.0 in
  for i = 1 to 50 do
    let action = if i mod 2 = 1 then "assert" else "retract" in
    let t0 = Unix.gettimeofday () in
    let r =
      request fd
        (Printf.sprintf
           {|{"op":"session_update","action":"%s","src":"Jaun(Dana)"}|} action)
    in
    slowest := Float.max !slowest (Unix.gettimeofday () -. t0);
    Alcotest.(check bool) (Printf.sprintf "update %d ok" i) true (ok_of r)
  done;
  Atomic.set stop true;
  List.iter
    (fun (th, replies, bad) ->
      Thread.join th;
      Alcotest.(check bool) "query stream ran" true (!replies > 0);
      Alcotest.(check (list string)) "every query reply ok" [] !bad)
    streams;
  Alcotest.(check bool)
    (Printf.sprintf "slowest update reply %.3fs under 1s" !slowest)
    true (!slowest < 1.0);
  (match Json.of_string (request fd {|{"op":"session_log"}|}) with
  | Ok j ->
    Alcotest.(check (option int))
      "load + 50 updates logged" (Some 51)
      (Option.bind (Json.member "count" j) Json.to_int)
  | Error msg -> Alcotest.failf "session_log reply: %s" msg);
  close fd;
  shutdown_server l.path;
  Thread.join l.thread

(* Bounded framing: a line of exactly [max_line_bytes] is served; one
   byte more gets an ok:false reply and the connection is closed,
   while the server stays up for the next client. *)
let test_oversized_line () =
  let svc = make_service () in
  let l = start_listener svc in
  let fd = connect l.path in
  let stats = {|{"op":"stats"|} in
  let at_cap =
    stats ^ String.make (Server.max_line_bytes - String.length stats - 1) ' '
    ^ "}"
  in
  Alcotest.(check bool) "a line at the cap is served" true
    (ok_of (request fd at_cap));
  (* The server may close before it reads the newline. *)
  (try send fd (String.make (Server.max_line_bytes + 1) 'x')
   with Unix.Unix_error _ -> ());
  (match recv fd with
  | None -> Alcotest.fail "oversized line dropped without a reply"
  | Some reply ->
    Alcotest.(check bool) "oversized line is ok:false with an error" true
      (match Json.of_string reply with
      | Ok j ->
        Json.member "ok" j = Some (Json.Bool false)
        && Option.is_some (Json.member "error" j)
      | Error _ -> false));
  Alcotest.(check bool) "connection closed" true (recv fd = None);
  close fd;
  let fd2 = connect l.path in
  Alcotest.(check bool) "server survives an oversized line" true
    (ok_of (request fd2 (query_line "Hep(Eric)")));
  close fd2;
  shutdown_server l.path;
  Thread.join l.thread

let suite =
  [
    ("listen: 4 concurrent clients, compile-once, identical answers",
      `Slow, test_concurrent_clients);
    ("listen: two clients share one belief-change session",
      `Quick, test_session_two_clients);
    ("listen: concurrent dispatch identical with the LRU off",
      `Slow, test_concurrent_no_cache);
    ("listen: truncated NDJSON line gets the error object",
      `Quick, test_truncated_line);
    ("listen: max_clients rejection is a reply, not a drop",
      `Quick, test_max_clients);
    ("listen: idle timeout closes with a reply", `Slow, test_idle_timeout);
    ("listen: shutdown drains and persists the store",
      `Quick, test_shutdown_persists_store);
    ("listen: framing is the same at every read split",
      `Quick, test_frame_any_split);
    ("listen: 50 updates beside two query streams, all ok and prompt",
      `Quick, test_updates_beside_query_streams);
    ("listen: an oversized line gets ok:false and a close",
      `Quick, test_oversized_line);
  ]
