(* rw — command-line interface to the random-worlds library.

   Subcommands:
     rw query --kb FILE --query FORMULA [--engine ENGINE] [--json]
     rw batch --kb FILE [--queries FILE] [--json]
     rw serve [--kb FILE] [--cache N] [--budget S] [--store PATH] [--jobs N]
     rw compile --kb FILE [--json]
     rw store (stats|verify|compact) PATH
     rw consistent --kb FILE
     rw zoo [--id ID]
     rw parse FORMULA
     rw fuzz [--seed N] [--cases N] [--oracle NAME] [--corpus DIR]
     rw sim [--seed N] [--steps N] [--faults] [--replay FILE] [--json]

   Knowledge-base files: the concrete syntax of L≈; lines starting with
   '#' are comments; every non-empty, non-comment line is a conjunct. *)

open Cmdliner
open Rw_logic
open Randworlds

(* ------------------------------------------------------------------ *)
(* Exit codes                                                         *)
(* ------------------------------------------------------------------ *)

(* The exit-code contract, also rendered into each man page's EXIT
   STATUS section: 0 success; 1 negative verdict (inconsistent KB, no
   convergence points); 2 no engine applicable / outside the decidable
   fragment; 3 KB load or validation failure; 4 query parse failure.
   Scripted callers branch on 3-vs-4 to tell "fix the KB file" from
   "fix the query". *)
let exit_kb_error = 3
let exit_query_error = 4

let common_exits =
  Cmd.Exit.info 1 ~doc:"on a negative verdict (e.g. an inconsistent KB)."
  :: Cmd.Exit.info 2
       ~doc:
         "when no engine is applicable to the query, or the KB is outside \
          the decidable fragment."
  :: Cmd.Exit.info exit_kb_error
       ~doc:"on knowledge-base load or validation failure."
  :: Cmd.Exit.info exit_query_error ~doc:"on query parse failure."
  :: Cmd.Exit.defaults

(* ------------------------------------------------------------------ *)
(* KB file loading                                                    *)
(* ------------------------------------------------------------------ *)

let load_kb path = Kb_file.validated_load path

let parse_formula_arg s =
  match Parser.formula s with
  | Ok f -> Ok f
  | Error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* query                                                              *)
(* ------------------------------------------------------------------ *)

type engine_choice = Auto | Rules | Maxent | Unary | Enum | Mc

let engine_conv =
  let parse = function
    | "auto" -> Ok Auto
    | "rules" -> Ok Rules
    | "maxent" -> Ok Maxent
    | "unary" -> Ok Unary
    | "enum" -> Ok Enum
    | "mc" -> Ok Mc
    | s -> Error (`Msg (Printf.sprintf "unknown engine %S" s))
  in
  let print ppf = function
    | Auto -> Fmt.string ppf "auto"
    | Rules -> Fmt.string ppf "rules"
    | Maxent -> Fmt.string ppf "maxent"
    | Unary -> Fmt.string ppf "unary"
    | Enum -> Fmt.string ppf "enum"
    | Mc -> Fmt.string ppf "mc"
  in
  Arg.conv (parse, print)

let run_query kb_path query_src engine seed samples ci_width jobs verbose json
    explain explain_json =
  match load_kb kb_path with
  | Error msg ->
    Fmt.epr "error loading %s:@.%s@." kb_path msg;
    exit_kb_error
  | Ok kb -> (
    match parse_formula_arg query_src with
    | Error msg ->
      Fmt.epr "error parsing query: %s@." msg;
      exit_query_error
    | Ok query ->
      let options =
        {
          Engine.default_options with
          Engine.mc_seed = seed;
          mc_samples = samples;
          mc_ci_width = ci_width;
          jobs;
        }
      in
      let trace =
        if explain || explain_json then Some (Rw_trace.Trace.create ())
        else None
      in
      let answer =
        match engine with
        | Auto -> Engine.degree_of_belief ~options ?trace ~kb query
        (* Engine.run is total: out-of-fragment engines decline with
           Not_applicable (exit 2) instead of raising. *)
        | Rules -> Engine.run ~options ?trace Engine.Rules ~kb query
        | Maxent -> Engine.run ~options ?trace Engine.Maxent ~kb query
        | Unary -> Engine.run ~options ?trace Engine.Unary ~kb query
        | Enum -> Engine.run ~options ?trace Engine.Enum ~kb query
        | Mc -> Engine.run ~options ?trace Engine.Mc ~kb query
      in
      let events =
        match trace with Some tr -> Rw_trace.Trace.events tr | None -> []
      in
      if json || explain_json then
        (* The same encoder the serve protocol uses, so scripted
           callers see one answer shape everywhere. *)
        print_endline
          (Rw_service.Json.to_string
             (Rw_service.Protocol.ok_reply
                ([
                   ("query", Rw_service.Json.String query_src);
                   ("answer", Rw_service.Protocol.json_of_answer answer);
                 ]
                @
                if explain_json then
                  [ ("trace", Rw_service.Protocol.json_of_trace events) ]
                else [])))
      else begin
        Fmt.pr "Pr( %a | KB ) = %a@." Pretty.pp_formula query Answer.pp answer;
        if verbose then List.iter (Fmt.pr "  %s@.") answer.Answer.notes;
        if explain then Fmt.pr "%a" (Rw_trace.Trace.pp ?mask_timings:None) events
      end;
      (match answer.Answer.result with Answer.Not_applicable _ -> 2 | _ -> 0))

let kb_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "k"; "kb" ] ~docv:"FILE" ~doc:"Knowledge base file (L≈ syntax).")

let query_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "q"; "query" ] ~docv:"FORMULA" ~doc:"Query formula.")

let engine_arg =
  Arg.(
    value & opt engine_conv Auto
    & info [ "e"; "engine" ] ~docv:"ENGINE"
        ~doc:"Engine: auto, rules, maxent, unary, enum, or mc.")

let seed_arg =
  Arg.(
    value
    & opt int Mc_engine.default_seed
    & info [ "seed" ] ~docv:"INT"
        ~doc:
          "PRNG seed for the Monte-Carlo engine — any sampling run is \
           reproducible from it.")

let samples_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "samples" ] ~docv:"INT"
        ~doc:"Monte-Carlo sample budget (worlds drawn per grid point).")

let ci_width_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "ci-width" ] ~docv:"W"
        ~doc:
          "Monte-Carlo target half-width of the 95% confidence interval; \
           sampling stops early once it is reached.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print engine diagnostics.")

(* --jobs on `query` defaults to 1 (a single query usually is not worth
   spinning a pool up for); on `batch` and `fuzz`, where the work list
   is long, it defaults to the machine width. The answers themselves
   never depend on the value — see TUTORIAL §10. *)
let jobs_arg ~default ~doc =
  Arg.(value & opt int default & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let query_jobs_arg =
  jobs_arg ~default:1
    ~doc:
      "Worker domains for the Monte-Carlo engine. Answers are \
       bit-identical for a fixed $(b,--seed) at any value."

let pool_jobs_arg =
  jobs_arg
    ~default:(Rw_pool.Pool.default_jobs ())
    ~doc:
      "Worker domains (default: the machine's recommended domain \
       count). Results are identical at any value; only throughput \
       changes."

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the answer as a single JSON line (the serve-protocol \
           encoding) instead of the pretty-printer.")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Print the derivation trace after the answer: the engines \
           consulted and why the winner was selected, the theorems fired \
           with their instantiated preconditions, reference classes and \
           the specificity winner, the maxent profile, sampling evidence, \
           and per-phase timings.")

let explain_json_arg =
  Arg.(
    value & flag
    & info [ "explain-json" ]
        ~doc:
          "Emit the answer plus the derivation trace as a single JSON \
           line (the serve-protocol encoding with a \"trace\" event \
           list). Implies $(b,--json).")

let query_cmd =
  let doc = "compute a degree of belief Pr(query | KB)" in
  Cmd.v
    (Cmd.info "query" ~doc ~exits:common_exits)
    Term.(
      const run_query $ kb_arg $ query_arg $ engine_arg $ seed_arg
      $ samples_arg $ ci_width_arg $ query_jobs_arg $ verbose_arg $ json_arg
      $ explain_arg $ explain_json_arg)

(* ------------------------------------------------------------------ *)
(* batch                                                              *)
(* ------------------------------------------------------------------ *)

let service_config ?(no_compiled = false) cache_size budget =
  {
    Rw_service.Service.default_config with
    Rw_service.Service.cache_capacity = cache_size;
    compiled_capacity =
      (if no_compiled then 0
       else Rw_service.Service.default_config.Rw_service.Service.compiled_capacity);
    budget;
  }

let read_query_lines = function
  | "-" -> In_channel.input_lines stdin
  | path -> In_channel.with_open_text path In_channel.input_lines

let run_batch kb_path queries_path cache_size budget no_compiled jobs json
    verbose =
  let svc =
    Rw_service.Service.create
      ~config:(service_config ~no_compiled cache_size budget)
      ()
  in
  match Rw_service.Service.load_kb_file svc kb_path with
  | Error msg ->
    Fmt.epr "error loading %s:@.%s@." kb_path msg;
    exit_kb_error
  | Ok () -> (
    match read_query_lines queries_path with
    | exception Sys_error msg ->
      Fmt.epr "error reading queries: %s@." msg;
      exit_query_error
    | lines ->
      let srcs =
        List.filter
          (fun l ->
            let l = String.trim l in
            l <> "" && l.[0] <> '#')
          (List.map String.trim lines)
      in
      (* Evaluate the whole batch (possibly on a domain pool), then
         print in input order — the output is identical at any --jobs. *)
      let results = Rw_service.Service.batch_srcs ~jobs svc srcs in
      let failures = ref 0 in
      List.iter2
        (fun src (result, item_ms) ->
          match result with
          | Ok (answer, origin) ->
            let cached = origin = Rw_service.Service.Cached in
            if json then
              print_endline
                (Rw_service.Json.to_string
                   (Rw_service.Protocol.ok_reply
                      [
                        ("query", Rw_service.Json.String src);
                        ( "answer",
                          Rw_service.Protocol.json_of_answer ~cached
                            ~elapsed_ms:item_ms answer );
                      ]))
            else
              Fmt.pr "Pr( %s | KB ) = %a%s@." src Answer.pp answer
                (if cached then "  (cached)" else "")
          | Error msg ->
            incr failures;
            if json then
              print_endline
                (Rw_service.Json.to_string
                   (Rw_service.Protocol.error_reply
                      ~id:(Rw_service.Json.String src) msg))
            else Fmt.epr "%s: %s@." src msg)
        srcs results;
      if verbose then begin
        let stats = Rw_service.Service.stats svc in
        Fmt.epr "-- %d queries, cache %d/%d hits, %d failures@."
          stats.Rw_service.Service.queries stats.Rw_service.Service.cache.Rw_service.Lru.hits
          (stats.Rw_service.Service.cache.Rw_service.Lru.hits
          + stats.Rw_service.Service.cache.Rw_service.Lru.misses)
          !failures;
        match stats.Rw_service.Service.compiled with
        | None -> ()
        | Some c ->
          Fmt.epr "-- compiled KBs: %d reuses, %d compiles (%.1f ms compiling)@."
            c.Rw_service.Service.compiled_cache.Rw_service.Lru.hits
            c.Rw_service.Service.compiles
            c.Rw_service.Service.compile_ms_total
      end;
      if !failures > 0 then exit_query_error else 0)

let queries_arg =
  Arg.(
    value & opt string "-"
    & info [ "queries" ] ~docv:"FILE"
        ~doc:
          "File of queries, one formula per line ('#' comments and blank \
           lines skipped); '-' reads stdin.")

let cache_arg =
  Arg.(
    value & opt int 1024
    & info [ "cache" ] ~docv:"N"
        ~doc:"Answer-cache capacity (LRU entries); 0 disables caching.")

let budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget" ] ~docv:"SECONDS"
        ~doc:
          "Per-query wall-clock budget. On expiry the request degrades to \
           the rules engine's provably-sound answer instead of blocking.")

let no_compiled_arg =
  Arg.(
    value & flag
    & info [ "no-compiled" ]
        ~doc:
          "Disable the compiled-KB artifact cache: every query rebuilds \
           the KB's statistical index and re-solves its maximum-entropy \
           point from scratch. Answers are bit-identical either way; this \
           flag exists for measurement and for bug isolation.")

let batch_cmd =
  let doc = "evaluate a file or stream of queries against one resident KB" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Loads and validates the knowledge base once, then evaluates every \
         query line against it through the service layer's answer cache — \
         repeated or syntactically-variant queries cost one engine dispatch \
         between them.";
    ]
  in
  Cmd.v
    (Cmd.info "batch" ~doc ~man ~exits:common_exits)
    Term.(
      const run_batch $ kb_arg $ queries_arg $ cache_arg $ budget_arg
      $ no_compiled_arg $ pool_jobs_arg $ json_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                              *)
(* ------------------------------------------------------------------ *)

let run_serve kb_path cache_size budget no_compiled store_path no_store jobs
    listen max_clients idle_timeout verbose =
  (* Replies own stdout; logging goes to stderr unconditionally. *)
  Logs.set_reporter (Logs_fmt.reporter ~app:Fmt.stderr ~dst:Fmt.stderr ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning));
  (* --no-store beats --store beats $RW_STORE. *)
  let store_path =
    if no_store then None
    else
      match store_path with
      | Some _ as p -> p
      | None -> Sys.getenv_opt "RW_STORE"
  in
  let store =
    match store_path with
    | None -> Ok None
    | Some path -> (
      match Rw_store.Store.open_ path with
      | Error msg -> Error (path, msg)
      | Ok (store, report) ->
        (* The warm start: the recovery scan just rebuilt the digest
           index, so every persisted answer is already servable. *)
        Logs.info (fun m ->
            m "store %s: warm start, %d records recovered (%d live)" path
              report.Rw_store.Store.recovered report.Rw_store.Store.live);
        if report.Rw_store.Store.truncated_bytes > 0 then
          Logs.warn (fun m ->
              m "store %s: dropped %d torn tail bytes (crashed append)" path
                report.Rw_store.Store.truncated_bytes);
        Ok (Some store))
  in
  match store with
  | Error (path, msg) ->
    Fmt.epr "error opening store %s: %s@." path msg;
    exit_kb_error
  | Ok store -> (
    let svc =
      Rw_service.Service.create
        ~config:(service_config ~no_compiled cache_size budget)
        ?store ()
    in
    let serve () =
      let code =
        match listen with
        | None -> Rw_service.Server.run ~jobs svc
        | Some addr_str ->
          let addr = Rw_service.Server.parse_addr addr_str in
          Rw_service.Server.listen ~jobs ~max_clients ?idle_timeout ~addr svc
      in
      Option.iter Rw_store.Store.close store;
      code
    in
    match kb_path with
    | None -> serve ()
    | Some path -> (
      match Rw_service.Service.load_kb_file svc path with
      | Error msg ->
        Fmt.epr "error loading %s:@.%s@." path msg;
        Option.iter Rw_store.Store.close store;
        exit_kb_error
      | Ok () -> serve ()))

let serve_kb_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "k"; "kb" ] ~docv:"FILE"
        ~doc:
          "Knowledge base to preload; clients can also send load_kb \
           requests.")

let store_path_opt_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"PATH"
        ~doc:
          "Durable answer store: an append-only, checksummed, \
           crash-recovering log under the LRU cache. Opened (created if \
           absent) and recovered at boot, so answers persisted by earlier \
           sessions are served without recomputation. Defaults to \
           $(b,\\$RW_STORE) when set.")

let no_store_arg =
  Arg.(
    value & flag
    & info [ "no-store" ]
        ~doc:
          "Run without a durable store even when $(b,\\$RW_STORE) is set; \
           wins over $(b,--store).")

let listen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "listen" ] ~docv:"PATH|HOST:PORT"
        ~doc:
          "Accept many concurrent clients on a Unix socket ($(i,PATH)) or \
           TCP socket ($(i,HOST:PORT)) instead of speaking to one client on \
           stdin/stdout. All clients share the service's caches and durable \
           store; each request is answered on a worker domain.")

let max_clients_arg =
  Arg.(
    value & opt int 64
    & info [ "max-clients" ] ~docv:"N"
        ~doc:
          "With $(b,--listen): reject connections beyond N concurrent \
           clients (they get an ok:false reply and an immediate close).")

let idle_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "idle-timeout" ] ~docv:"SECONDS"
        ~doc:
          "With $(b,--listen): close connections that send nothing for this \
           many seconds.")

let serve_cmd =
  let doc = "answer degree-of-belief queries over NDJSON on stdin/stdout" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Speaks newline-delimited JSON: one request object per line on \
         stdin, one reply per line on stdout. Ops: query, batch, load_kb, \
         session_update, session_log, stats, persist, shutdown. Answers \
         are cached across requests keyed \
         on canonical (KB, query, options) digests; with $(b,--store) they \
         also persist across sessions and kill -9 (see $(b,rw store)). \
         Batch requests without their own \"jobs\" field fan out across \
         $(b,--jobs) worker domains. Per-request budgets degrade to the \
         rules engine's sound interval on expiry. Request logs go to \
         stderr.";
      `P
        "Example session: echo \
         '{\"op\":\"query\",\"query\":\"Hep(Eric)\"}' | rw serve --kb \
         examples/kb/hepatitis.kb --store answers.rws";
      `P
        "With $(b,--listen) the same protocol is served to many concurrent \
         clients over a Unix or TCP socket — one shared cache/store, \
         requests routed across $(b,--jobs) worker domains, graceful drain \
         on a shutdown request or SIGTERM. Connect with $(b,rw client): rw \
         serve --listen /tmp/rw.sock --kb examples/kb/hepatitis.kb &; echo \
         '{\"op\":\"query\",\"query\":\"Hep(Eric)\"}' | rw client \
         /tmp/rw.sock";
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man ~exits:common_exits)
    Term.(
      const run_serve $ serve_kb_arg $ cache_arg $ budget_arg
      $ no_compiled_arg $ store_path_opt_arg $ no_store_arg $ pool_jobs_arg
      $ listen_arg $ max_clients_arg $ idle_timeout_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* client                                                              *)
(* ------------------------------------------------------------------ *)

let run_client addr_str retry =
  let addr = Rw_service.Server.parse_addr addr_str in
  let sa =
    try Ok (Rw_service.Server.sockaddr addr)
    with Unix.Unix_error (e, _, arg) ->
      Error (Fmt.str "cannot resolve %s: %s" arg (Unix.error_message e))
  in
  match sa with
  | Error msg ->
    Fmt.epr "%s@." msg;
    1
  | Ok sa -> (
    let domain = Unix.domain_of_sockaddr sa in
    (* --retry covers the serve-startup race in scripts: keep trying
       to connect until the deadline instead of failing on the first
       refused/absent socket. *)
    let deadline = Unix.gettimeofday () +. retry in
    let rec connect () =
      let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
      match Unix.connect fd sa with
      | () -> Ok fd
      | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if Unix.gettimeofday () < deadline then begin
          Unix.sleepf 0.05;
          connect ()
        end
        else Error (Unix.error_message e)
    in
    match connect () with
    | Error msg ->
      Fmt.epr "cannot connect to %a: %s@." Rw_service.Server.pp_addr addr msg;
      1
    | Ok fd ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      (* Lock-step NDJSON: one request line from stdin, one reply line
         to stdout — replies on a connection come back in request
         order, so this is lossless. *)
      let rec loop () =
        match input_line stdin with
        | exception End_of_file -> 0
        | line when String.trim line = "" -> loop ()
        | line -> (
          output_string oc line;
          output_char oc '\n';
          flush oc;
          match input_line ic with
          | reply ->
            print_endline reply;
            loop ()
          | exception End_of_file ->
            Fmt.epr "server closed the connection@.";
            1)
      in
      let code = loop () in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      code)

let client_cmd =
  let doc = "connect to a listening rw serve and relay NDJSON requests" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Connects to an $(b,rw serve --listen) socket, sends each stdin \
         line as a request, and prints each reply line to stdout — the \
         stdin/stdout serve session, re-speakable over a socket without \
         nc/socat. Exits 0 on stdin EOF, 1 if the server closes first or \
         the connection fails.";
    ]
  in
  let addr_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PATH|HOST:PORT" ~doc:"The serve socket to connect to.")
  in
  let retry_arg =
    Arg.(
      value & opt float 0.0
      & info [ "retry" ] ~docv:"SECONDS"
          ~doc:
            "Keep retrying the connect for this long before giving up — \
             for scripts racing a just-started server.")
  in
  Cmd.v
    (Cmd.info "client" ~doc ~man ~exits:common_exits)
    Term.(const run_client $ addr_arg $ retry_arg)

(* ------------------------------------------------------------------ *)
(* compile                                                            *)
(* ------------------------------------------------------------------ *)

let run_compile kb_path json =
  match load_kb kb_path with
  | Error msg ->
    Fmt.epr "error loading %s:@.%s@." kb_path msg;
    exit_kb_error
  | Ok kb ->
    let module C = Rw_compile.Compiled_kb in
    let c = C.compile kb in
    let s = C.stats c in
    let profile = C.entropy_profile c in
    if json then begin
      let module J = Rw_service.Json in
      let opt_int = function Some n -> J.Int n | None -> J.Null in
      print_endline
        (J.to_string
           (Rw_service.Protocol.ok_reply
              [
                ("kb", J.String kb_path);
                ("digest", J.String s.C.digest);
                ("conjuncts", J.Int s.C.conjunct_count);
                ("statistical", J.Int s.C.stat_count);
                ("unary_fragment", J.Bool (s.C.atoms <> None));
                ("atoms", opt_int s.C.atoms);
                ("constants", J.Int s.C.constants);
                ("presolved", J.Int s.C.presolved);
                ("infeasible", J.Int s.C.infeasible);
                ("compile_ms", J.Float s.C.compile_ms);
                ( "entropy",
                  J.List
                    (List.map
                       (fun (tol, h) ->
                         J.Obj
                           [
                             ("tol", J.String (Fmt.str "%a" Tolerance.pp tol));
                             ( "entropy",
                               match h with
                               | Some v -> J.Float v
                               | None -> J.Null );
                           ])
                       profile) );
              ]))
    end
    else begin
      Fmt.pr "kb         %s@." kb_path;
      Fmt.pr "digest     %s@." s.C.digest;
      Fmt.pr "conjuncts  %d (%d statistical)@." s.C.conjunct_count
        s.C.stat_count;
      (match s.C.atoms with
      | Some n ->
        Fmt.pr "atoms      %d over %d constant(s) (fully-supported unary)@." n
          s.C.constants
      | None ->
        Fmt.pr "atoms      - (outside the fully-supported unary fragment)@.");
      if profile <> [] then begin
        Fmt.pr "maxent     %d tolerance(s) pre-solved, %d infeasible@."
          s.C.presolved s.C.infeasible;
        List.iter
          (fun (tol, h) ->
            match h with
            | Some v -> Fmt.pr "  %a  entropy %.6f@." Tolerance.pp tol v
            | None -> Fmt.pr "  %a  infeasible@." Tolerance.pp tol)
          profile
      end;
      Fmt.pr "compile    %.2f ms@." s.C.compile_ms
    end;
    0

let compile_cmd =
  let doc = "compile a knowledge base and report the artifact's contents" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the one-time compilation pass the service layer performs \
         behind $(b,rw serve)/$(b,rw batch): canonical digest, conjunct \
         split, statistical-statement index, unary atom vocabulary, and \
         the pre-solved maximum-entropy point at every tolerance of the \
         τ̄-schedule (with its entropy profile). Useful for inspecting \
         what queries against this KB will reuse, and for timing the \
         compile itself.";
    ]
  in
  Cmd.v
    (Cmd.info "compile" ~doc ~man ~exits:common_exits)
    Term.(const run_compile $ kb_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* store                                                              *)
(* ------------------------------------------------------------------ *)

let store_path_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"PATH" ~doc:"The answer-store file.")

let store_json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the report as a single JSON line.")

(* Offline scans share the verify back end — read-only, every CRC
   checked — so `stats` never mutates the file it reports on (opening
   the store proper would truncate a torn tail as a side effect). *)
let run_store_stats path json =
  match Rw_store.Store.verify path with
  | Error msg ->
    Fmt.epr "%s@." msg;
    exit_kb_error
  | Ok r ->
    let file = path in
    let open Rw_store.Store in
    let live_ratio =
      if r.total_records = 0 then 1.0
      else float_of_int r.live_records /. float_of_int r.total_records
    in
    if json then
      print_endline
        (Rw_service.Json.to_string
           (Rw_service.Json.Obj
              [
                ("path", Rw_service.Json.String file);
                ("records", Rw_service.Json.Int r.total_records);
                ("live", Rw_service.Json.Int r.live_records);
                ("dead", Rw_service.Json.Int r.dead_records);
                ("live_ratio", Rw_service.Json.Float live_ratio);
                ("file_bytes", Rw_service.Json.Int r.file_bytes);
                ("checksum_failures", Rw_service.Json.Int r.checksum_failures);
                ("torn_tail_bytes", Rw_service.Json.Int r.torn_tail_bytes);
              ]))
    else begin
      Fmt.pr "path              %s@." file;
      Fmt.pr "records           %d (%d live, %d dead)@." r.total_records
        r.live_records r.dead_records;
      Fmt.pr "live ratio        %.1f%%@." (100.0 *. live_ratio);
      Fmt.pr "file bytes        %d@." r.file_bytes;
      Fmt.pr "checksum failures %d@." r.checksum_failures;
      Fmt.pr "torn tail bytes   %d@." r.torn_tail_bytes
    end;
    0

let run_store_verify path json =
  match Rw_store.Store.verify path with
  | Error msg ->
    Fmt.epr "%s@." msg;
    exit_kb_error
  | Ok r ->
    let file = path in
    let open Rw_store.Store in
    let clean = r.checksum_failures = 0 && r.torn_tail_bytes = 0 in
    if json then
      print_endline
        (Rw_service.Json.to_string
           (Rw_service.Json.Obj
              [
                ("path", Rw_service.Json.String file);
                ("clean", Rw_service.Json.Bool clean);
                ("records", Rw_service.Json.Int r.total_records);
                ("live", Rw_service.Json.Int r.live_records);
                ("dead", Rw_service.Json.Int r.dead_records);
                ("file_bytes", Rw_service.Json.Int r.file_bytes);
                ("valid_prefix_bytes", Rw_service.Json.Int r.valid_prefix_bytes);
                ("checksum_failures", Rw_service.Json.Int r.checksum_failures);
                ("torn_tail_bytes", Rw_service.Json.Int r.torn_tail_bytes);
              ]))
    else if clean then
      Fmt.pr "%s: clean — %d records (%d live), %d bytes, every checksum \
              valid@."
        file r.total_records r.live_records r.file_bytes
    else
      Fmt.pr
        "%s: CORRUPT — valid prefix %d/%d bytes (%d whole records), %d \
         checksum failures, %d torn tail bytes@."
        file r.valid_prefix_bytes r.file_bytes r.total_records
        r.checksum_failures r.torn_tail_bytes;
    (* 1 = negative verdict, same contract as `rw consistent`. *)
    if clean then 0 else 1

let run_store_compact path =
  match Rw_store.Store.open_ path with
  | Error msg ->
    Fmt.epr "%s@." msg;
    exit_kb_error
  | Ok (store, report) ->
    let before = (Rw_store.Store.stats store).Rw_store.Store.file_bytes in
    Rw_store.Store.compact store;
    let after = (Rw_store.Store.stats store).Rw_store.Store.file_bytes in
    Fmt.pr "%s: %d live records kept, %d -> %d bytes%s@." path
      (Rw_store.Store.length store)
      before after
      (if report.Rw_store.Store.truncated_bytes > 0 then
         Printf.sprintf " (and %d torn tail bytes dropped on open)"
           report.Rw_store.Store.truncated_bytes
       else "");
    Rw_store.Store.close store;
    0

let store_cmd =
  let doc = "inspect and maintain a durable answer store" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Operator tooling for the append-only answer log behind $(b,rw \
         serve --store). $(b,stats) and $(b,verify) are strictly \
         read-only full scans (every record's CRC-32 is checked); \
         $(b,compact) rewrites the live records into a fresh generation \
         file and atomically renames it over the log, reclaiming \
         shadowed records.";
    ]
  in
  let stats_cmd =
    Cmd.v
      (Cmd.info "stats" ~doc:"record counts, live/dead ratio, file size"
         ~exits:common_exits)
      Term.(const run_store_stats $ store_path_arg $ store_json_arg)
  in
  let verify_cmd =
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "check every record's framing and checksum; exits 1 on any \
            corruption"
         ~exits:common_exits)
      Term.(const run_store_verify $ store_path_arg $ store_json_arg)
  in
  let compact_cmd =
    Cmd.v
      (Cmd.info "compact"
         ~doc:"rewrite live records into a fresh generation, drop the dead"
         ~exits:common_exits)
      Term.(const run_store_compact $ store_path_arg)
  in
  Cmd.group
    (Cmd.info "store" ~doc ~man ~exits:common_exits)
    [ stats_cmd; verify_cmd; compact_cmd ]

(* ------------------------------------------------------------------ *)
(* consistent                                                         *)
(* ------------------------------------------------------------------ *)

let run_consistent kb_path =
  match load_kb kb_path with
  | Error msg ->
    Fmt.epr "error loading %s:@.%s@." kb_path msg;
    exit_kb_error
  | Ok kb -> (
    let parts = Rw_unary.Analysis.analyze kb in
    if not (Rw_unary.Analysis.fully_supported parts) then begin
      Fmt.pr "KB outside the unary fragment; cannot decide consistency here.@.";
      2
    end
    else begin
      let schedule = Tolerance.schedule ~steps:4 (Tolerance.uniform 0.02) in
      let ok =
        List.for_all (fun tol -> Rw_unary.Solver.consistent_at parts tol) schedule
      in
      if ok then begin
        Fmt.pr "KB is eventually consistent (feasible along the τ-schedule).@.";
        0
      end
      else begin
        Fmt.pr
          "KB is NOT eventually consistent: no worlds at small tolerances.@.";
        1
      end
    end)

let consistent_cmd =
  let doc = "check eventual consistency of a knowledge base" in
  Cmd.v (Cmd.info "consistent" ~doc ~exits:common_exits) Term.(const run_consistent $ kb_arg)

(* ------------------------------------------------------------------ *)
(* series                                                             *)
(* ------------------------------------------------------------------ *)

let run_series kb_path query_src sizes tol_scale =
  match load_kb kb_path with
  | Error msg ->
    Fmt.epr "error loading %s:@.%s@." kb_path msg;
    exit_kb_error
  | Ok kb -> (
    match parse_formula_arg query_src with
    | Error msg ->
      Fmt.epr "error parsing query: %s@." msg;
      exit_query_error
    | Ok query ->
      let tol = Tolerance.uniform tol_scale in
      Fmt.pr "# exact Pr_N( %a | KB ) at tau = %g@." Pretty.pp_formula query
        tol_scale;
      let printed = ref 0 in
      List.iter
        (fun n ->
          match Unary_engine.pr_n ~kb ~query ~n ~tol with
          | Some v ->
            incr printed;
            Fmt.pr "%6d %12.6f@." n v
          | None -> Fmt.pr "%6d %12s@." n "(no worlds)"
          | exception Rw_unary.Profile.Unsupported why ->
            Fmt.epr "unary engine cannot handle this KB: %s@." why;
            raise Exit)
        sizes;
      let a = Maxent_engine.estimate ~kb query in
      Fmt.pr "# N->inf asymptote: %a@." Answer.pp a;
      if !printed = 0 then 1 else 0)

let run_series_safe kb_path query_src sizes tol_scale =
  try run_series kb_path query_src sizes tol_scale with Exit -> 2

let series_cmd =
  let doc = "print the exact Pr_N convergence series for a unary KB" in
  let sizes_arg =
    Arg.(
      value
      & opt (list int) [ 10; 20; 40; 80 ]
      & info [ "n"; "sizes" ] ~docv:"N,N,…" ~doc:"Domain sizes to evaluate.")
  in
  let tol_arg =
    Arg.(
      value & opt float 0.05
      & info [ "t"; "tolerance" ] ~docv:"TAU" ~doc:"Uniform tolerance scale.")
  in
  Cmd.v
    (Cmd.info "series" ~doc ~exits:common_exits)
    Term.(const run_series_safe $ kb_arg $ query_arg $ sizes_arg $ tol_arg)

(* ------------------------------------------------------------------ *)
(* zoo                                                                *)
(* ------------------------------------------------------------------ *)

let run_zoo id =
  (* The zoo is parsed lazily: a malformed in-tree KB is a KB load
     failure (exit 3) under the documented contract, not an uncaught
     exception. *)
  match Rw_kbzoo.Kbzoo.checked () with
  | Error msg ->
    Fmt.epr "error loading the KB zoo: %s@." msg;
    exit_kb_error
  | Ok entries -> (
    let entries =
      match id with
      | None -> entries
      | Some id -> (
        match Rw_kbzoo.Kbzoo.find id with
        | Some e -> [ e ]
        | None ->
          Fmt.epr "unknown experiment id %s@." id;
          [])
    in
    if entries = [] then 1
    else begin
      List.iter
        (fun (e : Rw_kbzoo.Kbzoo.entry) ->
          let a = Engine.degree_of_belief ~kb:e.kb e.query in
          Fmt.pr "%-5s %-14s expected %a; got %a@." e.id e.source
            Rw_kbzoo.Kbzoo.pp_expectation e.expected Answer.pp a)
        entries;
      0
    end)

let zoo_cmd =
  let doc = "run the paper's worked examples (the KB zoo)" in
  let id_arg =
    Arg.(
      value & opt (some string) None
      & info [ "id" ] ~docv:"ID" ~doc:"Run a single experiment (e.g. E02).")
  in
  Cmd.v (Cmd.info "zoo" ~doc ~exits:common_exits) Term.(const run_zoo $ id_arg)

(* ------------------------------------------------------------------ *)
(* parse                                                              *)
(* ------------------------------------------------------------------ *)

let run_parse src =
  match parse_formula_arg src with
  | Ok f ->
    Fmt.pr "%a@." Pretty.pp_formula f;
    Fmt.pr "free variables: %a@." Fmt.(list ~sep:(any ", ") string) (Syntax.free_vars f);
    Fmt.pr "constants: %a@."
      Fmt.(list ~sep:(any ", ") string)
      (Syntax.constants f);
    Fmt.pr "unary fragment: %b@." (Syntax.is_unary_vocab f);
    0
  | Error msg ->
    Fmt.epr "%s@." msg;
    exit_query_error

let parse_cmd =
  let doc = "parse a formula and print its analysis" in
  let src_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FORMULA")
  in
  Cmd.v (Cmd.info "parse" ~doc ~exits:common_exits) Term.(const run_parse $ src_arg)

(* ------------------------------------------------------------------ *)
(* Shared --seed validation (fuzz + sim)                              *)
(* ------------------------------------------------------------------ *)

(* Seeds are replay handles: a seed that silently wrapped on parse
   reproduces a different run from the one in the bug report. Both
   replay tools take the seed as a string and validate through the one
   shared parser, mapping rejection to the documented exit-code-2
   usage error. *)
let replay_seed_arg =
  Arg.(
    value & opt string "42"
    & info [ "seed" ] ~docv:"INT"
        ~doc:
          "Root seed; the whole run is a pure function of it. Must be a \
           non-negative decimal integer that fits 63 bits — anything else \
           (including silent overflow) is rejected with exit code 2.")

let parse_seed_or_exit s =
  match Rw_sim.Seed.parse s with
  | Ok n -> n
  | Error msg ->
    Fmt.epr "rw: %s@." msg;
    exit 2

(* ------------------------------------------------------------------ *)
(* fuzz                                                               *)
(* ------------------------------------------------------------------ *)

let run_fuzz seed_s cases max_size oracles corpus_dir jobs verbose =
  let seed = parse_seed_or_exit seed_s in
  (match oracles with
  | [] -> ()
  | l ->
    List.iter
      (fun o ->
        if not (List.mem o Rw_fuzz.Oracle.names) then begin
          Fmt.epr "unknown oracle %S (known: %a)@." o
            Fmt.(list ~sep:(any ", ") string)
            Rw_fuzz.Oracle.names;
          exit exit_query_error
        end)
      l);
  let oracles = match oracles with [] -> None | l -> Some l in
  let progress =
    if verbose then
      Some
        (fun i ->
          if (i + 1) mod 50 = 0 then Fmt.epr "… %d cases@." (i + 1))
    else None
  in
  let report =
    Rw_fuzz.Driver.run ?oracles ?corpus_dir ?progress ~max_size ~jobs ~seed
      ~cases ()
  in
  Fmt.pr "%a@." Rw_fuzz.Driver.pp_report report;
  if report.Rw_fuzz.Driver.failures = [] then 0 else 1

let fuzz_cmd =
  let doc = "differentially fuzz the six engines against each other" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates seeded random L≈ knowledge bases and queries (biased \
         toward the unary fragment, where four engines overlap) and checks \
         metamorphic properties no correct implementation can violate: \
         applicable engines agree within tolerance, Pr(φ)+Pr(¬φ)=1, \
         canonically-equivalent variants get identical digests and answers, \
         cached answers match direct dispatch, exact finite-N series \
         converge, the parser is total on mutated input, and compiled-KB \
         artifacts leave answers bit-identical.";
      `P
        "Failures are minimized by a greedy shrinker and printed as a \
         reproduction recipe; $(b,--corpus) additionally writes each \
         minimized case to a directory the test suite replays. The run is \
         deterministic in $(b,--seed).";
    ]
  in
  let cases_arg =
    Arg.(
      value & opt int 200
      & info [ "cases" ] ~docv:"INT" ~doc:"Number of cases to generate.")
  in
  let max_size_arg =
    Arg.(
      value & opt int 5
      & info [ "max-size" ] ~docv:"INT"
          ~doc:"Maximum number of KB conjuncts per case.")
  in
  let oracle_arg =
    Arg.(
      value & opt_all string []
      & info [ "oracle" ] ~docv:"NAME"
          ~doc:
            "Restrict to one oracle (repeatable): agreement, duality, \
             canonical, cache, convergence, parser, explain, compiled, or \
             update. Default: all.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Write minimized failing cases into DIR as .case files.")
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc ~man ~exits:common_exits)
    Term.(
      const run_fuzz $ replay_seed_arg $ cases_arg $ max_size_arg $ oracle_arg
      $ corpus_arg $ pool_jobs_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* sim                                                                *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let run_sim seed_s steps max_size faults replay_path corpus_dir json =
  let module Sim = Rw_sim.Sim in
  let emit (r : Sim.report) =
    if json then begin
      List.iter
        (fun e -> Fmt.pr {|{"event":"%s"}@.|} (json_escape e))
        r.Sim.events;
      Fmt.pr
        {|{"steps":%d,"digest":"%s","violations":%d,"fired":[%s]}@.|}
        r.Sim.steps r.Sim.digest
        (List.length r.Sim.violations)
        (String.concat ","
           (List.map (fun p -> "\"" ^ json_escape p ^ "\"") r.Sim.fired))
    end
    else begin
      List.iter print_endline r.Sim.events;
      Fmt.pr "steps=%d digest=%s violations=%d fired=%s@." r.Sim.steps
        r.Sim.digest
        (List.length r.Sim.violations)
        (match r.Sim.fired with [] -> "-" | l -> String.concat "," l)
    end
  in
  match replay_path with
  | Some path -> (
    match Sim.load_case path with
    | Error msg ->
      Fmt.epr "rw sim: %s@." msg;
      exit_kb_error
    | Ok case ->
      let r = Sim.replay case.Sim.ops in
      emit r;
      if r.Sim.violations = [] then 0 else 1)
  | None ->
    let seed = parse_seed_or_exit seed_s in
    let r = Sim.run ~max_size ~faults ~seed ~steps () in
    emit r;
    if r.Sim.violations = [] then 0
    else begin
      (* Minimize the failing sequence; pin it when a corpus directory
         was given, otherwise print the recipe. *)
      let small = Sim.shrink r.Sim.ops r in
      let classes =
        List.sort_uniq Stdlib.compare
          (List.map
             (fun (_, v) -> v.Rw_sim.Invariant.invariant)
             r.Sim.violations)
      in
      let description =
        Printf.sprintf "seed %d, %d steps%s: %s violated" seed steps
          (if faults then " (faults)" else "")
          (String.concat "," classes)
      in
      (match corpus_dir with
      | Some dir ->
        (try Unix.mkdir dir 0o755
         with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ());
        let name =
          let key = String.concat "\n" (List.map Rw_sim.Op.render small) in
          Printf.sprintf "%s.sim"
            (String.sub (Digest.to_hex (Digest.string key)) 0 16)
        in
        let path = Filename.concat dir name in
        Sim.save_case ~path ~description ~seed ~faults small;
        Fmt.epr "minimized %d ops -> %d; pinned as %s@."
          (List.length r.Sim.ops) (List.length small) path
      | None ->
        Fmt.epr "minimized %d ops -> %d; reproduce with:@."
          (List.length r.Sim.ops) (List.length small);
        List.iter
          (fun op -> Fmt.epr "op: %s@." (Rw_sim.Op.render op))
          small);
      1
    end

let sim_cmd =
  let doc = "simulate whole-system op sequences under invariants" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Drives a seeded sequence of service operations — queries, \
         batches, belief-change updates, KB swaps, evictions, persists, \
         compactions, budget expiries and crash-restarts — against a real \
         service over a real durable store in a scratch file, checking an \
         invariant catalog after every step (see doc/SIMULATION.md). With \
         $(b,--faults), named injection points (store write/fsync, \
         compile, pool submit, torn mid-record writes) fail on \
         deterministically chosen steps.";
      `P
        "The event log printed to stdout is deterministic: the same \
         $(b,--seed)/$(b,--steps)/$(b,--faults) produce byte-identical \
         output on any machine at any pool width, and the trailing digest \
         line makes the comparison one string. Failing sequences are \
         greedily minimized; $(b,--corpus) pins them as .sim files the \
         test suite replays.";
      `S Manpage.s_exit_status;
      `P
        "0 when every invariant held; 1 when violations were found; 2 on \
         an invalid $(b,--seed) (usage error); 3 when $(b,--replay) names \
         an unreadable or malformed file.";
    ]
  in
  let steps_arg =
    Arg.(
      value & opt int 100
      & info [ "steps" ] ~docv:"INT" ~doc:"Number of ops to generate.")
  in
  let max_size_arg =
    Arg.(
      value & opt int 6
      & info [ "max-size" ] ~docv:"INT"
          ~doc:"Maximum number of KB conjuncts per generated KB.")
  in
  let faults_arg =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:"Enable the fault-injection plane (~1 armed point per 8 steps).")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay a pinned .sim op sequence instead of generating one.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Write minimized failing sequences into DIR as .sim files.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit NDJSON events and summary instead of text.")
  in
  Cmd.v
    (Cmd.info "sim" ~doc ~man ~exits:common_exits)
    Term.(
      const run_sim $ replay_seed_arg $ steps_arg $ max_size_arg $ faults_arg
      $ replay_arg $ corpus_arg $ json_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "degrees of belief from statistical knowledge bases (random worlds)" in
  let info = Cmd.info "rw" ~version:"1.0.0" ~doc ~exits:common_exits in
  (* Last line of the exit-code contract: structured parse exceptions
     that slip past a command's own Result handling still map to the
     documented codes (3 = KB, 4 = query) instead of an OCaml
     backtrace. *)
  let code =
    try
      Cmd.eval'
        (Cmd.group info
           [
             query_cmd; batch_cmd; serve_cmd; client_cmd;
             compile_cmd; store_cmd; consistent_cmd; series_cmd; zoo_cmd;
             parse_cmd; fuzz_cmd; sim_cmd;
           ])
    with
    | Rw_kbzoo.Kbzoo.Parse_error (src, msg) ->
      Fmt.epr "malformed in-tree knowledge base %S: %s@." src msg;
      exit_kb_error
    | Parser.Parse_failure msg ->
      Fmt.epr "parse failure: %s@." msg;
      exit_query_error
  in
  exit code
