(* Tests for the durable answer store: record framing and checksum
   recovery (a truncation matrix over every byte boundary of the last
   record), shadowing, compaction equivalence, and the service's
   write-through / store-hit paths across simulated restarts. *)

open Rw_logic
module Store = Rw_store.Store
module Service = Rw_service.Service

let temp_path () =
  let path = Filename.temp_file "rw_store_test" ".rws" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let open_exn path =
  match Store.open_ path with
  | Ok (t, report) -> (t, report)
  | Error msg -> Alcotest.failf "open %s failed: %s" path msg

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let file_bytes t = (Store.stats t).Store.file_bytes

(* ------------------------------------------------------------------ *)
(* Log basics                                                         *)
(* ------------------------------------------------------------------ *)

let test_persistence () =
  let path = temp_path () in
  let t, report = open_exn path in
  Alcotest.(check int) "fresh store is empty" 0 report.Store.recovered;
  Store.add t "k1" "v1";
  Store.add t "k2" "v2";
  Store.add t "k1" "v1-prime";
  Alcotest.(check int) "live length" 2 (Store.length t);
  Alcotest.(check (option string))
    "an overwrite shadows" (Some "v1-prime") (Store.find t "k1");
  Alcotest.(check bool) "mem sees live keys" true (Store.mem t "k2");
  Alcotest.(check bool) "mem misses absent keys" false (Store.mem t "zz");
  Store.close t;
  let t, report = open_exn path in
  Alcotest.(check int) "whole records recovered" 3 report.Store.recovered;
  Alcotest.(check int) "live after shadowing" 2 report.Store.live;
  Alcotest.(check int)
    "clean open truncates nothing" 0 report.Store.truncated_bytes;
  Alcotest.(check (option string)) "k1" (Some "v1-prime") (Store.find t "k1");
  Alcotest.(check (option string)) "k2" (Some "v2") (Store.find t "k2");
  Alcotest.(check (option string)) "absent key" None (Store.find t "nope");
  Store.close t

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                     *)
(* ------------------------------------------------------------------ *)

(* The crash-safety contract, pinned byte by byte: cut the log at
   EVERY boundary inside the last record (a torn append can stop
   anywhere) and assert recovery yields exactly the prefix before it —
   nothing more, nothing less — and physically truncates the tail. *)
let test_truncation_matrix () =
  let path = temp_path () in
  let t, _ = open_exn path in
  Store.add t "alpha" "payload-alpha";
  Store.add t "beta" "payload-beta";
  let prefix = file_bytes t in
  Store.add t "gamma" "payload-gamma";
  let full = file_bytes t in
  Store.close t;
  let image = read_file path in
  Alcotest.(check int) "stats file_bytes matches disk" full
    (String.length image);
  for cut = prefix to full - 1 do
    let victim = temp_path () in
    write_file victim (String.sub image 0 cut);
    let t, report = open_exn victim in
    Alcotest.(check int)
      (Printf.sprintf "cut %d: exact prefix recovered" cut)
      2 report.Store.recovered;
    Alcotest.(check int)
      (Printf.sprintf "cut %d: torn bytes counted" cut)
      (cut - prefix) report.Store.truncated_bytes;
    Alcotest.(check (option string))
      (Printf.sprintf "cut %d: alpha intact" cut)
      (Some "payload-alpha") (Store.find t "alpha");
    Alcotest.(check (option string))
      (Printf.sprintf "cut %d: beta intact" cut)
      (Some "payload-beta") (Store.find t "beta");
    Alcotest.(check (option string))
      (Printf.sprintf "cut %d: torn gamma gone" cut)
      None (Store.find t "gamma");
    Store.close t;
    Alcotest.(check int)
      (Printf.sprintf "cut %d: file truncated to last whole record" cut)
      prefix
      (String.length (read_file victim));
    Sys.remove victim
  done

let test_mid_file_corruption () =
  let path = temp_path () in
  let t, _ = open_exn path in
  Store.add t "first-key" "first-value";
  let prefix = file_bytes t in
  Store.add t "second-key" "second-value";
  Store.add t "third-key" "third-value";
  let full = file_bytes t in
  Store.close t;
  (* Flip a byte inside the second record's key: its CRC must fail,
     and framing is unrecoverable past the first bad record. *)
  let image = Bytes.of_string (read_file path) in
  let pos = prefix + 8 + 2 in
  Bytes.set image pos (Char.chr (Char.code (Bytes.get image pos) lxor 0xff));
  write_file path (Bytes.to_string image);
  (match Store.verify path with
  | Error msg -> Alcotest.failf "verify failed: %s" msg
  | Ok r ->
    Alcotest.(check int) "verify: records before the damage" 1
      r.Store.total_records;
    Alcotest.(check int) "verify: one checksum failure" 1
      r.Store.checksum_failures;
    Alcotest.(check int) "verify: valid prefix ends at the damage" prefix
      r.Store.valid_prefix_bytes;
    Alcotest.(check int) "verify: everything after is torn" (full - prefix)
      r.Store.torn_tail_bytes);
  Alcotest.(check int) "verify is read-only" full
    (String.length (read_file path));
  let t, report = open_exn path in
  Alcotest.(check int) "open recovers the valid prefix" 1
    report.Store.recovered;
  Alcotest.(check int) "open drops the corrupt tail" (full - prefix)
    report.Store.truncated_bytes;
  Alcotest.(check (option string))
    "record before the damage served" (Some "first-value")
    (Store.find t "first-key");
  Alcotest.(check (option string))
    "corrupt record never served" None
    (Store.find t "second-key");
  Store.close t

(* ------------------------------------------------------------------ *)
(* Compaction                                                         *)
(* ------------------------------------------------------------------ *)

let test_compaction_equivalence () =
  let path = temp_path () in
  let t, _ = open_exn path in
  let key i = Printf.sprintf "key-%02d" i in
  for round = 1 to 3 do
    for i = 0 to 24 do
      Store.add t (key i) (Printf.sprintf "round-%d-value-%02d" round i)
    done
  done;
  let snapshot () = List.init 25 (fun i -> Store.find t (key i)) in
  let before = snapshot () in
  let bytes_before = file_bytes t in
  Store.compact t;
  let s = Store.stats t in
  Alcotest.(check int) "dead records reclaimed" 0 s.Store.dead;
  Alcotest.(check int) "generation bumped" 1 s.Store.generation;
  Alcotest.(check bool) "file shrank" true (s.Store.file_bytes < bytes_before);
  Alcotest.(check (list (option string)))
    "key -> payload mapping unchanged" before (snapshot ());
  Store.close t;
  let t, report = open_exn path in
  Alcotest.(check int) "compacted log reopens to the live set" 25
    report.Store.recovered;
  Alcotest.(check int) "all recovered records live" 25 report.Store.live;
  Alcotest.(check (list (option string)))
    "mapping survives the reopen" before
    (List.init 25 (fun i -> Store.find t (key i)));
  Store.close t

(* ------------------------------------------------------------------ *)
(* Service integration: write-through and restart                     *)
(* ------------------------------------------------------------------ *)

let parse s =
  match Parser.formula s with
  | Ok f -> f
  | Error msg -> Alcotest.failf "parse %S failed: %s" s msg

let answer = Alcotest.testable Randworlds.Answer.pp ( = )

let origin_name = function
  | Service.Computed -> "Computed"
  | Service.Cached -> "Cached"
  | Service.Stored -> "Stored"
  | Service.Degraded -> "Degraded"

let queries =
  [
    "Hep(Eric)"; "~Hep(Eric)"; "Jaun(Eric)"; "~Jaun(Eric)";
    "Hep(Eric) /\\ Jaun(Eric)"; "Hep(Eric) \\/ Jaun(Eric)";
    "Hep(Eric) => Jaun(Eric)"; "~Hep(Eric) /\\ Jaun(Eric)";
  ]

(* A 4-domain batch writes through the store concurrently; a fresh
   service over the reopened store (cold LRU) must serve every answer
   from the durable tier, byte-identically. *)
let test_concurrent_write_through () =
  let path = temp_path () in
  let t, _ = open_exn path in
  let fs = List.map parse queries in
  let answers =
    Rw_pool.Pool.run ~jobs:4 (fun pool ->
        let svc = Service.create ~store:t ~pool () in
        Service.load_kb svc (Rw_kbzoo.Kbzoo.hep_simple ());
        List.map
          (function
            | Ok (a, _) -> a
            | Error msg -> Alcotest.failf "batch item failed: %s" msg)
          (Service.batch svc fs))
  in
  Alcotest.(check int) "one live record per distinct query"
    (List.length queries) (Store.length t);
  Store.close t;
  let t, report = open_exn path in
  Alcotest.(check int) "every write-through recovered"
    (List.length queries) report.Store.live;
  let svc = Service.create ~store:t () in
  Service.load_kb svc (Rw_kbzoo.Kbzoo.hep_simple ());
  List.iteri
    (fun i (f, expected) ->
      match Service.query svc f with
      | Ok (a, Service.Stored) ->
        Alcotest.check answer
          (Printf.sprintf "query %d replays byte-identically" i)
          expected a
      | Ok (_, origin) ->
        Alcotest.failf "query %d: expected Stored origin, got %s" i
          (origin_name origin)
      | Error msg -> Alcotest.failf "query %d: %s" i msg)
    (List.combine fs answers);
  Store.close t

(* A stored trace replays across a restart: the explained store hit
   leads with the "cache"/"hit-store" provenance fact, followed by the
   original derivation. *)
let test_store_hit_trace () =
  let path = temp_path () in
  let q = parse "Hep(Eric)" in
  let t, _ = open_exn path in
  let svc = Service.create ~store:t () in
  Service.load_kb svc (Rw_kbzoo.Kbzoo.hep_simple ());
  (match Service.query_explained svc q with
  | Ok { Service.origin = Service.Computed; _ } -> ()
  | Ok { Service.origin; _ } ->
    Alcotest.failf "first query: expected Computed, got %s"
      (origin_name origin)
  | Error msg -> Alcotest.failf "first query: %s" msg);
  Store.close t;
  let t, _ = open_exn path in
  let svc = Service.create ~store:t () in
  Service.load_kb svc (Rw_kbzoo.Kbzoo.hep_simple ());
  (match Service.query_explained svc q with
  | Ok { Service.origin = Service.Stored; trace; _ } -> (
    match trace with
    | Rw_trace.Trace.Fact { tag = "cache"; fields } :: rest ->
      Alcotest.(check bool)
        "provenance says hit-store" true
        (List.assoc_opt "outcome" fields
        = Some (Rw_trace.Trace.S "hit-store"));
      Alcotest.(check bool)
        "the original derivation follows" true
        (rest <> [])
    | _ -> Alcotest.fail "store-hit trace must lead with the cache fact")
  | Ok { Service.origin; _ } ->
    Alcotest.failf "restart query: expected Stored, got %s"
      (origin_name origin)
  | Error msg -> Alcotest.failf "restart query: %s" msg);
  Store.close t

let suite =
  [
    ("store: shadowing writes and reopen", `Quick, test_persistence);
    ( "store: truncation matrix, every byte of the last record",
      `Quick, test_truncation_matrix );
    ("store: mid-file corruption stops the scan", `Quick,
      test_mid_file_corruption);
    ("store: compaction preserves the mapping", `Quick,
      test_compaction_equivalence);
    ( "store+service: 4-domain write-through survives a restart",
      `Quick, test_concurrent_write_through );
    ("store+service: stored trace replays with hit-store provenance",
      `Quick, test_store_hit_trace);
  ]
