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

(* ------------------------------------------------------------------ *)
(* The recovery window                                                *)
(* ------------------------------------------------------------------ *)

(* The recovery scan reads the log through a 64 KiB window starting
   after the 8-byte magic, so the first window ends at this offset.
   The logs below put one record across that boundary (its bytes come
   from two window fills) and one record larger than the window (it
   spans several fills and grows the scan's record buffer). *)
let first_window_end = 8 + 65536

let payload_of ~seed n =
  String.init n (fun i -> Char.chr ((i * 31 + seed) land 0xFF))

(* Append [(key, payload)]s to a fresh log; returns the path, the
   file image and each record's start offset. *)
let build_log records =
  let path = temp_path () in
  let t, _ = open_exn path in
  let starts =
    List.map
      (fun (key, payload) ->
        let start = file_bytes t in
        Store.add t key payload;
        start)
      records
  in
  Store.close t;
  (path, read_file path, starts)

(* A bit-at-a-time CRC-32 (reflected, polynomial 0xEDB88320): the
   definition the table-driven [Store.crc32] must agree with. *)
let crc32_bitwise ?(crc = 0l) buf ~pos ~len =
  let c = ref (lnot (Int32.to_int crc) land 0xFFFF_FFFF) in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get buf i);
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
    done
  done;
  Int32.of_int (lnot !c land 0xFFFF_FFFF)

(* What [Store.verify] reported before the scan read through a window:
   the record-at-a-time walk over the whole image, with the bitwise
   CRC. The window tests hold the windowed scan to it. *)
let reference_verify image =
  let size = String.length image in
  let u32 off = Int32.to_int (String.get_int32_le image off) in
  let seen = Hashtbl.create 16 and dead = ref 0 in
  let rec go off total =
    if off + 8 > size then (off, total, 0)
    else
      let klen = u32 off and plen = u32 (off + 4) in
      if klen <= 0 || klen > 65535 || plen < 0 || plen > (1 lsl 28) - 1 then
        (off, total, 0)
      else if off + 8 + klen + plen + 4 > size then (off, total, 0)
      else
        let body = Bytes.of_string (String.sub image off (8 + klen + plen)) in
        if
          crc32_bitwise body ~pos:0 ~len:(8 + klen + plen)
          <> String.get_int32_le image (off + 8 + klen + plen)
        then (off, total, 1)
        else begin
          let key = String.sub image (off + 8) klen in
          if Hashtbl.mem seen key then incr dead
          else Hashtbl.replace seen key ();
          go (off + 8 + klen + plen + 4) (total + 1)
        end
  in
  let valid, total, failures = go 8 0 in
  {
    Store.total_records = total;
    live_records = Hashtbl.length seen;
    dead_records = !dead;
    file_bytes = size;
    valid_prefix_bytes = valid;
    checksum_failures = failures;
    torn_tail_bytes = size - valid;
  }

let verify_report =
  Alcotest.testable
    (fun ppf (r : Store.verify_report) ->
      Fmt.pf ppf
        "{total=%d live=%d dead=%d file=%d valid=%d crc_failures=%d torn=%d}"
        r.total_records r.live_records r.dead_records r.file_bytes
        r.valid_prefix_bytes r.checksum_failures r.torn_tail_bytes)
    ( = )

let check_verify_matches_reference what path =
  match Store.verify path with
  | Error msg -> Alcotest.failf "%s: verify failed: %s" what msg
  | Ok r ->
    Alcotest.check verify_report (what ^ ": verify matches the reference scan")
      (reference_verify (read_file path)) r

let file_size path = (Unix.stat path).Unix.st_size

(* Cut the log at every byte from [prefix] (the start of the record
   under test) to [full - 1]; each open must recover exactly
   [recovered] records, count the torn bytes and truncate the file
   back to [prefix]. The victim file is rebuilt by appending to the
   truncated prefix, so each cut costs only the torn bytes. *)
let cut_matrix ~image ~prefix ~full ~recovered ~probe:(probe_key, probe_payload)
    =
  let victim = temp_path () in
  write_file victim (String.sub image 0 prefix);
  for cut = prefix to full - 1 do
    let fd = Unix.openfile victim [ Unix.O_WRONLY; Unix.O_APPEND ] 0 in
    ignore (Unix.write_substring fd image prefix (cut - prefix));
    Unix.close fd;
    let t, report = open_exn victim in
    if report.Store.recovered <> recovered then
      Alcotest.failf "cut %d: recovered %d records, want %d" cut
        report.Store.recovered recovered;
    if report.Store.truncated_bytes <> cut - prefix then
      Alcotest.failf "cut %d: %d torn bytes counted, want %d" cut
        report.Store.truncated_bytes (cut - prefix);
    if Store.find t probe_key <> Some probe_payload then
      Alcotest.failf "cut %d: record %S before the cut not served" cut
        probe_key;
    Store.close t;
    if file_size victim <> prefix then
      Alcotest.failf "cut %d: file is %d bytes, want it truncated to %d" cut
        (file_size victim) prefix
  done

let straddle_records =
  [
    ("w-00", payload_of ~seed:0 100);
    (* Ends 120 bytes before the first window does: 124 + 16 + 4 +
       65 280 = 65 424. *)
    ("w-01", payload_of ~seed:1 65_280);
    ("w-02", payload_of ~seed:2 300);
    ("w-03", payload_of ~seed:3 50);
  ]

let test_window_straddle_cuts () =
  let _, image, starts = build_log straddle_records in
  let start = List.nth starts 2 and stop = List.nth starts 3 in
  Alcotest.(check bool)
    "w-02 straddles the first window" true
    (start < first_window_end && stop > first_window_end);
  cut_matrix ~image ~prefix:start ~full:stop ~recovered:2
    ~probe:(List.nth straddle_records 1)

(* A record larger than the window, behind two small ones. 68 KiB
   rather than something larger: each cut rewrites and rescans the
   torn record. *)
let large_records =
  [
    ("big-0", payload_of ~seed:4 100);
    ("big-1", payload_of ~seed:5 40);
    ("big-L", payload_of ~seed:6 (65_536 + 4096));
  ]

let test_large_record_cuts () =
  let _, image, starts = build_log large_records in
  let prefix = List.nth starts 2 in
  let full = String.length image in
  Alcotest.(check bool) "big-L is larger than the window" true
    (full - prefix > 65_536);
  cut_matrix ~image ~prefix ~full ~recovered:2
    ~probe:(List.nth large_records 1)

(* Straddling records, a 200 KiB record and records behind it. *)
let mixed_records =
  straddle_records
  @ [
      ("w-big", payload_of ~seed:7 (200 * 1024));
      ("w-05", payload_of ~seed:8 20);
    ]

let test_window_corruption () =
  let path, image, starts = build_log mixed_records in
  let full = String.length image in
  let t, report = open_exn path in
  Alcotest.(check int) "clean open recovers every record"
    (List.length mixed_records) report.Store.recovered;
  Alcotest.(check int) "clean open truncates nothing" 0
    report.Store.truncated_bytes;
  List.iter
    (fun (key, payload) ->
      Alcotest.(check bool) (key ^ " served whole") true
        (Store.find t key = Some payload))
    mixed_records;
  Store.close t;
  check_verify_matches_reference "clean log" path;
  (* Flip one byte inside record [i] (at [delta] from its start): both
     scans must stop at that record and nowhere else. *)
  let flip i delta =
    let what = Printf.sprintf "record %d byte %d flipped" i delta in
    let start = List.nth starts i in
    let damaged = Bytes.of_string image in
    let pos = start + delta in
    Bytes.set damaged pos
      (Char.chr (Char.code (Bytes.get damaged pos) lxor 0xFF));
    let victim = temp_path () in
    write_file victim (Bytes.to_string damaged);
    check_verify_matches_reference what victim;
    (match Store.verify victim with
    | Ok r ->
      Alcotest.(check int) (what ^ ": verify stops there") start
        r.Store.valid_prefix_bytes
    | Error msg -> Alcotest.failf "%s: %s" what msg);
    let t, report = open_exn victim in
    Alcotest.(check int) (what ^ ": open recovers the records before it") i
      report.Store.recovered;
    Alcotest.(check int) (what ^ ": open drops the rest") (full - start)
      report.Store.truncated_bytes;
    List.iteri
      (fun j (key, payload) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s %s" what key
             (if j < i then "served" else "gone"))
          true
          (Store.find t key = if j < i then Some payload else None))
      mixed_records;
    Store.close t;
    Alcotest.(check int) (what ^ ": file truncated") start (file_size victim)
  in
  let w03 = 3 and big = 4 and w05 = 5 in
  Alcotest.(check bool) "w-03 lies past the first window" true
    (List.nth starts w03 > first_window_end);
  flip w03 10;
  flip big 8;
  flip big 150_000;
  flip w05 (8 + 4 + 3);
  (* A garbage length word past the window: framing, not CRC, stops
     the scan. *)
  let damaged = Bytes.of_string image in
  Bytes.set_int32_le damaged (List.nth starts w05) 0l;
  let victim = temp_path () in
  write_file victim (Bytes.to_string damaged);
  check_verify_matches_reference "zero key length" victim;
  (* Cuts inside and around the large record and its neighbours. *)
  let big_start = List.nth starts big in
  List.iter
    (fun cut ->
      write_file victim (String.sub image 0 cut);
      check_verify_matches_reference (Printf.sprintf "cut %d" cut) victim)
    [
      first_window_end - 1; first_window_end; first_window_end + 1;
      big_start + 3; big_start + 8; big_start + 65_536; big_start + 150_000;
      List.nth starts w05 - 1; full - 1;
    ]

(* The index packs each payload offset with its length into one int,
   which caps a log at 2^34 - 1 bytes; a longer one (here a sparse
   file, so the test writes nothing) is refused, not misindexed. *)
let test_log_size_ceiling () =
  let path = temp_path () in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  ignore (Unix.write_substring fd "RWSTORE1" 0 8);
  Unix.ftruncate fd (1 lsl 34);
  Unix.close fd;
  match Store.open_ path with
  | Ok (t, _) ->
    Store.close t;
    Alcotest.fail "a 16 GiB log opened"
  | Error msg ->
    Alcotest.(check bool) ("refused: " ^ msg) true (file_size path = 1 lsl 34)

(* ------------------------------------------------------------------ *)
(* CRC-32                                                             *)
(* ------------------------------------------------------------------ *)

let test_crc_known_answer () =
  let b = Bytes.of_string "123456789" in
  Alcotest.(check int32) "CRC-32 check value" 0xCBF43926l
    (Store.crc32 b ~pos:0 ~len:9);
  Alcotest.(check int32) "chained halves give the same value" 0xCBF43926l
    (Store.crc32 ~crc:(Store.crc32 b ~pos:0 ~len:4) b ~pos:4 ~len:5);
  Alcotest.(check int32) "empty input" 0l (Store.crc32 b ~pos:9 ~len:0)

(* Every length 0–300 (so every remainder of the 8-byte stride), at
   offsets 0–7 into the buffer, from a random starting CRC, split at a
   random point into two chained calls. *)
let prop_crc_matches_bitwise =
  let gen =
    QCheck.Gen.(
      let* len = int_range 0 300 in
      let* pos = int_range 0 7 in
      let* slack = int_range 0 7 in
      let* data = string_size (return (pos + len + slack)) in
      let* split = int_range 0 len in
      let* init = ui32 in
      return (data, pos, len, split, init))
  in
  let print (data, pos, len, split, init) =
    Printf.sprintf "data=%S pos=%d len=%d split=%d crc=%ld" data pos len split
      init
  in
  QCheck.Test.make ~count:2000 ~name:"store: crc32 equals the bitwise CRC"
    (QCheck.make ~print gen) (fun (data, pos, len, split, init) ->
      let b = Bytes.of_string data in
      let expected = crc32_bitwise ~crc:init b ~pos ~len in
      Store.crc32 ~crc:init b ~pos ~len = expected
      && Store.crc32
           ~crc:(Store.crc32 ~crc:init b ~pos ~len:split)
           b ~pos:(pos + split) ~len:(len - split)
         = expected)

(* ------------------------------------------------------------------ *)
(* Identical re-adds                                                  *)
(* ------------------------------------------------------------------ *)

(* The file, [appends] and [dead] as one comparable triple. *)
let footprint t =
  let s = Store.stats t in
  (s.Store.file_bytes, s.Store.appends, s.Store.dead)

let triple = Alcotest.(triple int int int)

(* Re-adding the payload a key already holds writes nothing: the index
   already points at those bytes, so the log keeps one record. *)
let test_identical_readd () =
  let path = temp_path () in
  let t, _ = open_exn path in
  Store.add t "k" "the-answer";
  let once = footprint t in
  Store.add t "k" "the-answer";
  Store.add t "k" "the-answer";
  Alcotest.check triple "identical re-adds change nothing" once (footprint t);
  Alcotest.(check (option string)) "served" (Some "the-answer")
    (Store.find t "k");
  Store.close t;
  let t, report = open_exn path in
  Alcotest.(check int) "reopen recovers one record" 1 report.Store.recovered;
  Alcotest.(check int) "one live key" 1 report.Store.live;
  let reopened = footprint t in
  Store.add t "k" "the-answer";
  Alcotest.check triple "identical re-add after a reopen changes nothing"
    reopened (footprint t);
  Alcotest.(check int) "nothing dead" 0 (Store.stats t).Store.dead;
  Store.close t

(* The comparison is on bytes, not lengths: a payload of the same length
   but different content still appends and shadows the old one, and so
   does going back to the first payload. *)
let test_same_length_readd_appends () =
  let path = temp_path () in
  let t, _ = open_exn path in
  Store.add t "k" "aaaa";
  let bytes1, _, _ = footprint t in
  Store.add t "k" "bbbb";
  let bytes2, appends, dead = footprint t in
  Alcotest.(check bool) "the file grew" true (bytes2 > bytes1);
  Alcotest.(check (pair int int)) "appended and shadowed" (2, 1)
    (appends, dead);
  Alcotest.(check (option string)) "newest payload served" (Some "bbbb")
    (Store.find t "k");
  Store.add t "k" "aaaa";
  let _, appends, dead = footprint t in
  Alcotest.(check (pair int int)) "the older payload appends again" (3, 2)
    (appends, dead);
  Store.close t;
  let t, report = open_exn path in
  Alcotest.(check (pair int int)) "three records, one live" (3, 1)
    (report.Store.recovered, report.Store.live);
  Alcotest.(check (option string)) "last write wins on reopen" (Some "aaaa")
    (Store.find t "k");
  Store.close t

(* Identical re-adds on either side of a compaction: before it they
   leave the dead count alone, after it they find the rewritten records
   and leave the compacted log as it is. *)
let test_identical_readd_compaction () =
  let path = temp_path () in
  let t, _ = open_exn path in
  Store.add t "k1" "v1";
  Store.add t "k1" "v1-prime";
  Store.add t "k2" "v2";
  let before = footprint t in
  Store.add t "k1" "v1-prime";
  Store.add t "k2" "v2";
  Alcotest.check triple "re-adds before compaction change nothing" before
    (footprint t);
  Store.compact t;
  let compacted = footprint t in
  Store.add t "k1" "v1-prime";
  Store.add t "k2" "v2";
  Alcotest.check triple "re-adds after compaction change nothing" compacted
    (footprint t);
  Alcotest.(check (list (option string))) "mapping unchanged"
    [ Some "v1-prime"; Some "v2" ]
    [ Store.find t "k1"; Store.find t "k2" ];
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
    ("store: window-straddling record, every cut", `Quick,
      test_window_straddle_cuts);
    ("store: record larger than the window, every cut", `Quick,
      test_large_record_cuts);
    ("store: corruption past the first window", `Quick,
      test_window_corruption);
    ("store: crc32 check value and chaining", `Quick, test_crc_known_answer);
    QCheck_alcotest.to_alcotest ~speed_level:`Quick
      ~rand:(Random.State.make [| 23 |])
      prop_crc_matches_bitwise;
    ("store: a log over 16 GiB is refused", `Quick, test_log_size_ceiling);
    ("store: an identical re-add writes nothing", `Quick, test_identical_readd);
    ("store: a same-length new payload still appends", `Quick,
      test_same_length_readd_appends);
    ("store: identical re-adds around a compaction", `Quick,
      test_identical_readd_compaction);
  ]
