(* The benchmark's own tests: stream determinism, the stated op mix of
   each workload, variant ordering in hot-serve, the summary helper,
   and that a corrupted reply fails the run. *)

open Perfbench

(* Tests run in the build tree, one level below the repository root. *)
let read path = In_channel.with_open_text (Filename.concat ".." path) In_channel.input_all

let make name seed =
  match Workload.make ~name ~seed ~read with
  | Ok w -> w
  | Error e -> Alcotest.fail e

let lines (w : Workload.t) n =
  List.mapi (fun i op -> Workload.to_line ~id:i op) (Cli.sequence w n)

let determinism () =
  List.iter
    (fun name ->
      let a = lines (make name 7) 3000 and b = lines (make name 7) 3000 in
      Alcotest.(check (list string)) (name ^ ": same seed, same NDJSON") a b;
      let c = lines (make name 8) 3000 in
      Alcotest.(check bool) (name ^ ": another seed differs") true (a <> c))
    Workload.names

let count p xs = List.length (List.filter p xs)

let share p xs = float_of_int (count p xs) /. float_of_int (List.length xs)

let within name ~lo ~hi x =
  if x < lo || x > hi then Alcotest.failf "%s = %g, expected within [%g, %g]" name x lo hi

let stream (w : Workload.t) n = Cli.take n (w.stream ())

let hot_mix () =
  let w = make "hot-serve" 3 in
  let ops = stream w 20000 in
  let qs = List.filter_map (function Workload.Query { q; explain } -> Some (q, explain) | _ -> None) ops in
  Alcotest.(check int) "only queries" 20000 (List.length qs);
  within "explain share" ~lo:0.08 ~hi:0.12 (share snd qs);
  let pool = Hashtbl.create 4096 in
  Array.iter (fun q -> Hashtbl.replace pool q ()) Workload.hep_pool;
  let ws = Hashtbl.create 256 in
  List.iter (function Workload.Query { q; _ } -> Hashtbl.replace ws q () | _ -> ()) w.warmup;
  Alcotest.(check int) "working set" Workload.working_set (Hashtbl.length ws);
  let fresh = share (fun (q, _) -> not (Hashtbl.mem ws q) && Hashtbl.mem pool q) qs in
  within "never-seen share" ~lo:0.005 ~hi:0.015 fresh;
  let variants = share (fun (q, _) -> not (Hashtbl.mem pool q)) qs in
  within "variant share" ~lo:0.17 ~hi:0.23 variants

(* A variant (a ~~ or commuted form) may only be sent once its
   verbatim form — the one text per digest the generator's pool holds
   — has been sent. *)
let no_early_variant () =
  let w = make "hot-serve" 11 in
  let pool = Hashtbl.create 4096 in
  Array.iter (fun q -> Hashtbl.replace pool q ()) Workload.hep_pool;
  let first = Hashtbl.create 4096 in
  List.iter
    (function
      | Workload.Query { q; _ } ->
        let d = Rw_logic.Canonical.digest (Rw_logic.Parser.formula_exn q) in
        if not (Hashtbl.mem first d) then begin
          Hashtbl.add first d q;
          let extra =
            (not (String.starts_with ~prefix:"~~" q))
            && List.length (String.split_on_char '/' q) = 3
          in
          if not (Hashtbl.mem pool q || extra) then
            Alcotest.failf "%s is the first text sent for its digest but is a variant" q
        end
      | _ -> ())
    (Cli.sequence w 30000)

let cold_mix () =
  let w = make "cold-kbs" 5 in
  let len = w.unit_len / Workload.cycles_per_run in
  let cycle = stream w len in
  Alcotest.(check int) "load_kb, batch per KB" (len / 2)
    (count (function Workload.Batch _ -> true | _ -> false) cycle);
  List.iteri
    (fun i op ->
      match (i mod 2, op) with
      | 0, Workload.Load_kb _ | 1, Workload.Batch _ -> ()
      | _ -> Alcotest.failf "op %d out of order" i)
    cycle;
  let cases = Workload.kb_cases ~read in
  Alcotest.(check int) "KBs in the cycle" (List.length cases - 1) (len / 2);
  List.iter2
    (fun op op' ->
      match (op, op') with
      | Workload.Load_kb text, Workload.Batch (q :: rest) ->
        let c =
          List.find (fun (c : Workload.kb_case) -> c.text = text && c.paper_query = q) cases
        in
        Alcotest.(check string) "paper query first" c.paper_query q;
        if c.unary then
          Alcotest.(check bool) (c.label ^ ": passes parallel_threshold") true
            (List.length rest + 1 >= Rw_service.Service.default_config.parallel_threshold)
        else Alcotest.(check int) (c.label ^ ": paper query only") 0 (List.length rest)
      | _ -> ())
    (List.filteri (fun i _ -> i mod 2 = 0) cycle)
    (List.filteri (fun i _ -> i mod 2 = 1) cycle)

let session_mix () =
  let w = make "session-store" 9 in
  let ops = Array.of_list (stream w 10000) in
  Array.iteri
    (fun k op ->
      match op with
      | Workload.Persist { compact } ->
        Alcotest.(check bool) "persist position" true (k mod Workload.persist_every = 0);
        Alcotest.(check bool) "compact position" (k = Workload.compact_at) compact
      | _ -> ())
    ops;
  let l = Array.to_list ops in
  within "update share" ~lo:0.13 ~hi:0.15
    (share (function Workload.Update _ -> true | _ -> false) l);
  Alcotest.(check int) "statistic changes" 2
    (count
       (function Workload.Update { src; _ } -> src = Workload.session_stat_change | _ -> false)
       l);
  (* Every retract undoes an assert still in force. *)
  let live = Hashtbl.create 64 in
  List.iter
    (function
      | Workload.Update { assert_ = true; src } ->
        Alcotest.(check bool) ("fresh assert " ^ src) false (Hashtbl.mem live src);
        Hashtbl.replace live src ()
      | Workload.Update { assert_ = false; src } ->
        Alcotest.(check bool) ("retract of a live assert " ^ src) true (Hashtbl.mem live src);
        Hashtbl.remove live src
      | _ -> ())
    l

let summary () =
  let xs = List.init 1000 (fun i -> float_of_int (i + 1)) in
  (match Summary.summarize xs with
  | Ok s ->
    Alcotest.(check int) "n" 1000 s.n;
    Alcotest.(check (float 0.0)) "median" 500.0 s.median;
    Alcotest.(check (float 0.0)) "highest tail with ten beyond" 99.0 s.tail_pct;
    Alcotest.(check (float 0.0)) "p99" 990.0 s.tail
  | Error e -> Alcotest.fail e);
  (match Summary.percentile (List.init 999 float_of_int) 99.0 with
  | Ok _ -> Alcotest.fail "p99 of 999 samples has nine beyond it; must be refused"
  | Error _ -> ());
  (match Summary.percentile (List.init 100 float_of_int) 90.0 with
  | Ok v -> Alcotest.(check (float 0.0)) "p90 of 100" 89.0 v
  | Error e -> Alcotest.fail e);
  match Summary.summarize (List.init 9 float_of_int) with
  | Ok _ -> Alcotest.fail "nine samples have no tail"
  | Error _ -> ()

(* Record the reference's own answers as if served, corrupt one, and
   the check must fail the run. *)
let corrupted_reply () =
  let w = make "hot-serve" 1 in
  let ops = Cli.sequence w 200 in
  let served corrupt =
    let chk = Check.create () in
    let r = Check.reference () in
    let corrupted = ref false in
    List.iter
      (function
        | Workload.Load_kb text ->
          ignore (Rw_service.Service.load_kb_string r.svc text);
          Check.refresh_digest r
        | Workload.Query { q; _ } ->
          let k = Check.reference_answer r q in
          let k =
            if corrupt && not !corrupted then begin
              corrupted := true;
              k ^ " "
            end
            else k
          in
          ignore (Check.record chk ~state:r.state q k)
        | _ -> ())
      ops;
    let v = Check.verify chk ~expected:(fun _ _ -> None) ops in
    v.failed_replies
  in
  Alcotest.(check int) "clean replies pass" 0 (served false);
  let failed = served true in
  Alcotest.(check bool) "a corrupted reply fails" true (failed > 0);
  Alcotest.(check int) "and the command exits non-zero" 1 (Cli.exit_code ~failed)

let () =
  Alcotest.run "perfbench"
    [
      ( "workloads",
        [
          Alcotest.test_case "determinism" `Quick determinism;
          Alcotest.test_case "hot-serve mix" `Quick hot_mix;
          Alcotest.test_case "hot-serve variants follow verbatim" `Quick no_early_variant;
          Alcotest.test_case "cold-kbs mix" `Quick cold_mix;
          Alcotest.test_case "session-store mix" `Quick session_mix;
        ] );
      ( "check",
        [
          Alcotest.test_case "summary helper" `Quick summary;
          Alcotest.test_case "corrupted reply" `Quick corrupted_reply;
        ] );
    ]
