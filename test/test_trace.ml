(* Golden-file tests of the --explain derivation traces — one canonical
   KB-zoo query per engine class — plus trace invariants and the serve
   protocol's explain round trip.

   The goldens pin the *rendered* trace with timings masked
   ([pp ~mask_timings:true]), so they are byte-stable across runs and
   machines of the same build: every engine's emission is deterministic
   (the Monte-Carlo facts carry the seed and counts, never wall-clock).
   Regenerate with

     RW_UPDATE_GOLDEN=$PWD/test/golden dune exec test/test_main.exe -- test trace
*)

open Rw_logic
open Randworlds
module Trace = Rw_trace.Trace

(* ------------------------------------------------------------------ *)
(* Harness                                                            *)
(* ------------------------------------------------------------------ *)

let kb_dir () =
  let candidates = [ "../examples/kb"; "examples/kb"; "../../examples/kb" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> Alcotest.fail "examples/kb corpus not found"

let load_kb name =
  match Kb_file.validated_load (Filename.concat (kb_dir ()) name) with
  | Ok kb -> kb
  | Error msg -> Alcotest.fail (Printf.sprintf "loading %s: %s" name msg)

let parse src =
  match Parser.formula src with
  | Ok f -> f
  | Error msg -> Alcotest.fail (Printf.sprintf "parsing %S: %s" src msg)

(* Deterministic engine options for the goldens: a fixed seed and fixed
   grids, and no enum/mc cross-check noise in the dispatch trace. *)
let golden_options =
  {
    Engine.default_options with
    Engine.mc_samples = Some 2_000;
    mc_ci_width = Some 0.1;
    mc_sizes = Some [ 8 ];
    mc_cross_check = false;
  }

let render run =
  let tr = Trace.create () in
  let answer = run tr in
  (Fmt.str "%a" (Trace.pp ~mask_timings:true) (Trace.events tr), answer)

let check_golden name actual =
  match Sys.getenv_opt "RW_UPDATE_GOLDEN" with
  | Some dir ->
    Out_channel.with_open_text (Filename.concat dir name) (fun oc ->
        Out_channel.output_string oc actual)
  | None -> (
    let dir =
      List.find_opt Sys.file_exists
        [ "golden"; "test/golden"; "../test/golden" ]
      |> Option.value ~default:"golden"
    in
    let path = Filename.concat dir name in
    match In_channel.with_open_text path In_channel.input_all with
    | expected -> Alcotest.(check string) name expected actual
    | exception Sys_error _ ->
      Alcotest.fail
        (Printf.sprintf
           "golden file %s missing — regenerate with RW_UPDATE_GOLDEN" path))

(* ------------------------------------------------------------------ *)
(* Golden traces, one per engine class                                 *)
(* ------------------------------------------------------------------ *)

(* Full dispatch on the Tweety KB: rule B resolves the specificity
   conflict, so the trace must show the candidate reference classes,
   the winner (Penguin), and Theorem 5.16. *)
let test_golden_dispatch () =
  let kb = load_kb "tweety.kb" and q = parse "Fly(Tweety)" in
  let trace, answer =
    render (fun tr -> Engine.infer ~options:golden_options ~trace:tr ~kb q)
  in
  check_golden "dispatch-tweety.txt" trace;
  Alcotest.(check string) "engine" "rules" answer.Answer.engine;
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let has needle =
    Alcotest.(check bool) needle true (contains needle trace)
  in
  has "role=winner";
  has "Penguin";
  has "id=5.16"

let forced name eid kb_file query golden =
  let kb = load_kb kb_file and q = parse query in
  let trace, answer =
    render (fun tr -> Engine.run ~options:golden_options ~trace:tr eid ~kb q)
  in
  check_golden golden trace;
  Alcotest.(check (option string))
    (name ^ ": trace names the answering engine")
    (Some answer.Answer.engine)
    (Trace.selected_engine
       (let tr = Trace.create () in
        ignore (Engine.run ~options:golden_options ~trace:tr eid ~kb q);
        Trace.events tr))

let test_golden_maxent () =
  forced "maxent" Engine.Maxent "hepatitis.kb" "Hep(Eric)"
    "maxent-hepatitis.txt"

let test_golden_unary () =
  forced "unary" Engine.Unary "hepatitis.kb" "Hep(Eric)" "unary-hepatitis.txt"

let test_golden_enum () =
  forced "enum" Engine.Enum "hepatitis.kb" "Hep(Eric)" "enum-hepatitis.txt"

let test_golden_mc () =
  forced "mc" Engine.Mc "hepatitis.kb" "Hep(Eric)" "mc-hepatitis.txt"

(* ------------------------------------------------------------------ *)
(* Trace invariants                                                   *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let tr = Trace.create () in
  let r =
    Trace.span (Some tr) "outer" (fun () ->
        Trace.note tr "inside";
        (try Trace.span (Some tr) "inner" (fun () -> failwith "boom")
         with Failure _ -> ());
        42)
  in
  Alcotest.(check int) "span returns the body's value" 42 r;
  match Trace.events tr with
  | [ Trace.Enter "outer"; Trace.Fact _; Trace.Enter "inner";
      Trace.Leave { phase = "inner"; _ }; Trace.Leave { phase = "outer"; _ } ]
    -> ()
  | evs ->
    Alcotest.failf "unexpected event shape:@.%a"
      (Trace.pp ~mask_timings:true) evs

let test_selected_engine_last_wins () =
  let tr = Trace.create () in
  Trace.fact tr "engine-selected" [ ("engine", Trace.S "maxent") ];
  Trace.fact tr "engine-selected" [ ("engine", Trace.S "rules") ];
  Alcotest.(check (option string))
    "last engine-selected wins" (Some "rules")
    (Trace.selected_engine (Trace.events tr));
  Alcotest.(check (option string))
    "empty trace has none" None (Trace.selected_engine [])

(* Tracing must not change any verdict: the engine answers with and
   without a trace attached are identical on the whole KB zoo's
   flagship queries. *)
let test_tracing_is_inert () =
  List.iter
    (fun (kb_file, query) ->
      let kb = load_kb kb_file and q = parse query in
      let plain = Engine.infer ~options:golden_options ~kb q in
      let tr = Trace.create () in
      let traced = Engine.infer ~options:golden_options ~trace:tr ~kb q in
      Alcotest.(check string)
        (kb_file ^ ": same engine") plain.Answer.engine traced.Answer.engine;
      Alcotest.(check bool)
        (kb_file ^ ": same result") true
        (plain.Answer.result = traced.Answer.result))
    [
      ("tweety.kb", "Fly(Tweety)");
      ("hepatitis.kb", "Hep(Eric)");
      ("nixon.kb", "Pac(Nixon)");
      ("taxonomy.kb", "Fly(Opus)");
    ]

(* ------------------------------------------------------------------ *)
(* Service and serve-protocol explain                                 *)
(* ------------------------------------------------------------------ *)

(* A cached answer explains itself: the second explained query replays
   the stored trace behind a cache-hit fact, without re-dispatching. *)
let test_service_cached_trace () =
  let svc = Rw_service.Service.create () in
  Rw_service.Service.load_kb svc (load_kb "tweety.kb");
  let q = parse "Fly(Tweety)" in
  match
    ( Rw_service.Service.query_explained svc q,
      Rw_service.Service.query_explained svc q )
  with
  | Ok e1, Ok e2 ->
    Alcotest.(check bool)
      "first is computed" true
      (e1.Rw_service.Service.origin = Rw_service.Service.Computed);
    Alcotest.(check bool)
      "second is cached" true
      (e2.Rw_service.Service.origin = Rw_service.Service.Cached);
    (match e2.Rw_service.Service.trace with
    | Trace.Fact { tag = "cache"; fields } :: rest ->
      Alcotest.(check bool)
        "hit fact" true
        (List.assoc_opt "outcome" fields = Some (Trace.S "hit"));
      Alcotest.(check bool)
        "stored trace replayed" true
        (rest = e1.Rw_service.Service.trace)
    | _ -> Alcotest.fail "cached trace does not lead with a cache fact");
    Alcotest.(check (option string))
      "cached trace still names the engine"
      (Some e2.Rw_service.Service.answer.Answer.engine)
      (Trace.selected_engine e2.Rw_service.Service.trace)
  | Error msg, _ | _, Error msg -> Alcotest.fail msg

(* A plain-query entry upgrades on the first explained hit
   (hit-retraced), and the retrace does not change the verdict. *)
let test_service_retrace () =
  let svc = Rw_service.Service.create () in
  Rw_service.Service.load_kb svc (load_kb "hepatitis.kb");
  let q = parse "Hep(Eric)" in
  match
    ( Rw_service.Service.query svc q,
      Rw_service.Service.query_explained svc q,
      Rw_service.Service.query_explained svc q )
  with
  | Ok (a0, _), Ok e1, Ok e2 ->
    (match e1.Rw_service.Service.trace with
    | Trace.Fact { tag = "cache"; fields } :: _ ->
      Alcotest.(check bool)
        "retraced fact" true
        (List.assoc_opt "outcome" fields = Some (Trace.S "hit-retraced"))
    | _ -> Alcotest.fail "retraced trace does not lead with a cache fact");
    Alcotest.(check bool)
      "retrace keeps the verdict" true
      (a0.Answer.result = e1.Rw_service.Service.answer.Answer.result);
    (match e2.Rw_service.Service.trace with
    | Trace.Fact { tag = "cache"; fields } :: _ ->
      Alcotest.(check bool)
        "upgraded entry now hits" true
        (List.assoc_opt "outcome" fields = Some (Trace.S "hit"))
    | _ -> Alcotest.fail "third query should replay the upgraded entry")
  | Error msg, _, _ | _, Error msg, _ | _, _, Error msg -> Alcotest.fail msg

(* The full wire path: an NDJSON session with "explain":true replies
   carrying a "trace" whose decoded engine-selected fact agrees with
   the answer's engine — on both the miss and the cached hit. *)
let test_serve_explain_roundtrip () =
  let kb_path = Filename.concat (kb_dir ()) "tweety.kb" in
  let requests =
    [
      Printf.sprintf {|{"op":"load_kb","path":"%s"}|} kb_path;
      {|{"op":"query","query":"Fly(Tweety)","explain":true,"id":1}|};
      {|{"op":"query","query":"Fly(Tweety)","explain":true,"id":2}|};
      {|{"op":"shutdown"}|};
    ]
  in
  let in_file = Filename.temp_file "rw_explain" ".in" in
  let out_file = Filename.temp_file "rw_explain" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove in_file;
      Sys.remove out_file)
    (fun () ->
      Out_channel.with_open_text in_file (fun oc ->
          List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) requests);
      let status =
        In_channel.with_open_text in_file (fun ic ->
            Out_channel.with_open_text out_file (fun oc ->
                Rw_service.Server.run ~ic ~oc
                  (Rw_service.Service.create ())))
      in
      Alcotest.(check int) "serve exits 0" 0 status;
      let replies =
        In_channel.with_open_text out_file In_channel.input_lines
      in
      Alcotest.(check int) "four replies" 4 (List.length replies);
      let check_explained ~expect_cached line =
        match Rw_service.Json.of_string line with
        | Error msg -> Alcotest.fail ("reply does not parse: " ^ msg)
        | Ok json ->
          let member k = Rw_service.Json.member k json in
          Alcotest.(check (option bool))
            "ok" (Some true)
            (Option.bind (member "ok") Rw_service.Json.to_bool);
          let engine =
            Option.bind (member "answer") (fun a ->
                Option.bind
                  (Rw_service.Json.member "engine" a)
                  Rw_service.Json.to_str)
          in
          let cached =
            Option.bind (member "answer") (fun a ->
                Option.bind
                  (Rw_service.Json.member "cached" a)
                  Rw_service.Json.to_bool)
          in
          Alcotest.(check (option bool)) "cached flag" (Some expect_cached)
            cached;
          (match member "trace" with
          | None -> Alcotest.fail "explained reply has no trace"
          | Some tj -> (
            match Rw_service.Protocol.trace_of_json tj with
            | Error msg -> Alcotest.fail ("trace does not decode: " ^ msg)
            | Ok events ->
              Alcotest.(check (option string))
                "decoded trace agrees with the answer's engine" engine
                (Trace.selected_engine events)))
      in
      check_explained ~expect_cached:false (List.nth replies 1);
      check_explained ~expect_cached:true (List.nth replies 2))

(* The `rw query --explain` path on a top-level disjunctive KB: the
   maxent-profile fact describes the dominant disjunct's maxent point
   (its two constraint rows), not the unconstrained uniform point of
   the disjunction as a whole (no constraints, entropy ln 8). *)
let test_disjunctive_profile () =
  let kb =
    parse
      "(||LUsable(x)||_x ~=_1 0.2 /\\ LBroken(Eric)) \\/ \
       (||LUsable(x)||_x ~=_1 0.2 /\\ RBroken(Eric))"
  in
  let tr = Trace.create () in
  ignore (Engine.degree_of_belief ~trace:tr ~kb (parse "LUsable(Eric)"));
  let profile =
    List.find_map
      (function
        | Trace.Fact { tag = "maxent-profile"; fields } -> Some fields
        | _ -> None)
      (Trace.events tr)
  in
  match profile with
  | None -> Alcotest.fail "no maxent-profile fact"
  | Some fields ->
    Alcotest.(check bool) "constraints of a disjunct" true
      (List.assoc_opt "constraints" fields = Some (Trace.I 2));
    (match List.assoc_opt "entropy" fields with
    | Some (Trace.F h) ->
      Alcotest.(check bool) "below the uniform ln 8" true (h < log 8.0 -. 0.1)
    | _ -> Alcotest.fail "no entropy field")

let suite =
  [
    Alcotest.test_case "golden: dispatch trace on tweety" `Quick
      test_golden_dispatch;
    Alcotest.test_case "golden: maxent trace on hepatitis" `Quick
      test_golden_maxent;
    Alcotest.test_case "golden: unary trace on hepatitis" `Quick
      test_golden_unary;
    Alcotest.test_case "golden: enum trace on hepatitis" `Quick
      test_golden_enum;
    Alcotest.test_case "golden: mc trace on hepatitis" `Quick test_golden_mc;
    Alcotest.test_case "span: nesting and exception safety" `Quick
      test_span_nesting;
    Alcotest.test_case "selected_engine: last fact wins" `Quick
      test_selected_engine_last_wins;
    Alcotest.test_case "tracing never changes the verdict" `Quick
      test_tracing_is_inert;
    Alcotest.test_case "service: cached answer explains itself" `Quick
      test_service_cached_trace;
    Alcotest.test_case "service: plain entry upgrades on retrace" `Quick
      test_service_retrace;
    Alcotest.test_case "serve: explain JSON round trip" `Quick
      test_serve_explain_roundtrip;
    Alcotest.test_case "explain: disjunctive KB profiles its dominant disjunct"
      `Quick test_disjunctive_profile;
  ]
