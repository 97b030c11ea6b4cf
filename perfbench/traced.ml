(* The traced run: the same op sequence replayed in process through
   each layer's public functions, in the order [Service.query] composes
   them — decode, parse, digest, LRU, store, compile, engine, pool,
   session update, encode — with one span per call. Spans stay in
   memory until the replay ends. The replay runs twice from the same
   fresh state, spans off and on; the difference is the tracing
   overhead. *)

open Rw_logic
open Randworlds
module J = Rw_service.Json
module P = Rw_service.Protocol
module Lru = Rw_service.Lru
module Store = Rw_store.Store
module C = Rw_compile.Compiled_kb

type span = {
  id : int;
  parent : int;  (** 0 for a request's root span *)
  name : string;
  req : int;
  t0 : float;
  t1 : float;
}

type tracer = {
  on : bool;
  m : Mutex.t;
  mutable spans : span list;
  next : int Atomic.t;
}

(* The enclosing span and request of the running code, per domain:
   pool workers inherit them explicitly through [within]. *)
let current = Domain.DLS.new_key (fun () -> ref (0, 0))

let span_named tr name_of f =
  if not tr.on then f ()
  else begin
    let cur = Domain.DLS.get current in
    let parent, req = !cur in
    let id = Atomic.fetch_and_add tr.next 1 in
    cur := (id, req);
    let t0 = Clock.now () in
    let finish name =
      let t1 = Clock.now () in
      cur := (parent, req);
      Mutex.protect tr.m (fun () ->
          tr.spans <- { id; parent; name; req; t0; t1 } :: tr.spans)
    in
    match f () with
    | v ->
      finish (name_of v);
      v
    | exception e ->
      finish "error";
      raise e
  end

let span tr name f = span_named tr (fun _ -> name) f

let within tr ~parent ~req f =
  if not tr.on then f ()
  else begin
    let cur = Domain.DLS.get current in
    let saved = !cur in
    cur := (parent, req);
    Fun.protect ~finally:(fun () -> cur := saved) f
  end

let current_span () = fst !(Domain.DLS.get current)

(* ------------------------------------------------------------------ *)
(* The replayed service state                                         *)
(* ------------------------------------------------------------------ *)

type entry = { answer : Answer.t; trace : Rw_trace.Trace.event list option }

type state = {
  tr : tracer;
  lru : entry Lru.Sync.t;
  compiled : C.t Lru.Sync.t;
  compile_m : Mutex.t;
  store : Store.t option;
  session : Rw_service.Service.t;
      (** holds the KB for [Service.update]; both of its caches off *)
  mutable kb : Syntax.formula;
  mutable digest : string;
}

let fresh_state ~tracing ~cache ~store_path =
  let tr = { on = tracing; m = Mutex.create (); spans = []; next = Atomic.make 1 } in
  let store =
    Option.map
      (fun path ->
        span tr "store.open" (fun () ->
            match Store.open_ path with
            | Ok (s, _) -> s
            | Error e -> Served.fail "traced replay: cannot open store %s: %s" path e))
      store_path
  in
  let config =
    {
      Rw_service.Service.default_config with
      cache_capacity = 0;
      compiled_capacity = 0;
    }
  in
  {
    tr;
    lru = Lru.Sync.create ~capacity:cache;
    compiled = Lru.Sync.create ~capacity:Rw_service.Service.default_config.compiled_capacity;
    compile_m = Mutex.create ();
    store;
    session = Rw_service.Service.create ~config ();
    kb = Syntax.True;
    digest = "";
  }

let compiled_for st =
  match Lru.Sync.find st.compiled st.digest with
  | Some c -> c
  | None ->
    Mutex.protect st.compile_m (fun () ->
        match Lru.Sync.find st.compiled st.digest with
        | Some c -> c
        | None ->
          let c = span st.tr "compile" (fun () -> C.compile st.kb) in
          Lru.Sync.add st.compiled st.digest c;
          c)

let answer st ~explain src =
  let q =
    span st.tr "logic.parse" (fun () ->
        match Parser.formula src with
        | Ok q -> q
        | Error e -> Served.fail "traced replay: unparsable query %s: %s" src e)
  in
  let key = span st.tr "logic.digest" (fun () -> st.digest ^ "|" ^ Canonical.digest q) in
  let usable (e : entry) = (not explain) || e.trace <> None in
  match span st.tr "lru.find" (fun () -> Lru.Sync.find st.lru key) with
  | Some e when usable e -> (e, true)
  | _ -> (
    let stored =
      match st.store with
      | None -> None
      | Some s ->
        span st.tr "store.find" (fun () ->
            match Store.find s key with
            | None -> None
            | Some payload -> (
              match Rw_service.Codec.decode_payload payload with
              | Ok (answer, trace) -> Some { answer; trace }
              | Error _ -> None))
    in
    match stored with
    | Some e when usable e ->
      span st.tr "lru.add" (fun () -> Lru.Sync.add st.lru key e);
      (e, true)
    | _ ->
      let compiled = compiled_for st in
      let trace = if explain then Some (Rw_trace.Trace.create ()) else None in
      let a =
        span_named st.tr
          (fun (a : Answer.t) -> "engine." ^ a.Answer.engine)
          (fun () -> Engine.degree_of_belief ~compiled ?trace ~kb:st.kb q)
      in
      let e = { answer = a; trace = Option.map Rw_trace.Trace.events trace } in
      span st.tr "lru.add" (fun () -> Lru.Sync.add st.lru key e);
      Option.iter
        (fun s ->
          span st.tr "store.append" (fun () ->
              Store.add s key
                (Rw_service.Codec.encode_payload ~answer:e.answer ~trace:e.trace)))
        st.store;
      (e, false))

let encode st ~explain ((e : entry), cached) ms =
  let name = if explain then "protocol.encode_explain" else "protocol.encode" in
  span st.tr name (fun () ->
      let fields = [ ("answer", P.json_of_answer ~cached ~elapsed_ms:ms e.answer) ] in
      let fields =
        match (explain, e.trace) with
        | true, Some evs -> fields @ [ ("trace", P.json_of_trace evs) ]
        | _ -> fields
      in
      J.to_string (P.ok_reply fields))

let decode st line =
  span st.tr "protocol.decode" (fun () ->
      match J.of_string line with
      | Error e -> Served.fail "traced replay: bad request %s: %s" line e
      | Ok j -> (
        match P.request_of_json j with
        | Ok r -> r
        | Error e -> Served.fail "traced replay: bad request %s: %s" line e))

let install st kb =
  let before = st.digest in
  st.kb <- kb;
  st.digest <- Canonical.digest kb;
  if before <> "" && before <> st.digest then begin
    let prefix = before ^ "|" in
    span st.tr "lru.invalidate" (fun () ->
        ignore (Lru.Sync.remove_if st.lru (fun k _ -> String.starts_with ~prefix k)))
  end

let load_kb st text =
  let kb =
    span st.tr "logic.kb_load" (fun () ->
        match Kb_file.of_string text with
        | Error _ -> Served.fail "traced replay: KB does not parse"
        | Ok kb ->
          if Validate.errors kb <> [] then Served.fail "traced replay: KB invalid";
          ignore (Canonical.digest kb);
          kb)
  in
  let old = st.digest in
  install st kb;
  if old <> st.digest then ignore (Lru.Sync.remove_if st.compiled (fun k _ -> k = old));
  Rw_service.Service.load_kb st.session kb

let update st action src =
  let old = st.digest in
  (match
     span st.tr "service.update" (fun () ->
         Rw_service.Service.update_src st.session action src)
   with
  | Ok _ -> ()
  | Error e -> Served.fail "traced replay: update %s failed: %s" src e);
  let kb = Option.get (Rw_service.Service.kb st.session) in
  if Canonical.digest kb <> old then begin
    let art = Lru.Sync.find st.compiled old in
    install st kb;
    match art with
    | Some c ->
      let c', _carried = span st.tr "compile.update" (fun () -> C.update c kb) in
      ignore (Lru.Sync.remove_if st.compiled (fun k _ -> k = old));
      Lru.Sync.add st.compiled st.digest c'
    | None -> ()
  end

(* One op: decode its NDJSON line, run the ladder, encode the reply.
   Answers are recorded in [chk] at KB [state], like served replies. *)
let replay_op st chk ~state ~req (op : Workload.op) =
  let line = Workload.to_line ~id:req op in
  within st.tr ~parent:0 ~req (fun () ->
      span st.tr "request" (fun () ->
          let record q (e : entry) =
            ignore (Check.record chk ~state q (Check.key_of_answer e.answer))
          in
          match (decode st line, op) with
          | P.Query { src; explain; _ }, _ ->
            let t0 = Clock.now () in
            let r = answer st ~explain src in
            record src (fst r);
            ignore (encode st ~explain r (Clock.ms_since t0))
          | P.Batch { srcs; _ }, _ ->
            let one ~parent src =
              within st.tr ~parent ~req (fun () ->
                  let t0 = Clock.now () in
                  let r = answer st ~explain:false src in
                  (r, Clock.ms_since t0))
            in
            let results =
              if List.length srcs < Rw_service.Service.default_config.parallel_threshold
              then List.map (one ~parent:(current_span ())) srcs
              else begin
                let pool =
                  span st.tr "pool.create" (fun () ->
                      Rw_pool.Pool.create ~jobs:Workload.batch_jobs)
                in
                let rs =
                  span st.tr "pool.map" (fun () ->
                      let parent = current_span () in
                      Rw_pool.Pool.map pool (one ~parent) srcs)
                in
                span st.tr "pool.shutdown" (fun () -> Rw_pool.Pool.shutdown pool);
                rs
              end
            in
            List.iter2 (fun src ((e, _), _) -> record src e) srcs results;
            List.iter (fun (r, ms) -> ignore (encode st ~explain:false r ms)) results
          | P.Load_kb { text = Some text; _ }, _ -> load_kb st text
          | P.Session_update { action; src; _ }, _ -> update st action src
          | P.Persist { compact; _ }, _ ->
            Option.iter
              (fun s ->
                if compact then span st.tr "store.compact" (fun () -> Store.compact s)
                else span st.tr "store.sync" (fun () -> Store.sync s))
              st.store
          | _ -> Served.fail "traced replay: unexpected op %s" line))

type run = {
  spans : span list;
  wall_s : float;  (** the timed ops only *)
  gc_minor : float;
  gc_major : float;
  gc_promoted : float;
}

(* Replay [untimed] then [timed] ops from a fresh state. *)
let replay ~tracing ~cache ~store_path chk ~untimed ~timed =
  let st = fresh_state ~tracing ~cache ~store_path in
  let state = ref 0 and req = ref 0 in
  let go op =
    (match op with Workload.Load_kb _ | Workload.Update _ -> incr state | _ -> ());
    incr req;
    replay_op st chk ~state:!state ~req:!req op
  in
  List.iter go untimed;
  (* Keep the store's open span; the rest of the untimed part is
     set-up. *)
  st.tr.spans <- List.filter (fun s -> s.name = "store.open") st.tr.spans;
  let g0 = Gc.quick_stat () in
  let t0 = Clock.now () in
  List.iter go timed;
  let wall_s = Clock.now () -. t0 in
  let g1 = Gc.quick_stat () in
  Option.iter Store.close st.store;
  let n = float_of_int (max 1 (List.length timed)) in
  {
    spans = st.tr.spans;
    wall_s;
    gc_minor = float_of_int (g1.minor_collections - g0.minor_collections) /. n;
    gc_major = float_of_int (g1.major_collections - g0.major_collections) /. n;
    gc_promoted = (g1.promoted_words -. g0.promoted_words) /. n;
  }

(* ------------------------------------------------------------------ *)
(* Span arithmetic                                                    *)
(* ------------------------------------------------------------------ *)

(* Length of the union of intervals (children of one span may overlap
   when they ran on two pool domains). *)
let union_length ivs =
  let ivs = List.sort compare ivs in
  let rec go acc cur = function
    | [] -> ( match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
    | (a, b) :: rest -> (
      match cur with
      | None -> go acc (Some (a, b)) rest
      | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
      | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0.0 None ivs

(* Self time of every span: its duration minus the part of it its
   children cover. *)
let self_times spans =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add kids s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s ->
      let covered =
        union_length
          (List.map
             (fun (a, b) -> (Float.max a s.t0, Float.min b s.t1))
             (Hashtbl.find_all kids s.id))
      in
      (s, Float.max 0.0 (s.t1 -. s.t0 -. covered)))
    spans
