(* The whole-system simulator — see the interface for the design. *)

open Rw_logic
open Randworlds
module Service = Rw_service.Service
module Store = Rw_store.Store
module Hook = Rw_prelude.Hook

type report = {
  seed : int option;
  steps : int;
  ops : Op.t list;
  events : string list;
  digest : string;
  violations : (int * Invariant.violation) list;
  fired : string list;
}

(* The fuzzer's throughput-tuned options, with enumeration capped at
   domain size 2: a binary predicate in the vocabulary at size 3 means
   2^21 worlds per tolerance step, and one such generated query can
   cost more than the rest of the run combined. Size 2 still walks the
   enum engine end to end. *)
let sim_options =
  { Rw_fuzz.Oracle.fuzz_options with Engine.enum_sizes = Some [ 2 ] }

(* The pinned service configuration. Two deliberate choices:
   [cache_capacity] is large enough that a run never hits capacity
   eviction — a parallel batch inserts entries in completion order, so
   capacity-eviction victims (and therefore later hit/miss origins)
   would be the one racy input to the event log. Eviction is exercised
   by the explicit [evict] op instead. [parallel_threshold] is lowered
   so generated batches actually fan out on the run's pool. *)
let sim_config =
  {
    Service.cache_capacity = 4096;
    compiled_capacity = 1;
    parallel_threshold = 4;
    budget = None;
    engine_options = sim_options;
  }

let zero_expected =
  {
    Invariant.queries = 0;
    timeouts = 0;
    kb_loads = 0;
    updates = 0;
    log_entries = 0;
  }

type state = {
  store_path : string;
  pool : Rw_pool.Pool.t;  (** borrowed by every service of the run *)
  mutable store : Store.t;
  mutable svc : Service.t;
  mutable shadow : Syntax.formula list;
  (* Whether a KB is resident at all — distinct from [shadow = []]:
     retracting the last conjunct leaves the empty conjunction (True)
     loaded, and a restart must restore it. *)
  mutable loaded : bool;
  mutable exp : Invariant.expected;
  mutable ring : (Syntax.formula * Answer.t) list;  (* newest first, ≤ 12 *)
  mutable torn_pending : bool;
  mutable fired : string list;  (* distinct points that fired, in order *)
}

let ring_cap = 12

let ring_push st q a =
  st.ring <- (q, a) :: (if List.length st.ring >= ring_cap then
                          List.filteri (fun i _ -> i < ring_cap - 1) st.ring
                        else st.ring)

let short d = if String.length d > 12 then String.sub d 0 12 else d
let origin_str = function
  | Service.Computed -> "computed"
  | Service.Cached -> "cached"
  | Service.Stored -> "stored"
  | Service.Degraded -> "degraded"

let verdict (a : Answer.t) =
  Fmt.str "%a" Answer.pp_result a.Answer.result

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error _ -> ""

exception Fatal of Invariant.violation

(* ------------------------------------------------------------------ *)
(* One op                                                             *)
(* ------------------------------------------------------------------ *)

(* Executes the op against the live system, updates the shadow and the
   expected counters, runs the op-specific invariants, and returns the
   event-line body. Step-generic invariants run in the driver. *)
let exec st viol op =
  let agree q a = viol (Invariant.check_agreement ~options:sim_options ~shadow:st.shadow q a) in
  (* The service counts every query it accepts against a loaded KB —
     including one that fails because its compile failed (the
     [compile.kb] fault); only "no knowledge base loaded" is refused
     uncounted. *)
  let failed_query () =
    if st.loaded then
      st.exp <- { st.exp with Invariant.queries = st.exp.Invariant.queries + 1 }
  in
  match op with
  | Op.Load_kb fs ->
    let kb = Syntax.conj fs in
    Service.load_kb st.svc kb;
    st.shadow <- Rw_unary.Analysis.split_conjuncts kb;
    st.loaded <- true;
    (* Ring answers are only replayable against the KB they were
       answered under; a swap invalidates them. *)
    st.ring <- [];
    st.exp <-
      {
        st.exp with
        Invariant.kb_loads = st.exp.Invariant.kb_loads + 1;
        log_entries = st.exp.Invariant.log_entries + 1;
      };
    Printf.sprintf "load_kb conjs=%d digest=%s" (List.length fs)
      (short (Canonical.digest kb))
  | Op.Query q -> (
    match Service.query st.svc q with
    | Error msg ->
      failed_query ();
      Printf.sprintf "query err=%S" msg
    | Ok (a, origin) ->
      st.exp <- { st.exp with Invariant.queries = st.exp.Invariant.queries + 1 };
      agree q a;
      if origin <> Service.Degraded then ring_push st q a;
      Printf.sprintf "query %s -> %s engine=%s origin=%s"
        (short (Canonical.digest q))
        (verdict a) a.Answer.engine (origin_str origin))
  | Op.Explain q -> (
    match Service.query_explained st.svc q with
    | Error msg ->
      failed_query ();
      Printf.sprintf "explain err=%S" msg
    | Ok e ->
      st.exp <- { st.exp with Invariant.queries = st.exp.Invariant.queries + 1 };
      agree q e.Service.answer;
      viol (Invariant.check_trace e.Service.answer e.Service.trace);
      if e.Service.origin <> Service.Degraded then
        ring_push st q e.Service.answer;
      Printf.sprintf "explain %s -> %s engine=%s origin=%s trace=%d"
        (short (Canonical.digest q))
        (verdict e.Service.answer) e.Service.answer.Answer.engine
        (origin_str e.Service.origin)
        (List.length e.Service.trace))
  | Op.Batch qs -> (
    match Service.batch st.svc qs with
    | results ->
      let answered = ref 0 in
      let outs =
        List.map2
          (fun q r ->
            match r with
            | Error msg ->
              failed_query ();
              Printf.sprintf "err=%S" msg
            | Ok (a, _origin) ->
              incr answered;
              agree q a;
              verdict a)
          qs results
      in
      st.exp <-
        { st.exp with Invariant.queries = st.exp.Invariant.queries + !answered };
      Printf.sprintf "batch n=%d [%s]" (List.length qs)
        (String.concat " | " outs)
    | exception Hook.Injected p ->
      Printf.sprintf "batch n=%d injected=%s" (List.length qs) p)
  | Op.Assert_ f | Op.Retract f -> (
    let action, name =
      match op with
      | Op.Assert_ _ -> (Service.Assert, "assert")
      | _ -> (Service.Retract, "retract")
    in
    match Service.update st.svc action f with
    | Error msg -> Printf.sprintf "%s err=%S" name msg
    | exception Hook.Injected p -> Printf.sprintf "%s injected=%s" name p
    | Ok o ->
      let before_digest = Canonical.digest (Syntax.conj st.shadow) in
      let delta = Rw_unary.Analysis.split_conjuncts f in
      (st.shadow <-
         (match action with
         | Service.Assert ->
           let have = List.map Canonical.digest st.shadow in
           st.shadow
           @ List.filter
               (fun c -> not (List.mem (Canonical.digest c) have))
               delta
         | Service.Retract ->
           let keys = List.map Canonical.digest delta in
           List.filter
             (fun c -> not (List.mem (Canonical.digest c) keys))
             st.shadow));
      st.exp <-
        {
          st.exp with
          Invariant.updates = st.exp.Invariant.updates + 1;
          log_entries = st.exp.Invariant.log_entries + 1;
        };
      let after_digest = Canonical.digest (Syntax.conj st.shadow) in
      if o.Service.changed then st.ring <- [];
      if o.Service.changed <> (before_digest <> after_digest) then
        viol
          [
            {
              Invariant.invariant = "stats";
              detail =
                Printf.sprintf "%s reported changed=%b but digest %s -> %s"
                  name o.Service.changed (short before_digest)
                  (short after_digest);
            };
          ];
      Printf.sprintf "%s %s -> changed=%b revalidated=%d evicted=%d artifact=%s"
        name
        (short (Canonical.digest f))
        o.Service.changed o.Service.revalidated o.Service.evicted
        o.Service.artifact)
  | Op.Expire q -> (
    match Service.query ~budget:0.0 st.svc q with
    | Error msg ->
      failed_query ();
      Printf.sprintf "expire err=%S" msg
    | Ok (a, origin) ->
      st.exp <- { st.exp with Invariant.queries = st.exp.Invariant.queries + 1 };
      (match origin with
      | Service.Degraded ->
        st.exp <-
          { st.exp with Invariant.timeouts = st.exp.Invariant.timeouts + 1 };
        viol (Invariant.check_degrade a)
      | Service.Cached | Service.Stored ->
        (* A cache tier answers before the budget is consulted — the
           answer must then be the true one. *)
        agree q a
      | Service.Computed ->
        viol
          [
            {
              Invariant.invariant = "degrade";
              detail = "zero-budget query ran a full computation";
            };
          ]);
      Printf.sprintf "expire %s -> %s engine=%s origin=%s"
        (short (Canonical.digest q))
        (verdict a) a.Answer.engine (origin_str origin))
  | Op.Evict ->
    let answers, artifacts = Service.evict_all st.svc in
    Printf.sprintf "evict answers=%d artifacts=%d" answers artifacts
  | Op.Persist -> (
    match Store.sync st.store with
    | () -> "persist ok"
    | exception Hook.Injected p -> Printf.sprintf "persist injected=%s" p)
  | Op.Compact ->
    let live_before = (Store.stats st.store).Store.live in
    Store.compact st.store;
    viol (Invariant.check_compaction ~live_before (Store.stats st.store));
    Printf.sprintf "compact live=%d" live_before
  | Op.Fault p ->
    Fault.arm p;
    Printf.sprintf "fault %s armed" p
  | Op.Restart ->
    Store.close st.store;
    let before = read_file st.store_path in
    let store', rep =
      match Store.open_ st.store_path with
      | Ok (s, r) -> (s, r)
      | Error msg ->
        raise
          (Fatal
             {
               Invariant.invariant = "recovery";
               detail = Printf.sprintf "store re-open failed: %s" msg;
             })
    in
    let after = read_file st.store_path in
    viol
      (Invariant.check_recovery ~before ~after
         ~truncated:rep.Store.truncated_bytes ~torn_expected:st.torn_pending);
    st.torn_pending <- false;
    st.store <- store';
    st.svc <- Service.create ~config:sim_config ~store:store' ~pool:st.pool ();
    st.exp <- zero_expected;
    if st.loaded then begin
      Service.load_kb st.svc (Syntax.conj st.shadow);
      st.exp <- { zero_expected with Invariant.kb_loads = 1; log_entries = 1 }
    end;
    (* Answer stability: everything answered before the crash must be
       reproduced bit-identically after it — from the recovered store
       or by recomputation; determinism makes them indistinguishable. *)
    List.iter
      (fun (q, old) ->
        match Service.query st.svc q with
        | Ok (a, _) ->
          st.exp <-
            { st.exp with Invariant.queries = st.exp.Invariant.queries + 1 };
          if not (Invariant.answers_agree a old) then
            viol
              [
                {
                  Invariant.invariant = "stability";
                  detail =
                    Printf.sprintf
                      "query %s answered %s (%s) before restart, %s (%s) after"
                      (short (Canonical.digest q))
                      (verdict old) old.Answer.engine (verdict a)
                      a.Answer.engine;
                };
              ]
        | Error msg ->
          viol
            [
              {
                Invariant.invariant = "stability";
                detail = Printf.sprintf "restart recheck failed: %s" msg;
              };
            ])
      (List.rev st.ring);
    Printf.sprintf "restart live=%d truncated=%b recheck=%d" rep.Store.live
      (rep.Store.truncated_bytes > 0)
      (List.length st.ring)

(* ------------------------------------------------------------------ *)
(* The driver                                                         *)
(* ------------------------------------------------------------------ *)

let simulate ~pool ~seed ~source =
  let store_path, cleanup =
    match seed with
    | `Path p -> (p, fun () -> ())
    | `Temp ->
      let p = Filename.temp_file "rw-sim" ".store" in
      (p, fun () -> try Sys.remove p with Sys_error _ -> ())
  in
  (* A leftover arming from a crashed previous harness must not leak
     into this run. *)
  Hook.disarm_all ();
  let store, _rep =
    match Store.open_ store_path with
    | Ok v -> v
    | Error msg -> failwith ("sim: cannot open scratch store: " ^ msg)
  in
  let st =
    {
      store_path;
      pool;
      store;
      svc = Service.create ~config:sim_config ~store ~pool ();
      shadow = [];
      loaded = false;
      exp = zero_expected;
      ring = [];
      torn_pending = false;
      fired = [];
    }
  in
  let events = ref [] in
  let violations = ref [] in
  let ops_run = ref [] in
  let steps = ref 0 in
  let emit line = events := line :: !events in
  let finally () =
    Hook.disarm_all ();
    (try Store.close st.store with _ -> ());
    cleanup ()
  in
  Fun.protect ~finally (fun () ->
      let stop = ref false in
      while not !stop do
        match source st !steps with
        | None -> stop := true
        | Some op ->
          let step = !steps in
          ops_run := op :: !ops_run;
          (* Wall-clock progress goes to stderr only — stdout is the
             deterministic event log. *)
          if Sys.getenv_opt "RW_SIM_PROGRESS" <> None then begin
            Printf.eprintf "# %04d %s\n" step (Op.render op);
            flush stderr
          end;
          let step_viols = ref [] in
          let viol vs =
            step_viols := !step_viols @ vs
          in
          let armed_before = Fault.armed () in
          let body =
            match exec st viol op with
            | body -> body
            | exception Fatal vl ->
              stop := true;
              viol [ vl ];
              Op.render op ^ " fatal"
            | exception exn ->
              viol
                [
                  {
                    Invariant.invariant = "crash";
                    detail =
                      Printf.sprintf "op %S raised %s" (Op.render op)
                        (Printexc.to_string exn);
                  };
                ];
              Op.render op ^ " raised"
          in
          let still = Fault.armed () in
          let fired_now =
            List.filter (fun p -> not (List.mem p still)) armed_before
          in
          List.iter
            (fun p ->
              if p = "store.append.torn" then st.torn_pending <- true;
              if not (List.mem p st.fired) then st.fired <- st.fired @ [ p ])
            fired_now;
          let swept = match op with Op.Fault _ -> [] | _ -> Fault.sweep () in
          (* Step-generic invariants. *)
          viol (Invariant.check_shadow st.svc ~shadow:st.shadow);
          viol (Invariant.check_counters st.svc st.exp);
          viol (Invariant.check_session_chain st.svc);
          let suffix =
            (if fired_now = [] then ""
             else " fired=" ^ String.concat "," fired_now)
            ^
            if swept = [] then "" else " unfired=" ^ String.concat "," swept
          in
          emit (Printf.sprintf "%04d %s%s" step body suffix);
          List.iter
            (fun vl ->
              violations := (step, vl) :: !violations;
              emit
                (Printf.sprintf "%04d violation %s" step
                   (Fmt.str "%a" Invariant.pp_violation vl)))
            !step_viols;
          incr steps
      done);
  let events = List.rev !events in
  {
    seed = None;
    steps = !steps;
    ops = List.rev !ops_run;
    events;
    digest = Stdlib.Digest.to_hex (Stdlib.Digest.string (String.concat "\n" events));
    violations = List.rev !violations;
    fired = st.fired;
  }

let run ?(max_size = 6) ?(faults = false) ?store_path ~seed ~steps () =
  let registry = Rng_registry.create seed in
  let g = Op.generator ~registry ~max_size ~faults in
  let source st i =
    if i >= steps then None else Some (Op.next g ~shadow:st.shadow)
  in
  let where = match store_path with Some p -> `Path p | None -> `Temp in
  (* One pool for the whole run, its width drawn from its own stream. *)
  let jobs = if Rw_mc.Prng.bool (Rng_registry.stream registry "pool.width") then 2 else 4 in
  Rw_pool.Pool.run ~jobs (fun pool ->
      { (simulate ~pool ~seed:where ~source) with seed = Some seed })

let replay ?store_path ops =
  let remaining = ref ops in
  let source _st _i =
    match !remaining with
    | [] -> None
    | op :: rest ->
      remaining := rest;
      Some op
  in
  let where = match store_path with Some p -> `Path p | None -> `Temp in
  Rw_pool.Pool.run ~jobs:2 (fun pool -> simulate ~pool ~seed:where ~source)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                          *)
(* ------------------------------------------------------------------ *)

let violation_classes report =
  List.sort_uniq Stdlib.compare
    (List.map (fun (_, vl) -> vl.Invariant.invariant) report.violations)

let still_fails ~target ops =
  let r = replay ops in
  List.exists
    (fun (_, vl) -> List.mem vl.Invariant.invariant target)
    r.violations

(* How long {!shrink} may replay for, in seconds. *)
let shrink_seconds = 60.0

(* Greedy to a fixpoint, bounded twice: by replay fuel like the
   fuzzer's shrinker, and by a wall-clock deadline, because a replay is
   a whole run and can take seconds, so fuel alone does not bound the
   time. The deadline is checked before each replay. *)
let shrink ops report =
  let target = violation_classes report in
  if target = [] then ops
  else begin
    let fuel = ref 200 in
    let deadline = Rw_prelude.Clock.now () +. shrink_seconds in
    let live () = !fuel > 0 && Rw_prelude.Clock.now () < deadline in
    let attempt cand = decr fuel; still_fails ~target cand in
    (* Phase 1: drop whole ops. *)
    let rec drop_pass ops =
      let changed = ref false in
      let ops = ref ops in
      let i = ref 0 in
      while !i < List.length !ops && live () do
        let cand = List.filteri (fun j _ -> j <> !i) !ops in
        if cand <> [] && attempt cand then begin
          ops := cand;
          changed := true
        end
        else incr i
      done;
      if !changed && live () then drop_pass !ops else !ops
    in
    (* Phase 2: thin multi-formula payloads one conjunct at a time. *)
    let rec thin_pass ops =
      let changed = ref false in
      let try_thin idx rebuild fs =
        let out = ref fs in
        let j = ref 0 in
        while !j < List.length !out && List.length !out > 1 && live () do
          let cand_fs = List.filteri (fun k _ -> k <> !j) !out in
          let cand =
            List.mapi (fun k o -> if k = idx then rebuild cand_fs else o) ops
          in
          if attempt cand then begin
            out := cand_fs;
            changed := true
          end
          else incr j
        done;
        rebuild !out
      in
      let ops =
        List.mapi
          (fun idx op ->
            match op with
            | Op.Load_kb fs when List.length fs > 1 ->
              try_thin idx (fun fs -> Op.Load_kb fs) fs
            | Op.Batch fs when List.length fs > 1 ->
              try_thin idx (fun fs -> Op.Batch fs) fs
            | op -> op)
          ops
      in
      if !changed && live () then thin_pass ops else ops
    in
    thin_pass (drop_pass ops)
  end

(* ------------------------------------------------------------------ *)
(* Corpus files                                                       *)
(* ------------------------------------------------------------------ *)

type case = {
  description : string;
  case_seed : int option;
  case_faults : bool;
  ops : Op.t list;
}

let save_case ~path ~description ?seed ~faults ops =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "# %s\n" description;
      (match seed with
      | Some s -> Printf.fprintf oc "seed: %d\n" s
      | None -> ());
      Printf.fprintf oc "faults: %b\n" faults;
      List.iter (fun op -> Printf.fprintf oc "op: %s\n" (Op.render op)) ops)

let strip_prefix ~prefix s =
  if String.starts_with ~prefix s then
    Some
      (String.trim
         (String.sub s (String.length prefix)
            (String.length s - String.length prefix)))
  else None

let load_case path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
    let lines = String.split_on_char '\n' contents in
    let description = ref "" in
    let case_seed = ref None in
    let case_faults = ref false in
    let ops = ref [] in
    let err = ref None in
    List.iteri
      (fun lineno raw ->
        let line = String.trim raw in
        if !err <> None || line = "" then ()
        else if String.starts_with ~prefix:"#" line then begin
          if !description = "" then
            description :=
              String.trim (String.sub line 1 (String.length line - 1))
        end
        else
          match strip_prefix ~prefix:"seed:" line with
          | Some s -> (
            match Seed.parse s with
            | Ok n -> case_seed := Some n
            | Error msg ->
              err := Some (Printf.sprintf "%s:%d: %s" path (lineno + 1) msg))
          | None -> (
            match strip_prefix ~prefix:"faults:" line with
            | Some s -> case_faults := s = "true"
            | None -> (
              match strip_prefix ~prefix:"op:" line with
              | Some s -> (
                match Op.parse s with
                | Ok op -> ops := op :: !ops
                | Error msg ->
                  err :=
                    Some (Printf.sprintf "%s:%d: %s" path (lineno + 1) msg))
              | None ->
                err :=
                  Some
                    (Printf.sprintf "%s:%d: unrecognized line %S" path
                       (lineno + 1) line))))
      lines;
    match !err with
    | Some msg -> Error msg
    | None ->
      Ok
        {
          description = !description;
          case_seed = !case_seed;
          case_faults = !case_faults;
          ops = List.rev !ops;
        })
