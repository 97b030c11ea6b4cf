(** The query service — see the interface for the design. *)

open Rw_logic
open Randworlds
module Trace = Rw_trace.Trace

type config = {
  cache_capacity : int;
  compiled_capacity : int;
  parallel_threshold : int;
  budget : float option;
  engine_options : Engine.options;
}

let default_config =
  {
    cache_capacity = 1024;
    compiled_capacity = 8;
    parallel_threshold = 8;
    budget = None;
    engine_options = Engine.default_options;
  }

type origin = Computed | Cached | Stored | Degraded

(* Latency accounting: running aggregates plus a bounded ring of the
   most recent samples for the percentile estimates — a service that
   has answered millions of requests must not retain millions of
   floats. The mutex orders recorders (batch items complete on several
   domains at once) against each other and against [stats]; the fields
   move together, so per-field atomics would still tear. *)
type latency = {
  m : Mutex.t;
  mutable count : int;
  mutable total_ms : float;
  mutable max_ms : float;
  ring : float array;
  mutable ring_len : int;
  mutable ring_pos : int;
}

let ring_size = 512

let latency_create () =
  {
    m = Mutex.create ();
    count = 0;
    total_ms = 0.0;
    max_ms = 0.0;
    ring = Array.make ring_size 0.0;
    ring_len = 0;
    ring_pos = 0;
  }

let latency_record l ms =
  Mutex.protect l.m (fun () ->
      l.count <- l.count + 1;
      l.total_ms <- l.total_ms +. ms;
      if ms > l.max_ms then l.max_ms <- ms;
      l.ring.(l.ring_pos) <- ms;
      l.ring_pos <- (l.ring_pos + 1) mod ring_size;
      if l.ring_len < ring_size then l.ring_len <- l.ring_len + 1)

type latency_summary = {
  requests : int;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  max_ms : float;
}

let latency_summary l =
  Mutex.protect l.m (fun () ->
      if l.count = 0 then
        { requests = 0; mean_ms = 0.0; p50_ms = 0.0; p95_ms = 0.0; max_ms = 0.0 }
      else begin
        let sample = Array.sub l.ring 0 l.ring_len in
        Array.sort Stdlib.compare sample;
        let pct p =
          let idx =
            int_of_float (Float.of_int (l.ring_len - 1) *. p /. 100.0 +. 0.5)
          in
          sample.(max 0 (min (l.ring_len - 1) idx))
        in
        {
          requests = l.count;
          mean_ms = l.total_ms /. float_of_int l.count;
          p50_ms = pct 50.0;
          p95_ms = pct 95.0;
          max_ms = l.max_ms;
        }
      end)

(* The service is shared across domains, so every piece of state a
   query touches is synchronised: the cache is the mutex-guarded LRU,
   the plain counters are atomics, latency has its own lock, and the
   resident KB is one immutable snapshot behind an atomic. Each query
   reads the snapshot once and answers for that one state; writers
   ([load_kb], [update]) serialise on [session_m] and publish a whole
   new snapshot only after their cache side-effects are done. *)
(* Cache entries carry the trace of the computation that produced them
   (when one was recorded), so a cached answer can explain itself
   without re-deriving anything. Entries computed with tracing off
   store [None]; an explained hit on such an entry re-derives once and
   upgrades it.

   For the session layer each entry also remembers the query it
   answers and that query's vocabulary — the inputs of the delta-aware
   invalidation walk — plus a fixed-size summary of the KB updates it
   survived by revalidation, so an entry is the same size however long
   the session. Provenance lives in memory only; the durable store
   persists answer and trace. *)
type revalidations = {
  count : int;
  first_seq : int;
  last_seq : int;
  kb_from : string;  (** the KB digest before the first revalidation *)
  kb_to : string;  (** the KB digest after the last *)
}

type entry = {
  answer : Answer.t;
  trace : Trace.event list option;
  query : Syntax.formula;
  qvocab : Vocab.t;
  revalidations : revalidations option;
}

(* One line of the session log: a KB mutation (or full swap) with the
   cache bookkeeping it caused. [action] is ["assert"], ["retract"] or
   ["load"]; [artifact] says what happened to the compiled artifact —
   ["carried"] (memo tables survived the delta), ["recompiled"],
   ["dropped"] (a load swapped the KB) or ["unchanged"] (canonical
   no-op). *)
type session_event = {
  seq : int;
  action : string;
  src : string;
  digest_before : string;
  digest_after : string;
  changed : bool;
  revalidated : int;
  evicted : int;
  artifact : string;
  elapsed_ms : float;
}

type update_action = Assert | Retract

(* One resident KB state: the formula, its canonical digest (the
   prefix of every cache key answered for it) and its conjunct list,
   the granularity at which sessions assert and retract. *)
type snapshot = {
  kb : Syntax.formula;
  digest : string;
  conjuncts : Syntax.formula list;
}

type t = {
  config : config;
  cache : entry Lru.Sync.t;
  compiled : Rw_compile.Compiled_kb.t Lru.Sync.t;
      (** compiled-KB artifacts keyed by canonical KB digest; the LRU's
          hit/miss/eviction counters are the compile-cache counters *)
  compile_m : Mutex.t;
      (** serialises compilation so a parallel batch's first wave
          compiles each KB exactly once; also guards
          [compile_ms_total] *)
  mutable compile_ms_total : float;
  compiles : int Atomic.t;
  store : Rw_store.Store.t option;
      (** the durable tier under the LRU; appends serialized inside
          the store, probes near-lock-free — safe from pool workers *)
  pool : Rw_pool.Pool.t option;  (** borrowed, like [store] *)
  opts_digest : string;
  resident : snapshot option Atomic.t;
  latency : latency;
  queries : int Atomic.t;
  timeouts : int Atomic.t;
  kb_loads : int Atomic.t;
  (* Session state: the mutation log and the invalidation counters,
     guarded by [session_m], which also serialises the writers of
     [resident]. Queries never take it: each answers for the one
     snapshot it read, whatever writers publish meanwhile. *)
  session_m : Mutex.t;
  mutable session_log_rev : session_event list;
  mutable session_log_len : int;  (** [List.length session_log_rev] *)
  mutable seq : int;
  mutable updates : int;
  mutable asserts : int;
  mutable retracts : int;
  mutable revalidated_total : int;
  mutable update_evicted_total : int;
  mutable swap_reclaimed_total : int;
  mutable artifact_carries : int;
}

(* ------------------------------------------------------------------ *)
(* Option fingerprinting                                              *)
(* ------------------------------------------------------------------ *)

(* Two services answer from interchangeable cache entries only when
   every knob that can change an engine verdict agrees: the tolerance
   schedule, the domain-size grids, and the Monte-Carlo parameters.
   Render them all deterministically and hash. The pool width is
   deliberately not an option: the Monte-Carlo chunk seeding makes
   answers width-invariant, so services borrowing pools of different
   widths answer from interchangeable cache entries. *)
let options_fingerprint (o : Engine.options) =
  let ints = function
    | None -> "-"
    | Some xs -> String.concat "," (List.map string_of_int xs)
  in
  let s =
    Printf.sprintf "tols=%s;unary=%s;enum=%s;use_enum=%b;seed=%d;samples=%s;ciw=%s;mcns=%s;xchk=%b"
      (match o.Engine.tols with
      | None -> "-"
      | Some ts -> String.concat ";" (List.map Tolerance.fingerprint ts))
      (ints o.Engine.unary_sizes) (ints o.Engine.enum_sizes) o.Engine.use_enum
      o.Engine.mc_seed
      (match o.Engine.mc_samples with None -> "-" | Some n -> string_of_int n)
      (match o.Engine.mc_ci_width with None -> "-" | Some w -> Printf.sprintf "%h" w)
      (ints o.Engine.mc_sizes) o.Engine.mc_cross_check
  in
  Digest.to_hex (Digest.string s)

let create ?(config = default_config) ?store ?pool () =
  {
    config;
    cache = Lru.Sync.create ~capacity:config.cache_capacity;
    compiled = Lru.Sync.create ~capacity:config.compiled_capacity;
    compile_m = Mutex.create ();
    compile_ms_total = 0.0;
    compiles = Atomic.make 0;
    store;
    pool;
    opts_digest = options_fingerprint config.engine_options;
    resident = Atomic.make None;
    latency = latency_create ();
    queries = Atomic.make 0;
    timeouts = Atomic.make 0;
    kb_loads = Atomic.make 0;
    session_m = Mutex.create ();
    session_log_rev = [];
    session_log_len = 0;
    seq = 0;
    updates = 0;
    asserts = 0;
    retracts = 0;
    revalidated_total = 0;
    update_evicted_total = 0;
    swap_reclaimed_total = 0;
    artifact_carries = 0;
  }

let config t = t.config
let store t = t.store
let pool t = t.pool

(* ------------------------------------------------------------------ *)
(* KB lifecycle                                                       *)
(* ------------------------------------------------------------------ *)

let log_event t ev =
  t.session_log_rev <- ev :: t.session_log_rev;
  t.session_log_len <- t.session_log_len + 1

(* Swapping in a whole new KB retires every cache entry of the old one:
   without this, a long-lived serve process that cycles KBs fills the
   answer LRU and the compiled-artifact cache with unreachable
   old-digest entries that squat on capacity until recency pressure
   happens to evict them. Reloading the same KB (digest unchanged)
   keeps everything — the entries are still valid. A query still
   answering for the old snapshot may fill an old-digest entry after
   the reclaim: a correct answer for that state, evicted in time. *)
let load_kb t kb =
  Mutex.protect t.session_m @@ fun () ->
  let t0 = Rw_prelude.Clock.now () in
  let before =
    match Atomic.get t.resident with Some s -> s.digest | None -> ""
  in
  let digest = Canonical.digest kb in
  let swapped = before <> "" && before <> digest in
  let reclaimed =
    if swapped then begin
      let prefix = before ^ "|" in
      let n =
        Lru.Sync.remove_if t.cache (fun key _ ->
            String.starts_with ~prefix key)
      in
      ignore (Lru.Sync.remove_if t.compiled (fun key _ -> key = before));
      n
    end
    else 0
  in
  t.swap_reclaimed_total <- t.swap_reclaimed_total + reclaimed;
  (* The conjunct list is the unary analyser's split, so the session's
     reconstructed [Syntax.conj conjuncts] round-trips structurally. *)
  Atomic.set t.resident
    (Some { kb; digest; conjuncts = Rw_unary.Analysis.split_conjuncts kb });
  Atomic.incr t.kb_loads;
  t.seq <- t.seq + 1;
  log_event t
    {
      seq = t.seq;
      action = "load";
      src = "";
      digest_before = before;
      digest_after = digest;
      changed = before <> digest;
      revalidated = 0;
      evicted = reclaimed;
      artifact = (if swapped then "dropped" else "unchanged");
      elapsed_ms = (Rw_prelude.Clock.now () -. t0) *. 1000.0;
    }

let load_kb_string t src =
  match Kb_file.of_string src with
  | Error errs ->
    Error
      (String.concat "\n" (List.map (Fmt.str "%a" Kb_file.pp_parse_error) errs))
  | Ok kb -> (
    match Validate.errors kb with
    | [] ->
      load_kb t kb;
      Ok ()
    | errs ->
      Error (String.concat "\n" (List.map (Fmt.str "%a" Validate.pp_issue) errs)))

let load_kb_file t path =
  match In_channel.with_open_text path In_channel.input_all with
  | src -> load_kb_string t src
  | exception Sys_error msg -> Error msg

let kb t = Option.map (fun s -> s.kb) (Atomic.get t.resident)

(* ------------------------------------------------------------------ *)
(* Queries                                                            *)
(* ------------------------------------------------------------------ *)

let cache_key t snap q = snap.digest ^ "|" ^ Canonical.digest q ^ "|" ^ t.opts_digest

(* The durable tier. A probe can never serve damage: records are
   CRC-verified before they are indexed at all, and a payload that
   fails to decode (e.g. written by a future payload version) is
   treated as a miss, not an error. *)
let mk_entry q answer trace =
  { answer; trace; query = q; qvocab = Vocab.of_formula q; revalidations = None }

let store_probe t key q =
  match t.store with
  | None -> None
  | Some store -> (
    match Rw_store.Store.find store key with
    | None -> None
    | Some payload -> (
      match Codec.decode_payload payload with
      | Ok (answer, trace) -> Some (mk_entry q answer trace)
      | Error _ -> None))

(* A failed write-through ([Hook.Injected] from the store's append
   points under fault injection) loses durability for this one answer,
   nothing else: the caller already holds the answer and the LRU entry.
   Swallowing the failure here is exactly the contract the simulator
   verifies — the record is simply recomputed after a restart. *)
let store_put t key (e : entry) =
  match t.store with
  | None -> ()
  | Some store -> (
    try
      Rw_store.Store.add store key
        (Codec.encode_payload ~answer:e.answer ~trace:e.trace)
    with Rw_prelude.Hook.Injected _ -> ())

let degraded_answer compiled ~budget q =
  let a = Rules_engine.infer compiled q in
  Answer.add_notes a
    [
      Printf.sprintf
        "request budget %gs exhausted: degraded to the rules-engine sound answer"
        budget;
    ]

(* The compiled-artifact tier: one {!Rw_compile.Compiled_kb.t} per
   resident KB digest, shared by every query against that KB. The LRU
   fast path is lock-free of the compile mutex; a miss takes
   [compile_m] and re-probes, so a parallel batch's first wave
   compiles exactly once (the losers of the race block on the mutex
   and find the winner's artifact). Digests identify KBs only up to
   canonical renaming, so a cache hit is verified structurally
   ({!Rw_compile.Compiled_kb.matches}) before reuse — a mismatch
   recompiles for the actual KB and replaces the entry. With
   [compiled_capacity = 0] nothing stays resident and every call
   compiles. The compile is the syntactic pass only, so it runs
   outside any request budget. [compile.kb] is the fault point of a
   failed compile: [Hook.Injected] reaches the caller. *)
let compiled_for t { kb; digest; _ } =
  let module C = Rw_compile.Compiled_kb in
  let fresh () =
    Rw_prelude.Hook.fire "compile.kb";
    let c = C.compile kb in
    Lru.Sync.add t.compiled digest c;
    Atomic.incr t.compiles;
    t.compile_ms_total <- t.compile_ms_total +. C.compile_ms c;
    c
  in
  match Lru.Sync.find t.compiled digest with
  | Some c when C.matches c kb -> c
  | Some _ | None ->
    Mutex.protect t.compile_m (fun () ->
        match Lru.Sync.find t.compiled digest with
        | Some c when C.matches c kb -> c
        | Some _ | None -> fresh ())

let artifact t =
  match Atomic.get t.resident with
  | None -> None
  | Some { kb; digest; _ } -> (
    match Lru.Sync.find t.compiled digest with
    | Some c when Rw_compile.Compiled_kb.matches c kb -> Some c
    | _ -> None)

(* Drop every memory-tier entry. Correctness-neutral by construction:
   the LRU and the artifact cache are pure memoisation, so the next
   query recomputes (or re-probes the durable store) and must produce
   the identical answer — the property the simulator's [evict] op
   checks. *)
let evict_all t =
  let answers = Lru.Sync.remove_if t.cache (fun _ _ -> true) in
  let artifacts = Lru.Sync.remove_if t.compiled (fun _ _ -> true) in
  (answers, artifacts)

(* ------------------------------------------------------------------ *)
(* Session updates                                                    *)
(* ------------------------------------------------------------------ *)

(* Which cached answers may survive a KB delta? Exactly those the
   dispatch pipeline would reproduce bit-identically on the updated KB
   without running a numeric engine: definitive rules-engine answers.
   Dispatch short-circuits on a rules Point / No_limit / Inconsistent
   before any numeric engine runs, so if re-running the (cheap,
   deterministic, purely syntactic) rules engine against the updated
   KB returns a structurally identical answer, a cold re-dispatch
   necessarily serves that same answer — revalidation is sound by
   construction, with no appeal to vocabulary arguments about the
   numeric engines. Everything else (maxent/unary/enum/mc answers,
   rules intervals that dispatch may refine) is evicted and recomputed
   on demand. The vocabulary-disjointness test is the cheap pre-filter
   in front of the recheck: an update that touches a symbol of the
   query's vocabulary is assumed to affect it and evicts outright. *)
let rules_definitive (a : Answer.t) =
  String.equal a.Answer.engine "rules"
  &&
  match a.Answer.result with
  | Answer.Point _ | Answer.No_limit _ | Answer.Inconsistent -> true
  | Answer.Within _ | Answer.Not_applicable _ -> false

let short_digest d = if String.length d > 12 then String.sub d 0 12 else d

(* One more survived update, in O(1): the summary keeps the first
   revalidation's origin and the latest one's destination. *)
let note_revalidation ~seq ~before ~after = function
  | None ->
    { count = 1; first_seq = seq; last_seq = seq; kb_from = before; kb_to = after }
  | Some r -> { r with count = r.count + 1; last_seq = seq; kb_to = after }

let revalidated_fact r =
  Trace.Fact
    {
      tag = "revalidated";
      fields =
        [
          ("count", Trace.I r.count);
          ("first_seq", Trace.I r.first_seq);
          ("last_seq", Trace.I r.last_seq);
          ("kb_from", Trace.S (short_digest r.kb_from));
          ("kb_to", Trace.S (short_digest r.kb_to));
        ];
    }

(* Apply one assert/retract to the live KB. Deltas are matched against
   the KB's conjunct list by canonical digest, so asserting an
   already-present statement (or retracting an absent one) is a
   recognised no-op; so is a delta that leaves the KB digest where it
   was, which publishes only its new conjunct list. Either way every
   cache entry stays in place. A real change recompiles-or-carries the
   compiled artifact ({!Rw_compile.Compiled_kb.update}) and walks the
   old digest's cache entries: disjoint-vocabulary definitive rules
   answers that recheck identically are re-keyed to the new digest
   (their revalidation summary counts the update, and they gain a
   durable-store record under the new key); everything else is evicted.
   Only then is the new snapshot published, so a query never reads a
   digest whose artifact and re-keyed entries are not yet in place.
   Returns the session event it logs. *)
let update ?src t action f =
  Mutex.protect t.session_m @@ fun () ->
  match Atomic.get t.resident with
  | None -> Error "no knowledge base loaded"
  | Some snap -> (
    let t0 = Rw_prelude.Clock.now () in
    let src = match src with Some s -> s | None -> Pretty.to_string f in
    let before = snap.digest in
    let action_s = match action with Assert -> "assert" | Retract -> "retract" in
    let delta_conjs = Rw_unary.Analysis.split_conjuncts f in
    let among fs =
      let ds = List.map Canonical.digest fs in
      fun c -> List.mem (Canonical.digest c) ds
    in
    let conjuncts', delta =
      match action with
      | Assert ->
        let fresh = List.filter (Fun.negate (among snap.conjuncts)) delta_conjs in
        (snap.conjuncts @ fresh, fresh)
      | Retract ->
        let removed, kept = List.partition (among delta_conjs) snap.conjuncts in
        (kept, removed)
    in
    let record ~digest ~changed ~revalidated ~evicted ~artifact =
      t.updates <- t.updates + 1;
      (match action with
      | Assert -> t.asserts <- t.asserts + 1
      | Retract -> t.retracts <- t.retracts + 1);
      t.revalidated_total <- t.revalidated_total + revalidated;
      t.update_evicted_total <- t.update_evicted_total + evicted;
      t.seq <- t.seq + 1;
      let ev =
        {
          seq = t.seq;
          action = action_s;
          src;
          digest_before = before;
          digest_after = digest;
          changed;
          revalidated;
          evicted;
          artifact;
          elapsed_ms = (Rw_prelude.Clock.now () -. t0) *. 1000.0;
        }
      in
      log_event t ev;
      Ok ev
    in
    let unchanged () =
      Atomic.set t.resident (Some { snap with conjuncts = conjuncts' });
      record ~digest:before ~changed:false ~revalidated:0 ~evicted:0
        ~artifact:"unchanged"
    in
    let kb_new = Syntax.conj conjuncts' in
    let digest_new =
      if delta = [] then Ok before
      else
        match Validate.errors kb_new with
        | [] -> Ok (Canonical.digest kb_new)
        | errs ->
          (* The delta is structurally incompatible with the resident
             KB (e.g. reuses a symbol at another arity): refuse it
             whole, mutating nothing. *)
          Error
            (String.concat "\n" (List.map (Fmt.str "%a" Validate.pp_issue) errs))
    in
    match digest_new with
    | Error msg -> Error msg
    | Ok after when after = before -> unchanged ()
    | Ok after ->
      let module C = Rw_compile.Compiled_kb in
      (* Artifact first: delta-aware recompile, carrying the solved
         maxent cells and memo tables across deltas that leave the
         optimisation problem untouched (evidence-only updates). *)
      let artifact, carried =
        match Lru.Sync.find t.compiled before with
        | Some c when C.matches c snap.kb -> C.update c kb_new
        | _ -> (C.compile kb_new, false)
      in
      ignore (Lru.Sync.remove_if t.compiled (fun k _ -> k = before));
      Lru.Sync.add t.compiled after artifact;
      if carried then t.artifact_carries <- t.artifact_carries + 1
      else begin
        Atomic.incr t.compiles;
        Mutex.protect t.compile_m (fun () ->
            t.compile_ms_total <- t.compile_ms_total +. C.compile_ms artifact)
      end;
      (* The invalidation walk over the old digest's entries. *)
      let dvocab = Vocab.of_formulas delta in
      let prefix = before ^ "|" in
      let plen = String.length prefix in
      let next_seq = t.seq + 1 in
      let revalidate key (e : entry) =
        if not (Vocab.disjoint dvocab e.qvocab) then None
        else if not (rules_definitive e.answer) then None
        else begin
          let a = Rules_engine.infer artifact e.query in
          if a = e.answer then begin
            let key' =
              after ^ "|" ^ String.sub key plen (String.length key - plen)
            in
            let e' =
              {
                e with
                revalidations =
                  Some
                    (note_revalidation ~seq:next_seq ~before ~after
                       e.revalidations);
              }
            in
            store_put t key' e';
            Some (key', e')
          end
          else None
        end
      in
      let revalidated, evicted = Lru.Sync.remap t.cache ~prefix revalidate in
      Atomic.set t.resident
        (Some { kb = kb_new; digest = after; conjuncts = conjuncts' });
      record ~digest:after ~changed:true ~revalidated ~evicted
        ~artifact:(if carried then "carried" else "recompiled"))

let update_src t action src =
  match Kb_file.of_string src with
  | Error errs ->
    Error
      (String.concat "\n" (List.map (Fmt.str "%a" Kb_file.pp_parse_error) errs))
  | Ok f -> update ~src t action f

let session_log t = Mutex.protect t.session_m (fun () -> List.rev t.session_log_rev)

(* One budgeted engine run on the request's artifact; [None] when the
   budget expired (or was non-positive). The budget is a
   {!Rw_pool.Budget} deadline polled from the engines' inner loops
   (maxent solver iterations, profile counting, world enumeration,
   sampling) on whichever domain runs them — [Pool.map] and
   [Pool.async] carry it into their tasks. A solve cut short leaves
   its memo cell empty; cells that finished stay filled. *)
let run_engine ?trace ?budget t compiled ~kb q =
  let run () =
    Engine.degree_of_belief ~options:t.config.engine_options ?pool:t.pool
      ~compiled ?trace ~kb q
  in
  match budget with
  | None -> Some (run ())
  | Some s when s <= 0.0 -> None
  | Some s -> (
    match Rw_pool.Budget.with_deadline ~seconds:s run with
    | v -> Some v
    | exception Rw_pool.Budget.Expired -> None)

type explained = {
  answer : Answer.t;
  origin : origin;
  trace : Trace.event list;
}

let cache_fact outcome key =
  Trace.Fact
    { tag = "cache"; fields = [ ("outcome", Trace.S outcome); ("key", Trace.S key) ] }

(* The query ladder: LRU probe, then store probe (a hit is promoted
   into the LRU), then a budgeted dispatch written through to both
   tiers. [trace] is the sink of an explained request, fresh per
   request: a served entry replays its stored trace into it behind a
   [cache] fact, and a dispatch's events become the new entry's trace.
   An entry that survived KB updates ends the reply with one
   [revalidated] fact, its summary; the summary is never part of a
   stored trace. An entry that predates tracing (computed by a plain
   query, in this process or a previous one) is re-derived once with
   the sink and upgraded in both tiers, keeping its summary. The
   answer served stays the stored one when that retrace runs out of
   budget: an expiry must not degrade an answer we already have. A
   budget expiry on a miss serves the rules engine's sound interval on
   the request's artifact, which depends on the clock and so is neither
   cached nor persisted. A failed compile leaves no artifact to degrade
   to: the request fails with an error and nothing is cached or
   persisted. The resident snapshot is read once, at entry: key,
   artifact and engine input all come from that one state, so the
   answer is that state's whatever writers publish meanwhile. *)
let ladder ?budget ?trace t q =
  match Atomic.get t.resident with
  | None -> Error "no knowledge base loaded"
  | Some snap ->
    let budget =
      match budget with Some _ as b -> b | None -> t.config.budget
    in
    let t0 = Rw_prelude.Clock.now () in
    Atomic.incr t.queries;
    let key = cache_key t snap q in
    (* The new entry is persisted here and cached by the caller, which
       may carry a summary into it. An expiry is [Error] with the
       artifact the degraded answer reads. *)
    let dispatch outcome =
      Option.iter (fun tr -> Trace.add tr (cache_fact outcome key)) trace;
      let compiled = compiled_for t snap in
      match run_engine ?trace ?budget t compiled ~kb:snap.kb q with
      | None -> Error compiled
      | Some a ->
        let e = mk_entry q a (Option.map Trace.events trace) in
        store_put t key e;
        Ok e
    in
    let serve ~outcome (e : entry) =
      let answer =
        match (trace, e.trace) with
        | None, _ -> e.answer
        | Some tr, Some evs ->
          List.iter (Trace.add tr) (cache_fact outcome key :: evs);
          e.answer
        | Some tr, None -> (
          match dispatch (outcome ^ "-retraced") with
          | Ok e' ->
            Lru.Sync.add t.cache key { e' with revalidations = e.revalidations };
            e'.answer
          | Error _ ->
            Trace.note tr "retrace ran out of budget; cached answer returned";
            e.answer)
      in
      (match (trace, e.revalidations) with
      | Some tr, Some r -> Trace.add tr (revalidated_fact r)
      | _ -> ());
      answer
    in
    let result () =
      match Lru.Sync.find t.cache key with
      | Some e -> (serve ~outcome:"hit" e, Cached)
      | None -> (
        match store_probe t key q with
        | Some e ->
          Lru.Sync.add t.cache key e;
          (serve ~outcome:"hit-store" e, Stored)
        | None -> (
          match dispatch "miss" with
          | Ok e ->
            Lru.Sync.add t.cache key e;
            (e.answer, Computed)
          | Error compiled ->
            Atomic.incr t.timeouts;
            Option.iter
              (fun tr ->
                Trace.note tr
                  "budget exhausted: degraded to the rules-engine sound answer")
              trace;
            ( degraded_answer compiled
                ~budget:(Option.value budget ~default:0.0)
                q,
              Degraded )))
    in
    let result =
      match result () with
      | r -> Ok r
      | exception Rw_prelude.Hook.Injected point ->
        Error (Printf.sprintf "KB compilation failed (%s)" point)
    in
    latency_record t.latency ((Rw_prelude.Clock.now () -. t0) *. 1000.0);
    result

let query ?budget t q = ladder ?budget t q

let query_explained ?budget t q =
  let tr = Trace.create () in
  Result.map
    (fun (answer, origin) -> { answer; origin; trace = Trace.events tr })
    (ladder ?budget ~trace:tr t q)

let parse_query src =
  Result.map_error (Printf.sprintf "query parse error: %s") (Parser.formula src)

let query_src ?budget t src = Result.bind (parse_query src) (query ?budget t)

let query_src_explained ?budget t src =
  Result.bind (parse_query src) (query_explained ?budget t)

(* A batch fans out on the borrowed pool, in input order. Below
   [parallel_threshold] items it runs sequentially on the caller: on a
   few cheap (rules/maxent-weight) queries the hand-off and GC
   contention cost more than the whole sequential run. *)
let fan_out t one xs =
  match t.pool with
  | Some p when List.length xs >= t.config.parallel_threshold ->
    (* Injection point for a failed fan-out submission: fires before
       any item has touched the service, so a failed fan-out answers
       nothing and mutates nothing. *)
    Rw_prelude.Hook.fire "pool.submit";
    Rw_pool.Pool.map p one xs
  | _ -> List.map one xs

let batch ?budget t qs = fan_out t (query ?budget t) qs

let batch_srcs ?budget t srcs =
  fan_out t
    (fun src ->
      let t0 = Rw_prelude.Clock.now () in
      let r = query_src ?budget t src in
      (r, (Rw_prelude.Clock.now () -. t0) *. 1000.0))
    srcs

(* ------------------------------------------------------------------ *)
(* Observability                                                      *)
(* ------------------------------------------------------------------ *)

type compiled_stats = {
  compiled_cache : Lru.stats;
  compiles : int;
  compile_ms_total : float;
}

type session_stats = {
  updates : int;
  asserts : int;
  retracts : int;
  revalidated : int;  (** entries re-keyed across updates, total *)
  update_evicted : int;  (** entries dropped by update invalidation *)
  swap_reclaimed : int;  (** entries reclaimed by full [load_kb] swaps *)
  artifact_carries : int;  (** compiled artifacts carried across deltas *)
  log_entries : int;
}

type stats = {
  cache : Lru.stats;
  compiled : compiled_stats;
  engines : Instr.entry list;
  queries : int;
  timeouts : int;
  kb_loads : int;
  latency : latency_summary;
  store : Rw_store.Store.stats option;
  session : session_stats;
}

let session_stats t =
  Mutex.protect t.session_m (fun () ->
      {
        updates = t.updates;
        asserts = t.asserts;
        retracts = t.retracts;
        revalidated = t.revalidated_total;
        update_evicted = t.update_evicted_total;
        swap_reclaimed = t.swap_reclaimed_total;
        artifact_carries = t.artifact_carries;
        log_entries = t.session_log_len;
      })

let stats (t : t) =
  {
    cache = Lru.Sync.stats t.cache;
    compiled =
      {
        compiled_cache = Lru.Sync.stats t.compiled;
        compiles = Atomic.get t.compiles;
        compile_ms_total =
          Mutex.protect t.compile_m (fun () -> t.compile_ms_total);
      };
    engines = Instr.snapshot ();
    queries = Atomic.get t.queries;
    timeouts = Atomic.get t.timeouts;
    kb_loads = Atomic.get t.kb_loads;
    latency = latency_summary t.latency;
    store = Option.map Rw_store.Store.stats t.store;
    session = session_stats t;
  }
