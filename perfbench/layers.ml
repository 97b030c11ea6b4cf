(* Per-layer metrics of one traced run: the served run's replies and
   [stats] counters, plus the spans of the in-process replay. Layers
   are named by module; README.md says which end-to-end metric each
   should move on which workload. A metric with no samples on a
   workload reads 0. *)

module J = Rw_service.Json

let metric name unit_ value = { Report.name; unit_; value }

let num path j =
  let rec go j = function
    | [] -> J.to_float j
    | k :: rest -> Option.bind (J.member k j) (fun j -> go j rest)
  in
  Option.value (go j path) ~default:0.0

let ratio a b = if b > 0.0 then a /. b else 0.0

let median xs = match xs with [] -> 0.0 | _ -> Summary.median xs

(* A tail percentile under the summary helper's rule; 0 when the run
   has too few samples for it. *)
let pct xs p = match Summary.percentile xs p with Ok v -> v | Error _ -> 0.0

let engines = [ "rules"; "independence"; "maxent"; "unary" ]

let of_run ~(served : Served.samples) ~stats ~(off : Traced.run) ~(on : Traced.run) =
  let selfs = Traced.self_times on.spans in
  let durs name =
    List.filter_map
      (fun ((s : Traced.span), _) -> if s.name = name then Some (s.t1 -. s.t0) else None)
      selfs
  in
  let us name = median (List.map (fun d -> d *. 1e6) (durs name)) in
  let ms name = median (List.map (fun d -> d *. 1e3) (durs name)) in
  let self_sum pred =
    List.fold_left
      (fun acc ((s : Traced.span), self) -> if pred s.name then acc +. self else acc)
      0.0 selfs
  in
  let count pred =
    float_of_int (List.length (List.filter (fun ((s : Traced.span), _) -> pred s.name) selfs))
  in
  let engine_stat e field =
    match Option.bind (J.member "engines" stats) J.to_list with
    | None -> 0.0
    | Some es ->
      List.fold_left
        (fun acc x -> if J.member "engine" x = Some (J.String e) then acc +. num [ field ] x else acc)
        0.0 es
  in
  let updates = num [ "session"; "updates" ] stats in
  let hits = num [ "cache"; "hits" ] stats and misses = num [ "cache"; "misses" ] stats in
  let s_hits = num [ "store"; "probe_hits" ] stats
  and s_misses = num [ "store"; "probe_misses" ] stats in
  let c_hits = num [ "compiled"; "hits" ] stats
  and c_misses = num [ "compiled"; "misses" ] stats in
  let starts p name = String.starts_with ~prefix:p name in
  [
    metric "server.self_ms_p50" "ms" (median served.server_self_ms);
    metric "server.self_ms_p99" "ms" (pct served.server_self_ms 99.0);
    metric "session.update_p50_ms" "ms" (median served.update_ms);
    metric "session.update_p90_ms" "ms" (pct served.update_ms 90.0);
    metric "protocol.decode_us_p50" "us" (us "protocol.decode");
    metric "protocol.encode_us_p50" "us" (us "protocol.encode");
    metric "protocol.encode_explain_us_p50" "us" (us "protocol.encode_explain");
    metric "protocol.reply_bytes_p50" "bytes" (median served.reply_bytes);
    metric "logic.parse_us_p50" "us" (us "logic.parse");
    metric "logic.digest_us_p50" "us" (us "logic.digest");
    metric "logic.kb_load_ms_p50" "ms" (ms "logic.kb_load");
    metric "lru.hit_ratio" "ratio" (ratio hits (hits +. misses));
    metric "lru.evictions" "count" (num [ "cache"; "evictions" ] stats);
    metric "lru.find_us_p50" "us" (us "lru.find");
    metric "store.open_ms" "ms" (ms "store.open");
    metric "store.recovered" "count" (num [ "store"; "recovered" ] stats);
    metric "store.hit_ratio" "ratio" (ratio s_hits (s_hits +. s_misses));
    metric "store.find_us_p50" "us" (us "store.find");
    metric "store.append_us_p50" "us" (us "store.append");
    metric "store.sync_ms_p50" "ms" (ms "store.sync");
    metric "store.compact_ms" "ms" (ms "store.compact");
    metric "store.bytes_per_live" "bytes"
      (ratio (num [ "store"; "file_bytes" ] stats) (num [ "store"; "live" ] stats));
    metric "store.spans" "count" (count (fun n -> starts "store." n && n <> "store.open"));
    metric "compile.count" "count" (num [ "compiled"; "compiles" ] stats);
    metric "compile.ms_p50" "ms" (ms "compile");
    metric "compile.ms_total" "ms" (num [ "compiled"; "compile_ms_total" ] stats);
    metric "compile.reuse_ratio" "ratio" (ratio c_hits (c_hits +. c_misses));
    metric "compile.update_ms_p50" "ms" (ms "compile.update");
    metric "compile.carried_ratio" "ratio"
      (ratio (num [ "session"; "artifact_carries" ] stats) updates);
  ]
  @ List.concat_map
      (fun e ->
        [
          metric ("engine." ^ e ^ ".count") "count" (engine_stat e "dispatches");
          metric ("engine." ^ e ^ ".ms_p50") "ms" (ms ("engine." ^ e));
          metric ("engine." ^ e ^ ".busy_s") "s" (engine_stat e "seconds");
        ])
      engines
  @ [
      metric "pool.spawn_ms_p50" "ms" (ms "pool.create" +. ms "pool.shutdown");
      metric "pool.efficiency" "ratio" (median served.pool_eff);
      metric "service.update_ms_p50" "ms" (median served.update_server_ms);
      metric "service.revalidated_per_update" "count"
        (ratio (num [ "session"; "revalidated" ] stats) updates);
      metric "service.evicted_per_update" "count"
        (ratio (num [ "session"; "update_evicted" ] stats) updates);
      metric "service.degraded" "count" (num [ "timeouts" ] stats);
      metric "trace.events_per_explain" "count"
        (match served.trace_events with
        | [] -> 0.0
        | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs));
      metric "trace.overhead_frac" "ratio" (ratio (on.wall_s -. off.wall_s) off.wall_s);
      metric "trace.engine_compile_share" "ratio"
        (ratio (self_sum (fun n -> starts "engine." n || starts "compile" n)) on.wall_s);
      metric "gc.minor_per_op" "count" off.gc_minor;
      metric "gc.major_per_op" "count" off.gc_major;
      metric "gc.promoted_words_per_op" "count" off.gc_promoted;
    ]
