(* Seeded op streams for the three workloads. A stream is a pure
   function of (workload, seed): the same seed yields byte-identical
   NDJSON, and the server only ever sees these generated lines. *)

type op =
  | Load_kb of string  (** inline KB text, one conjunct per line *)
  | Query of { q : string; explain : bool }
  | Batch of string list  (** sent with ["jobs": 2] *)
  | Update of { assert_ : bool; src : string }
  | Persist of { compact : bool }

let batch_jobs = 2

let to_json ~id op =
  let module J = Rw_service.Json in
  let fields =
    match op with
    | Load_kb text -> [ ("op", J.String "load_kb"); ("kb", J.String text) ]
    | Query { q; explain } ->
      [ ("op", J.String "query"); ("query", J.String q) ]
      @ if explain then [ ("explain", J.Bool true) ] else []
    | Batch qs ->
      [
        ("op", J.String "batch");
        ("queries", J.List (List.map (fun q -> J.String q) qs));
        ("jobs", J.Int batch_jobs);
      ]
    | Update { assert_; src } ->
      [
        ("op", J.String "session_update");
        ("action", J.String (if assert_ then "assert" else "retract"));
        ("src", J.String src);
      ]
    | Persist { compact } ->
      [ ("op", J.String "persist") ]
      @ if compact then [ ("compact", J.Bool true) ] else []
  in
  J.Obj (("id", J.Int id) :: fields)

let to_line ~id op = Rw_service.Json.to_string (to_json ~id op)

(* What a workload hands the runner. [setup] ends in a query and is
   what [setup_s] times; [warmup] runs untimed on one connection;
   each [stream ()] generates the timed ops from the start. The timed
   phase stops at the first multiple of [unit_len] past the deadline,
   so cold-kbs always replays whole cycles. *)
type t = {
  name : string;
  connections : int;
  listen : bool;  (** socket server, else stdio pipes *)
  store : bool;
  cache : int;  (** the server's [--cache] *)
  setup : op list;
  warmup : op list;
  stream : unit -> unit -> op;
      (** a fresh generator of the timed ops, in order *)
  unit_len : int;
  prefill : int;  (** ops of an earlier session replayed onto the store *)
  rss_after : int;
      (** timed ops after which the server's peak RSS is read: a fixed
          amount of work, so the reading does not follow throughput *)
}

let names = [ "hot-serve"; "cold-kbs"; "session-store" ]

(* Every draw goes through one PRNG per (workload, seed, purpose),
   consumed in a fixed order. *)
let rng ~seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Zipf(s = 1) over ranks [0, n): the cumulative weights, searched by
   bisection. *)
let zipf_cdf n =
  let w = Array.init n (fun i -> 1.0 /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw st cdf =
  let u = Random.State.float st 1.0 in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then go (mid + 1) hi else go lo mid
  in
  min (Array.length cdf - 1) (go 0 (Array.length cdf - 1))

(* ------------------------------------------------------------------ *)
(* hot-serve                                                          *)
(* ------------------------------------------------------------------ *)

(* Example 5.8's hepatitis statistics (the KB_hep form with the more
   specific jaundice-and-fever class) plus seeded ground evidence on
   a few dozen patients. *)
let hep_stats =
  [
    "||Hep(x) | Jaun(x)||_x ~=_1 0.8";
    "||Hep(x)||_x <=_2 0.05";
    "||Hep(x) | Jaun(x) /\\ Fever(x)||_x ~=_3 1";
  ]

let patients = 36

let patient i = Printf.sprintf "P%d" i

(* Findings by class: every seed has the same number of patients in
   each class, so the mix of engines a query stream reaches does not
   depend on the seed; the seed picks which patients are which. *)
let findings cls p =
  match cls mod 4 with
  | 0 -> [ Printf.sprintf "Jaun(%s)" p ]
  | 1 -> [ Printf.sprintf "Jaun(%s)" p; Printf.sprintf "Fever(%s)" p ]
  | 2 -> [ Printf.sprintf "Fever(%s)" p ]
  | _ -> []

(* Patients of each class, in a seeded order: [by_class.(c)]. *)
let classes st n =
  let order = shuffle st (Array.init n Fun.id) in
  Array.init 4 (fun c ->
      Array.of_list
        (List.filter_map
           (fun i -> if i mod 4 = c then Some (patient order.(i)) else None)
           (List.init n Fun.id)))

let evidence by_class =
  List.concat
    (List.init 4 (fun c -> List.concat_map (findings c) (Array.to_list by_class.(c))))

let hep_shapes = 6

(* Ground query shape [k] about patient [a] (and [b] for the
   two-patient shapes). *)
let hep_shape k a b =
  match k with
  | 0 -> Printf.sprintf "Hep(%s)" a
  | 1 -> Printf.sprintf "~Hep(%s)" a
  | 2 -> Printf.sprintf "Hep(%s) /\\ Jaun(%s)" a a
  | 3 -> Printf.sprintf "Hep(%s) \\/ Fever(%s)" a a
  (* the conjunction is symmetric: one order per pair, so no two
     texts share a digest *)
  | 4 -> if a < b then Printf.sprintf "Hep(%s) /\\ Hep(%s)" a b else Printf.sprintf "Hep(%s) /\\ Hep(%s)" b a
  | _ -> Printf.sprintf "Hep(%s) \\/ ~Jaun(%s)" a b

(* Every ground query about one or two patients, each text once. *)
let hep_pool =
  let ps = List.init patients patient in
  let one = List.concat_map (fun a -> List.init 4 (fun k -> hep_shape k a a)) ps in
  let two =
    List.concat_map
      (fun a ->
        List.concat_map
          (fun b ->
            if a = b then []
            else (if a < b then [ hep_shape 4 a b ] else []) @ [ hep_shape 5 a b ])
          ps)
      ps
  in
  Array.of_list (one @ two)

(* The k-th query past the pool: three-literal conjunctions, one per
   (a, b, c) with a <> b, so distinct from the pool and from each
   other. *)
let hep_extra k =
  let a = k mod patients in
  let b = (a + 1 + (k / patients mod (patients - 1))) mod patients in
  let c = k / (patients * (patients - 1)) mod patients in
  Printf.sprintf "Hep(%s) /\\ ~Hep(%s) /\\ ~Jaun(%s)" (patient a) (patient b) (patient c)

(* Canonical variants: same digest as the verbatim query, different
   text. Only sent after the verbatim form is cached. *)
let commute q =
  let swap sep =
    let n = String.length sep in
    let rec find i =
      if i + n > String.length q then None
      else if String.sub q i n = sep then
        Some (String.sub q (i + n) (String.length q - i - n) ^ sep ^ String.sub q 0 i)
      else find (i + 1)
    in
    find 0
  in
  match swap " /\\ " with Some v -> Some v | None -> swap " \\/ "

let variant st q =
  match (Random.State.bool st, commute q) with
  | true, Some v -> v
  | _ -> "~~(" ^ q ^ ")"

let working_set = 192

(* Shares of the timed stream, in percent. *)
let fresh_pct = 1

let variant_pct = 20

(* The working set, by Zipf rank: rank r asks shape [r mod 6] about a
   patient of class [(r / 6) mod 4] (and, for two-patient shapes, one
   of the next class), so every seed puts the same kinds of query at
   the same ranks. *)
let hot_working_set st by_class =
  let slots = hep_shapes * 4 in
  let per_slot = working_set / slots in
  let picks =
    Array.init slots (fun slot ->
        let c = slot / hep_shapes in
        let a = shuffle st by_class.(c) and b = shuffle st by_class.((c + 1) mod 4) in
        Array.init per_slot (fun j -> hep_shape (slot mod hep_shapes) a.(j) b.(j)))
  in
  Array.init working_set (fun r ->
      let slot = (r mod hep_shapes) + (hep_shapes * ((r / hep_shapes) mod 4)) in
      picks.(slot).(r / slots))

let hot_serve ~seed =
  let by_class = classes (rng ~seed "hot-serve/kb") patients in
  let kb = String.concat "\n" (hep_stats @ evidence by_class) in
  let ws = hot_working_set (rng ~seed "hot-serve/ws") by_class in
  let in_ws = Hashtbl.create 256 in
  Array.iter (fun q -> Hashtbl.replace in_ws q ()) ws;
  let pool =
    Array.of_list
      (List.filter
         (fun q -> not (Hashtbl.mem in_ws q))
         (Array.to_list (shuffle (rng ~seed "hot-serve/pool") hep_pool)))
  in
  let cdf = zipf_cdf working_set in
  (* Never-seen queries walk the rest of the shuffled pool, then past
     it, so each is distinct from the working set and from the
     others. *)
  let stream () =
    let st = rng ~seed "hot-serve/stream" in
    let fresh = ref 0 in
    fun () ->
      let u = Random.State.int st 100 in
      let explain = Random.State.int st 10 = 0 in
      if u < fresh_pct then begin
        let k = !fresh in
        incr fresh;
        let q =
          if k < Array.length pool then pool.(k)
          else hep_extra (k - Array.length pool)
        in
        Query { q; explain = false }
      end
      else
        let q = ws.(zipf_draw st cdf) in
        let q = if u < fresh_pct + variant_pct then variant st q else q in
        Query { q; explain }
  in
  {
    name = "hot-serve";
    connections = 2;
    listen = true;
    store = false;
    cache = 65536;
    setup = [ Load_kb kb; Query { q = ws.(0); explain = false } ];
    warmup =
      Array.to_list (Array.map (fun q -> Query { q; explain = true }) ws);
    stream;
    unit_len = 1;
    prefill = 0;
    rss_after = 10_000;
  }

(* ------------------------------------------------------------------ *)
(* cold-kbs                                                           *)
(* ------------------------------------------------------------------ *)

(* The paper query of each example KB file. *)
let example_kbs =
  [
    ("black_birds", "Black(Clyde)");
    ("broken_arm", "LUsable(Eric)");
    ("hepatitis", "Hep(Eric)");
    ("late_risers", "||Rises(Alice,y) | Day(y)||_y ~=_1 1");
    ("nixon", "Pac(Nixon)");
    ("taxonomy", "Fly(Opus)");
    ("tay_sachs", "TS(Eric)");
    ("tweety", "Fly(Tweety)");
  ]

let example_path name = Filename.concat "examples/kb" (name ^ ".kb")

type kb_case = {
  label : string;  (** zoo id or example file name *)
  text : string;  (** the inline [load_kb] text *)
  paper_query : string;
  unary : bool;  (** in the unary fragment: gets generated queries *)
  expected : Rw_kbzoo.Kbzoo.expectation option;
}

let rec conjuncts = function
  | Rw_logic.Syntax.And (f, g) -> conjuncts f @ conjuncts g
  | Rw_logic.Syntax.True -> []
  | f -> [ f ]

let kb_text f = String.concat "\n" (List.map Rw_logic.Pretty.to_string (conjuncts f))

(* The 37 zoo KBs and the 8 example files. [read] is how the example
   files are loaded (from the checkout at run time). *)
let kb_cases ~read =
  let zoo =
    List.map
      (fun (e : Rw_kbzoo.Kbzoo.entry) ->
        {
          label = e.id;
          text = kb_text e.kb;
          paper_query = Rw_logic.Pretty.to_string e.query;
          unary = e.unary;
          expected = Some e.expected;
        })
      (Rw_kbzoo.Kbzoo.all ())
  in
  let files =
    List.map
      (fun (name, q) ->
        let text = read (example_path name) in
        let unary =
          match Rw_logic.Kb_file.of_string text with
          | Ok kb -> Rw_logic.Vocab.is_unary (Rw_logic.Vocab.of_formula kb)
          | Error _ -> false
        in
        { label = name; text; paper_query = q; unary; expected = None })
      example_kbs
  in
  zoo @ files

(* Items per unary batch beyond the paper query: enough to pass the
   service's default parallel_threshold (8). *)
let generated_per_batch = 11

(* Distinct one-constant ground queries over the KB's unary predicates,
   about its own constants and a few fresh individuals. *)
let ground_queries st (c : kb_case) =
  match Rw_logic.Kb_file.of_string c.text with
  | Error _ -> []
  | Ok kb ->
    let v = Rw_logic.Vocab.of_formula kb in
    let preds =
      List.sort_uniq compare
        (List.filter_map
           (fun (p, n) -> if n = 1 then Some p else None)
           v.Rw_logic.Vocab.preds)
    in
    let consts =
      List.sort_uniq compare (Rw_logic.Vocab.constants v)
      @ List.init 6 (Printf.sprintf "K%d")
    in
    let lit p c = Printf.sprintf "%s(%s)" p c in
    let pairs =
      List.concat_map
        (fun p -> List.filter_map (fun q -> if p < q then Some (p, q) else None) preds)
        preds
    in
    let cands =
      List.concat_map
        (fun c ->
          List.concat_map (fun p -> [ lit p c; "~" ^ lit p c ]) preds
          @ List.concat_map
              (fun (p, q) ->
                [ lit p c ^ " /\\ " ^ lit q c; lit p c ^ " \\/ ~" ^ lit q c ])
              pairs)
        consts
    in
    let cands = List.filter (fun q -> q <> c.paper_query) cands in
    let a = shuffle st (Array.of_list cands) in
    Array.to_list (Array.sub a 0 (min generated_per_batch (Array.length a)))

(* KBs over more unary predicates than this are left out: the compiled
   artifact presolves maxent over 2^n atoms, and the one such KB
   (taxonomy.kb, 7 predicates) compiles for about 30 s on a 2-core
   box — three times the rest of the cycle together. *)
let max_predicates = 6

let predicate_count (c : kb_case) =
  match Rw_logic.Kb_file.of_string c.text with
  | Ok kb -> List.length (Rw_logic.Vocab.of_formula kb).Rw_logic.Vocab.preds
  | Error _ -> max_int

(* The timed phase replays whole multiples of this many cycles: 132
   batches, so p90 has ten beyond it, and the throughput is the median
   cycle's. *)
let cycles_per_run = 3

let cold_kbs ~seed ~read =
  let cases =
    List.filter (fun c -> predicate_count c <= max_predicates) (kb_cases ~read)
  in
  let st = rng ~seed "cold-kbs/queries" in
  let batches =
    List.map
      (fun c ->
        let extra = if c.unary then ground_queries st c else [] in
        (c, c.paper_query :: extra))
      cases
  in
  let order = shuffle (rng ~seed "cold-kbs/order") (Array.of_list batches) in
  let cycle =
    Array.of_list
      (List.concat_map (fun (c, qs) -> [ Load_kb c.text; Batch qs ]) (Array.to_list order))
  in
  let hep = List.find (fun c -> c.label = "hepatitis") cases in
  {
    name = "cold-kbs";
    connections = 1;
    listen = false;
    store = false;
    cache = 1024;
    setup = [ Load_kb hep.text; Query { q = hep.paper_query; explain = false } ];
    warmup = [];
    stream =
      (fun () ->
        let i = ref 0 in
        fun () ->
          let op = cycle.(!i mod Array.length cycle) in
          incr i;
          op);
    unit_len = cycles_per_run * Array.length cycle;
    prefill = 0;
    rss_after = cycles_per_run * Array.length cycle;
  }

(* ------------------------------------------------------------------ *)
(* session-store                                                      *)
(* ------------------------------------------------------------------ *)

let session_stats =
  [
    "||Hep(x) | Jaun(x)||_x ~=_1 0.8";
    "||Hep(x)||_x <=_2 0.05";
    "||Flu(x) | Fever(x)||_x ~=_3 0.7";
  ]

let session_patients = 24

(* A statistic asserted at op [stat_assert_at] and retracted at
   [stat_retract_at]: it changes the optimisation problem, so the
   compiled artifact is recompiled each way (about half a second
   each). Once per run, at fixed ops, so every run pays the same. *)
let session_stat_change = "||Hep(x) | Fever(x)||_x ~=_4 0.3"

let stat_assert_at = 1250

let stat_retract_at = 1750

(* Every [update_every]-th op is a session_update, following
   [update_pattern] round after round: 'o' asserts a finding about a
   queried patient (overlapping vocabulary: entries evicted), 'd' one
   about an unqueried individual (disjoint: rules answers revalidate),
   '-' retracts the latest assert, so the KB walks back to earlier
   digests. Each round draws the next of [delta_pool] deltas of each
   kind, so states recur and the store serves them. The fixed pattern
   makes every seed do the same mix of work; the seed picks the
   deltas and the queries. *)
let update_every = 7

let update_pattern = "od--do--"

let delta_pool = 5

let persist_every = 500

let compact_at = 2000

let session_store ~seed =
  let ps = List.init session_patients patient in
  let evidence = evidence (classes (rng ~seed "session-store/kb") session_patients) in
  (* Cough is in the base vocabulary, so evidence deltas about it
     leave the optimisation problem alone and carry the artifact. *)
  let kb = String.concat "\n" (session_stats @ ("Cough(Q0)" :: evidence)) in
  let ws =
    Array.of_list
      (List.concat_map
         (fun p ->
           [
             Printf.sprintf "Hep(%s)" p;
             Printf.sprintf "~Hep(%s)" p;
             Printf.sprintf "Flu(%s)" p;
             Printf.sprintf "Hep(%s) \\/ Flu(%s)" p p;
           ])
         ps)
  in
  let ws = shuffle (rng ~seed "session-store/ws") ws in
  (* Evidence deltas: new findings about queried patients (their
     vocabulary overlaps cached queries, which are evicted), or about
     a predicate and individuals no query mentions (disjoint: cached
     rules answers revalidate). Only atoms absent from the base KB, so
     every retract undoes its assert. *)
  let absent =
    Array.of_list
      (List.concat_map
         (fun p ->
           List.filter_map
             (fun pr ->
               let a = Printf.sprintf "%s(%s)" pr p in
               if List.mem a evidence then None else Some a)
             [ "Jaun"; "Fever" ])
         ps)
  in
  let pick n xs = Array.sub (shuffle (rng ~seed "session-store/deltas") xs) 0 n in
  let overlapping = pick delta_pool absent in
  let disjoint =
    pick delta_pool (Array.init 16 (fun i -> Printf.sprintf "Cough(Q%d)" (i + 1)))
  in
  let stream () =
    let st = rng ~seed "session-store/stream" in
    let i = ref 0 and step = ref 0 in
    (* Asserted deltas not yet retracted, most recent first: retracts
       pop, so the KB walks back to digests it had before. *)
    let stack = ref [] in
    fun () ->
      let k = !i in
      incr i;
      if k > 0 && k mod persist_every = 0 then Persist { compact = k = compact_at }
      else if k = stat_assert_at then
        Update { assert_ = true; src = session_stat_change }
      else if k = stat_retract_at then
        Update { assert_ = false; src = session_stat_change }
      else if k mod update_every = update_every - 1 then begin
        let j = !step in
        incr step;
        match update_pattern.[j mod String.length update_pattern] with
        | '-' -> (
          match !stack with
          | d :: rest ->
            stack := rest;
            Update { assert_ = false; src = d }
          | [] -> assert false)
        | kind ->
          let from = if kind = 'o' then overlapping else disjoint in
          let d = from.(j / String.length update_pattern mod delta_pool) in
          stack := d :: !stack;
          Update { assert_ = true; src = d }
      end
      else Query { q = ws.(Random.State.int st (Array.length ws)); explain = false }
  in
  {
    name = "session-store";
    connections = 1;
    listen = true;
    store = true;
    cache = 32;
    setup = [ Load_kb kb; Query { q = ws.(0); explain = false } ];
    warmup = [];
    stream;
    unit_len = 1;
    prefill = 3000;
    rss_after = 3000;
  }

let make ~name ~seed ~read =
  match name with
  | "hot-serve" -> Ok (hot_serve ~seed)
  | "cold-kbs" -> Ok (cold_kbs ~seed ~read)
  | "session-store" -> Ok (session_store ~seed)
  | other ->
    Error
      (Printf.sprintf "unknown workload %S (expected one of: %s)" other
         (String.concat ", " names))
