(* The correctness check. Every reply is reduced to an answer key —
   its [engine] and its [result] object (kind, value or interval
   bounds) as JSON. Floats print in shortest round-trip form, so equal
   text is equal bits. [notes] (Monte-Carlo cross-check notes carry
   wall-clock stats), [elapsed_ms], [cached] and [tier] are left out.

   Observations are keyed by (KB state, query text): the state is the
   number of KB-changing ops (load_kb, session_update) before the
   query in stream order. After the timed phase, the same op sequence
   is replayed in process through a service with both answer tiers off
   — each answer a fresh engine dispatch on the KB the server held —
   memoised per (KB digest, query digest), and every observed key is
   compared with it. The compiled-KB tier stays on: without it a
   maxent dispatch re-solves the KB (hundreds of milliseconds per
   query), and its contract is bit-identical answers either way. Paper queries of zoo KBs are also
   checked against [Kbzoo.expected]. *)

module J = Rw_service.Json
open Randworlds

let key_of_answer_json a =
  match (J.member "engine" a, J.member "result" a) with
  | Some (J.String e), Some r -> Some (e ^ " " ^ J.to_string r)
  | _ -> None

let key_of_answer a = Option.get (key_of_answer_json (Rw_service.Codec.json_of_answer a))

type obs = { answer : string; mutable count : int }

type t = {
  observed : (string, obs) Hashtbl.t;
  mutable disagreements : int;  (** replies differing from an earlier one *)
  mutable malformed : int;  (** ok:false or unreadable replies *)
}

let create () = { observed = Hashtbl.create 4096; disagreements = 0; malformed = 0 }

let obs_key ~state q = string_of_int state ^ "\000" ^ q

(* Record one reply's answer for [q] at [state]; [false] when it
   already disagrees with an earlier reply for the same pair. *)
let record t ~state q answer =
  let k = obs_key ~state q in
  match Hashtbl.find_opt t.observed k with
  | None ->
    Hashtbl.add t.observed k { answer; count = 1 };
    true
  | Some o when o.answer = answer ->
    o.count <- o.count + 1;
    true
  | Some _ ->
    t.disagreements <- t.disagreements + 1;
    false

let malformed t = t.malformed <- t.malformed + 1

(* Does a zoo answer match the paper's expectation? The same tolerance
   the repository's Table 1 uses. *)
let matches_expected expected (a : Answer.t) =
  match (expected, a.Answer.result) with
  | Rw_kbzoo.Kbzoo.Exactly v, _ -> (
    match Answer.point_value a with
    | Some got -> Float.abs (got -. v) < 0.01
    | None -> false)
  | Inside i, Answer.Within j -> Rw_prelude.Interval.subset j i
  | Inside i, Answer.Point v -> Rw_prelude.Interval.mem ~eps:1e-6 v i
  | Less_than v, _ -> (
    match Answer.point_value a with Some got -> got < v | None -> false)
  | NoLimit, Answer.No_limit _ -> true
  | Inconsistent_kb, Answer.Inconsistent -> true
  | _ -> false

(* The in-process reference: a service without answer caches, walked
   through the same KB-changing ops. *)
type reference = {
  svc : Rw_service.Service.t;
  memo : (string, string) Hashtbl.t;  (** KB digest | query digest -> key *)
  qdigest : (string, string) Hashtbl.t;  (** query text -> digest *)
  mutable kb_digest : string;
  mutable state : int;
}

let reference () =
  let config =
    {
      Rw_service.Service.default_config with
      cache_capacity = 0;
    }
  in
  {
    svc = Rw_service.Service.create ~config ();
    memo = Hashtbl.create 4096;
    qdigest = Hashtbl.create 4096;
    kb_digest = "";
    state = 0;
  }

let refresh_digest r =
  r.state <- r.state + 1;
  r.kb_digest <-
    (match Rw_service.Service.kb r.svc with
    | Some kb -> Rw_logic.Canonical.digest kb
    | None -> "")

let reference_answer r q =
  let qd =
    match Hashtbl.find_opt r.qdigest q with
    | Some d -> d
    | None ->
      let d =
        match Rw_logic.Parser.formula q with
        | Ok f -> Rw_logic.Canonical.digest f
        | Error e -> "unparsable:" ^ e
      in
      Hashtbl.add r.qdigest q d;
      d
  in
  let mk = r.kb_digest ^ "|" ^ qd in
  match Hashtbl.find_opt r.memo mk with
  | Some k -> k
  | None ->
    let k =
      match Rw_service.Service.query_src r.svc q with
      | Ok (a, _) -> key_of_answer a
      | Error e -> "error " ^ e
    in
    Hashtbl.add r.memo mk k;
    k

type verdict = {
  checked : int;  (** distinct (state, query) pairs compared *)
  failed_replies : int;
      (** replies that disagree with the reference; [t]'s own
          [disagreements] and [malformed] count the rest *)
  expectation_failures : int;
  detail : string list;  (** the first few mismatches, for the log *)
}

(* Replay [ops] (the full sequence every session sent, in stream
   order) and compare each observed pair. [expected kb q] is the zoo
   expectation when [q] is the paper query of KB text [kb]. *)
let verify t ~expected ops =
  let r = reference () in
  let seen = Hashtbl.create 4096 in
  let checked = ref 0 and failed = ref 0 and exp_fail = ref 0 in
  let detail = ref [] in
  let kb_text = ref "" in
  let compare_one q =
    let k = obs_key ~state:r.state q in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      match Hashtbl.find_opt t.observed k with
      | None -> ()
      | Some o ->
        incr checked;
        let want = reference_answer r q in
        if want <> o.answer then begin
          failed := !failed + o.count;
          if List.length !detail < 5 then
            detail :=
              Printf.sprintf "state %d, %s: served %s, reference %s" r.state q
                o.answer want
              :: !detail
        end
    end
  in
  let paper_checked = Hashtbl.create 64 in
  let check_paper q =
    let key = (!kb_text, q) in
    match expected !kb_text q with
    | Some e when not (Hashtbl.mem paper_checked key) -> (
      Hashtbl.add paper_checked key ();
      match Rw_service.Service.query_src r.svc q with
      | Ok (a, _) when matches_expected e a -> ()
      | Ok _ | Error _ ->
        incr exp_fail;
        detail := Printf.sprintf "%s: paper expectation not met" q :: !detail)
    | _ -> ()
  in
  List.iter
    (fun op ->
      match op with
      | Workload.Load_kb text ->
        kb_text := text;
        ignore (Rw_service.Service.load_kb_string r.svc text);
        refresh_digest r
      | Workload.Update { assert_; src } ->
        ignore
          (Rw_service.Service.update_src r.svc
             (if assert_ then Rw_service.Service.Assert else Rw_service.Service.Retract)
             src);
        refresh_digest r
      | Workload.Query { q; _ } -> compare_one q
      | Workload.Batch qs ->
        (match qs with q :: _ -> check_paper q | [] -> ());
        List.iter compare_one qs
      | Workload.Persist _ -> ())
    ops;
  {
    checked = !checked;
    failed_replies = !failed;
    expectation_failures = !exp_fail;
    detail = List.rev !detail;
  }
