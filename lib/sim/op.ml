(* Op alphabet: generation, serialization, parsing — see interface. *)

open Rw_logic
module Prng = Rw_mc.Prng
module Gen = Rw_fuzz.Gen

type t =
  | Load_kb of Syntax.formula list
  | Query of Syntax.formula
  | Explain of Syntax.formula
  | Batch of Syntax.formula list
  | Assert_ of Syntax.formula
  | Retract of Syntax.formula
  | Expire of Syntax.formula
  | Evict
  | Persist
  | Compact
  | Fault of string
  | Restart

(* ------------------------------------------------------------------ *)
(* Serialization — one line per op                                    *)
(* ------------------------------------------------------------------ *)

(* [Pretty.pp_formula] emits no break hints, so a rendered formula is
   one line whatever its size; " ;; " can never appear inside one. *)
let sep = " ;; "
let fstr = Pretty.to_string
let flist fs = String.concat sep (List.map fstr fs)

let render = function
  | Load_kb fs -> "load_kb " ^ flist fs
  | Query f -> "query " ^ fstr f
  | Explain f -> "explain " ^ fstr f
  | Batch fs -> "batch " ^ flist fs
  | Assert_ f -> "assert " ^ fstr f
  | Retract f -> "retract " ^ fstr f
  | Expire f -> "expire " ^ fstr f
  | Evict -> "evict"
  | Persist -> "persist"
  | Compact -> "compact"
  | Fault p -> "fault " ^ p
  | Restart -> "restart"

let split_on_sep s =
  let slen = String.length sep and n = String.length s in
  let rec go start acc i =
    if i + slen > n then List.rev (String.sub s start (n - start) :: acc)
    else if String.sub s i slen = sep then
      go (i + slen) (String.sub s start (i - start) :: acc) (i + slen)
    else go start acc (i + 1)
  in
  go 0 [] 0

let parse_formula s =
  match Parser.formula (String.trim s) with
  | Ok f -> Ok f
  | Error msg -> Error (Printf.sprintf "bad formula %S: %s" s msg)

let parse_formulas s =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
      match parse_formula x with
      | Ok f -> go (f :: acc) rest
      | Error _ as e -> e)
  in
  go [] (split_on_sep s)

let parse line =
  let line = String.trim line in
  let kw, rest =
    match String.index_opt line ' ' with
    | None -> (line, "")
    | Some i ->
      ( String.sub line 0 i,
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
  in
  let f1 mk = Result.map mk (parse_formula rest) in
  match kw with
  | "load_kb" -> Result.map (fun fs -> Load_kb fs) (parse_formulas rest)
  | "query" -> f1 (fun f -> Query f)
  | "explain" -> f1 (fun f -> Explain f)
  | "batch" -> Result.map (fun fs -> Batch fs) (parse_formulas rest)
  | "assert" -> f1 (fun f -> Assert_ f)
  | "retract" -> f1 (fun f -> Retract f)
  | "expire" -> f1 (fun f -> Expire f)
  | "evict" -> Ok Evict
  | "persist" -> Ok Persist
  | "compact" -> Ok Compact
  | "fault" ->
    if List.mem rest Fault.points then Ok (Fault rest)
    else Error (Printf.sprintf "unknown fault point %S" rest)
  | "restart" -> Ok Restart
  | _ -> Error (Printf.sprintf "unknown op %S" kw)

(* ------------------------------------------------------------------ *)
(* Generation                                                         *)
(* ------------------------------------------------------------------ *)

type gen = {
  reg : Rng_registry.t;
  max_size : int;
  faults : bool;
  mutable pending : t list;
  mutable started : bool;
}

let generator ~registry ~max_size ~faults =
  { reg = registry; max_size; faults; pending = []; started = false }

(* Each armed point ships with the short driver sequence that reaches
   it: arming a store fsync failure without a [persist] behind it
   would just be swept as unfired. The arm is the second-to-last op in
   each sequence — the sweep after every step disarms anything older. *)
let fault_sequence g ~frng ~kbrng ~qrng =
  let q () = Gen.query_of_rng qrng in
  match List.nth Fault.points (Prng.int frng (List.length Fault.points)) with
  | "store.append" -> [ Fault "store.append"; Query (q ()) ]
  | "store.append.torn" ->
    (* The torn write damages the file from its offset on — recover
       before anything else appends over the damage. *)
    [ Fault "store.append.torn"; Query (q ()); Restart ]
  | "store.sync" -> [ Fault "store.sync"; Persist ]
  | "compile.kb" ->
    (* A fresh KB digest forces the next query to compile. *)
    [
      Load_kb (Gen.kb_of_rng kbrng ~max_size:g.max_size);
      Fault "compile.kb";
      Query (q ());
    ]
  | _ ->
    (* pool.submit: only a batch of >= 4 items (the sim's threshold) fans out. *)
    let n = 4 + Prng.int frng 5 in
    [ Fault "pool.submit"; Batch (List.init n (fun _ -> q ())) ]

let next g ~shadow =
  match g.pending with
  | op :: rest ->
    g.pending <- rest;
    op
  | [] ->
    let kbrng = Rng_registry.stream g.reg "gen.kb" in
    let qrng = Rng_registry.stream g.reg "gen.query" in
    let sched = Rng_registry.stream g.reg "sched" in
    if not g.started then begin
      g.started <- true;
      Load_kb (Gen.kb_of_rng kbrng ~max_size:g.max_size)
    end
    else if
      g.faults
      &&
      let frng = Rng_registry.stream g.reg "fault" in
      Prng.int frng 8 = 0
    then begin
      let frng = Rng_registry.stream g.reg "fault" in
      match fault_sequence g ~frng ~kbrng ~qrng with
      | op :: rest ->
        g.pending <- rest;
        op
      | [] -> assert false
    end
    else begin
      match Prng.int sched 100 with
      | r when r < 30 -> Query (Gen.query_of_rng qrng)
      | r when r < 40 -> Explain (Gen.query_of_rng qrng)
      | r when r < 55 ->
        let n = 2 + Prng.int sched 7 in
        Batch (List.init n (fun _ -> Gen.query_of_rng qrng))
      | r when r < 65 -> Assert_ (Gen.fact_of_rng kbrng)
      | r when r < 72 ->
        (* Mostly retract something actually resident; sometimes a
           random fact, exercising the canonical-no-op path. *)
        if shadow <> [] && Prng.int sched 4 > 0 then
          Retract (List.nth shadow (Prng.int kbrng (List.length shadow)))
        else Retract (Gen.fact_of_rng kbrng)
      | r when r < 77 -> Expire (Gen.query_of_rng qrng)
      | r when r < 82 -> Evict
      | r when r < 87 -> Persist
      | r when r < 90 -> Compact
      | r when r < 95 -> Load_kb (Gen.kb_of_rng kbrng ~max_size:g.max_size)
      | _ -> Restart
    end
