(** The top-level degree-of-belief engine: dispatch across the four
    computation strategies, most exact/cheapest first.

    1. {b rules} — syntactic theorems (sound intervals, any arity);
    2. {b independence decomposition} — Theorem 5.27 splits queries
       over disjoint sub-vocabularies into products;
    3. {b maxent} — asymptotic values for unary KBs;
    4. {b unary} — exact finite-[N] counting with extrapolation;
    5. {b enum} — literal world enumeration at small [N];
    6. {b mc} — Monte-Carlo world sampling with confidence intervals,
       engaged when the enumeration guard is blown (and as an
       independent statistical cross-check where enum applies).

    A rule-engine interval is refined by the maxent point when the two
    agree (the point falls inside the interval); disagreement keeps the
    provably-sound interval and notes the conflict. *)

open Rw_logic
open Syntax
module Trace = Rw_trace.Trace

type options = {
  tols : Tolerance.t list option;  (** tolerance schedule override *)
  unary_sizes : int list option;  (** domain sizes for the unary engine *)
  enum_sizes : int list option;  (** domain sizes for the enumeration engine *)
  mc_seed : int;  (** PRNG seed for the Monte-Carlo engine *)
  mc_samples : int option;  (** Monte-Carlo sample budget override *)
  mc_ci_width : float option;  (** Monte-Carlo target CI half-width *)
  mc_sizes : int list option;  (** domain sizes for the Monte-Carlo engine *)
  mc_cross_check : bool;
      (** statistically cross-check exact enum points by sampling *)
}

let default_options =
  {
    tols = None;
    unary_sizes = None;
    enum_sizes = None;
    mc_seed = Mc_engine.default_seed;
    mc_samples = None;
    mc_ci_width = None;
    mc_sizes = None;
    mc_cross_check = true;
  }

(* Symbols of a formula, for the independence split: predicates and
   non-constant functions always separate; constants are listed apart. *)
let split_symbols f =
  let preds, funcs = Syntax.symbols f in
  let hard =
    List.map (fun (p, a) -> ("P:" ^ p, a)) preds
    @ List.filter_map
        (fun (g, a) -> if a > 0 then Some ("F:" ^ g, a) else None)
        funcs
  in
  (List.map fst hard, Syntax.constants f)

(* Theorem 5.27: try to split query = q1 ∧ q2 and KB = kb1 ∧ kb2 with
   vocabularies disjoint except for (at most) one shared constant. *)
let independence_split ~kb query =
  let qs = Rw_unary.Analysis.split_conjuncts query in
  if List.length qs < 2 then None
  else begin
    let kbs = Rw_unary.Analysis.split_conjuncts kb in
    let items = List.map (fun f -> (f, split_symbols f)) (qs @ kbs) in
    (* Union-find over items: connect when sharing a predicate/function
       symbol or sharing more than the single allowed constant. *)
    let n = List.length items in
    let arr = Array.of_list items in
    let parent = Array.init n Fun.id in
    let rec find i = if parent.(i) = i then i else find parent.(i) in
    let union i j = parent.(find i) <- find j in
    (* Only a single shared constant is covered by Theorem 5.27. *)
    let shared_allowed =
      match Syntax.constants query with [ c ] -> [ c ] | _ -> []
    in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let _, (hi, ci) = arr.(i) and _, (hj, cj) = arr.(j) in
        let share_hard = List.exists (fun s -> List.mem s hj) hi in
        let share_const =
          List.exists (fun c -> List.mem c cj && not (List.mem c shared_allowed)) ci
        in
        if share_hard || share_const then union i j
      done
    done;
    (* Group query conjuncts by component. *)
    let comp_of i = find i in
    let q_indices = List.mapi (fun i _ -> i) qs in
    let q_comps = List.sort_uniq Stdlib.compare (List.map comp_of q_indices) in
    if List.length q_comps < 2 then None
    else begin
      let nq = List.length qs in
      let groups =
        List.map
          (fun comp ->
            let in_comp_q = ref [] and in_comp_kb = ref [] in
            Array.iteri
              (fun i (f, _) ->
                if comp_of i = comp then
                  if i < nq then in_comp_q := f :: !in_comp_q
                  else in_comp_kb := f :: !in_comp_kb)
              arr;
            (conj (List.rev !in_comp_q), conj (List.rev !in_comp_kb)))
          q_comps
      in
      (* KB conjuncts in components with no query conjunct are ignored:
         by Theorem 5.27 they multiply both numerator and denominator. *)
      Some groups
    end
  end

(* Trace emission helpers shared by the dispatch functions: [emit] is a
   no-op when tracing is off; [selected] stamps the "engine-selected"
   fact the trace consumers ({!Rw_trace.Trace.selected_engine}, the
   --explain renderer) treat as the dispatch verdict. Nested dispatches
   (the independence split) each stamp their own; chronological order
   makes the outermost stamp last, which is the one [selected_engine]
   reports. *)
let emit trace tag fields =
  match trace with None -> () | Some tr -> Trace.fact tr tag fields

let selected trace reason (answer : Answer.t) =
  emit trace "engine-selected"
    [ ("engine", Trace.S answer.Answer.engine); ("reason", Trace.S reason) ];
  answer

module Compiled_kb = Rw_compile.Compiled_kb

(* The one KB input of every engine: the caller's artifact when it is
   structurally the KB being queried, a fresh compile otherwise.
   Digests are canonical (alpha/AC), so a digest-keyed cache can in
   principle hand back an artifact for a structurally different
   formula — which must be replaced, not consumed. *)
let artifact ~kb = function
  | Some c when Compiled_kb.matches c kb -> c
  | _ -> Compiled_kb.compile kb

(* Record one consumption (provenance): the use counter distinguishes
   an artifact's first answer from answers reusing its filled cells,
   and the trace fact makes that visible to [--explain]. The digest is
   only computed when a trace asks for it. *)
let consume trace c =
  let prior = Compiled_kb.use c in
  match trace with
  | None -> ()
  | Some tr ->
    let digest = Compiled_kb.digest c in
    Trace.fact tr "compiled-kb"
      [ ("digest", Trace.S (String.sub digest 0 (min 12 (String.length digest))));
        ("compile_ms", Trace.F (Compiled_kb.compile_ms c));
        ( "maxent_point",
          Trace.S (if prior > 0 then "reused" else "fresh-solve") )
      ]

(* The vocabulary the literal engines range over. The artifact's KB
   vocabulary merged with the query's is exactly
   [Vocab.of_formulas [kb; query]] (both sort-unique their symbol
   lists), so the KB is not re-scanned. *)
let world_vocab c query =
  Vocab.merge (Compiled_kb.vocab c) (Vocab.of_formula query)

let rec infer ?(options = default_options) ?pool ?compiled ?trace ~kb query =
  Trace.span trace "dispatch" @@ fun () ->
  let c = artifact ~kb compiled in
  consume trace c;
  let rules_answer = Rules_engine.infer ?trace c query in
  match rules_answer.Answer.result with
  | Answer.Point _ | Answer.No_limit _ | Answer.Inconsistent ->
    selected trace "syntactic theorem application was definitive" rules_answer
  | Answer.Within interval -> begin
    (* Try to refine the interval to a point with the maxent engine. *)
    match refine ~options ~trace c query with
    | Some a -> begin
      match Answer.point_value a with
      | Some v when Rw_prelude.Interval.mem ~eps:1e-6 v interval ->
        emit trace "refinement"
          [ ("outcome", Trace.S "sharpened");
            ("point", Trace.F v);
            ("interval", Trace.S (Fmt.str "%a" Rw_prelude.Interval.pp interval))
          ];
        selected trace
          "maxent point agrees with (and sharpens) the sound rules interval"
          { a with Answer.notes = a.Answer.notes @ rules_answer.Answer.notes }
      | _ ->
        emit trace "refinement"
          [ ("outcome", Trace.S "kept-interval");
            ("reason", Trace.S "maxent point outside the sound interval")
          ];
        selected trace "rules interval kept: refinement disagreed" rules_answer
    end
    | None ->
      selected trace "rules interval kept: maxent was not definitive"
        rules_answer
  end
  | Answer.Not_applicable _ -> begin
    match independence_split ~kb query with
    | Some groups when List.length groups > 1 -> begin
      emit trace "theorem"
        [ ("id", Trace.S "5.27");
          ("name", Trace.S "independent sub-vocabularies");
          ("parts", Trace.I (List.length groups))
        ];
      let sub_answers =
        List.map (fun (q, k) -> infer ~options ?pool ?trace ~kb:k q) groups
      in
      let values = List.map Answer.point_value sub_answers in
      if List.for_all Option.is_some values then begin
        let v =
          List.fold_left (fun acc o -> acc *. Option.get o) 1.0 values
        in
        selected trace "Theorem 5.27: product over independent parts"
          (Answer.make
             ~notes:
               ("Theorem 5.27 (independent sub-vocabularies): product of parts"
               :: List.concat_map (fun a -> a.Answer.notes) sub_answers)
             ~engine:"independence" (Answer.Point v))
      end
      else begin
        emit trace "note"
          [ ("text",
             Trace.S "independence split abandoned: a part had no point value")
          ];
        fallback ~options ~pool ~trace ~kb c query
      end
    end
    | _ -> fallback ~options ~pool ~trace ~kb c query
  end

and refine ~options ~trace c query =
  let a = Maxent_engine.estimate ?tols:options.tols ?trace c query in
  if Answer.definitive a then Some a else None

and fallback ~options ~pool ~trace ~kb c query =
  let a = Maxent_engine.estimate ?tols:options.tols ?trace c query in
  if Answer.definitive a then
    selected trace "maxent concentration was definitive" a
  else begin
    let a =
      try
        Unary_engine.estimate ?ns:options.unary_sizes ?trace c query
      with
      | Rw_pool.Budget.Expired as e -> raise e
      | _ -> Answer.make ~engine:"unary" (Answer.Not_applicable "engine error")
    in
    if Answer.definitive a then
      selected trace "exact unary counting was definitive" a
    else begin
      let vocab = world_vocab c query in
      (* A tighter guard than the raw engine's: the dispatcher is a
         default code path and must stay responsive; callers wanting
         heroic enumerations can invoke Enum_engine directly. When the
         world count blows past the guard, the Monte-Carlo engine
         takes over — same ratio over W_N(Φ), estimated instead of
         enumerated. *)
      match
        Enum_engine.estimate ~max_log10_worlds:6.5 ?ns:options.enum_sizes
          ?trace ~vocab ~kb query
      with
      | a when Answer.definitive a ->
        let a =
          if options.mc_cross_check then
            cross_check ~options ~trace ~vocab ~kb query a
          else a
        in
        selected trace "exhaustive enumeration over the (N, tau) grid" a
      | _ -> monte_carlo ~options ~pool ~trace c query None
      | exception Rw_model.Enum.Too_many_worlds m ->
        monte_carlo ~options ~pool ~trace c query (Some m)
    end
  end

and monte_carlo ~options ~pool ~trace c query blown =
  (match blown with
  | Some m ->
    emit trace "engine"
      [ ("engine", Trace.S "enum");
        ("outcome",
         Trace.S (Printf.sprintf "infeasible (10^%.0f worlds)" m))
      ]
  | None ->
    emit trace "engine"
      [ ("engine", Trace.S "enum"); ("outcome", Trace.S "not definitive") ]);
  let a =
    Mc_engine.estimate ~seed:options.mc_seed ?samples:options.mc_samples
      ?pool ?ns:options.mc_sizes ?ci_width:options.mc_ci_width
      ?tols:options.tols ?trace c query
  in
  let a =
    match blown with
    | Some m ->
      Answer.add_notes a
        [ Printf.sprintf "mc engaged: enumeration infeasible (10^%.0f worlds)" m ]
    | None -> a
  in
  selected trace "Monte-Carlo world sampling: the last-resort estimator" a

(* An exact enum point still gets an independent statistical check: a
   cheap sampling run at an overlapping (N, τ̄) whose 95% interval must
   contain the exact value. Disagreement is surfaced, not silently
   resolved — the exact count stays the verdict. *)
and cross_check ~options ~trace ~vocab ~kb query answer =
  let checked outcome ~exact ci =
    emit trace "cross-check"
      (( "outcome", Trace.S outcome )
      :: ( "exact", Trace.F exact )
      ::
      (match ci with
      | None -> []
      | Some ci ->
        [ ("ci_lo", Trace.F (Rw_prelude.Interval.lo ci));
          ("ci_hi", Trace.F (Rw_prelude.Interval.hi ci))
        ]))
  in
  match Answer.point_value answer with
  | None -> answer
  | Some _ ->
    let n = 4 and tol = Tolerance.uniform 0.2 in
    if Rw_model.Enum.log10_world_count vocab n > 5.0 then answer
    else begin
      match Enum_engine.pr_n ~vocab ~n ~tol ~kb query with
      | None | (exception Rw_model.Enum.Too_many_worlds _) -> answer
      | Some exact ->
        let config =
          {
            Rw_mc.Estimator.default_config with
            Rw_mc.Estimator.max_samples = 20_000;
            target_halfwidth = 0.05;
          }
        in
        (match
           Mc_engine.pr_n ~config ~seed:options.mc_seed ~vocab ~n ~tol ~kb query
         with
        | Rw_mc.Estimator.Estimate { ci; stats; _ }
          when Rw_prelude.Interval.mem ~eps:1e-9 exact ci ->
          checked "agrees" ~exact (Some ci);
          Answer.add_notes answer
            [
              Fmt.str
                "mc cross-check at N=%d: exact %.4f inside 95%% CI %a (%a)" n
                exact Rw_prelude.Interval.pp ci Rw_mc.Estimator.pp_stats stats;
            ]
        | Rw_mc.Estimator.Estimate { ci; stats; _ } ->
          checked "disagrees" ~exact (Some ci);
          Answer.add_notes answer
            [
              Fmt.str
                "mc cross-check DISAGREES at N=%d: exact %.4f outside 95%% CI \
                 %a (%a)"
                n exact Rw_prelude.Interval.pp ci Rw_mc.Estimator.pp_stats stats;
            ]
        | Rw_mc.Estimator.Starved stats ->
          checked "starved" ~exact None;
          Answer.add_notes answer
            [
              Fmt.str "mc cross-check starved at N=%d (%a)" n
                Rw_mc.Estimator.pp_stats stats;
            ])
    end

(** [degree_of_belief ~kb query] — the headline API:
    [Pr_∞(query | kb)] computed by the best applicable engine. Every
    call is credited to the winning engine in {!Instr}, which is what
    the query service's [stats] reply reports. [?compiled] is an
    artifact to reuse; without a matching one, the KB is compiled for
    this call. *)
let degree_of_belief ?options ?pool ?compiled ?trace ~kb query =
  let t0 = Rw_prelude.Clock.now () in
  let answer = infer ?options ?pool ?compiled ?trace ~kb query in
  Instr.record ~engine:answer.Answer.engine
    ~seconds:(Rw_prelude.Clock.now () -. t0);
  answer

(* ------------------------------------------------------------------ *)
(* Per-engine access — the differential tester compares the engines   *)
(* individually rather than through the dispatch above.               *)
(* ------------------------------------------------------------------ *)

type id = Rules | Maxent | Unary | Enum | Mc

let all_ids = [ Rules; Maxent; Unary; Enum; Mc ]

let id_name = function
  | Rules -> "rules"
  | Maxent -> "maxent"
  | Unary -> "unary"
  | Enum -> "enum"
  | Mc -> "mc"

let id_of_string = function
  | "rules" -> Some Rules
  | "maxent" -> Some Maxent
  | "unary" -> Some Unary
  | "enum" -> Some Enum
  | "mc" -> Some Mc
  | _ -> None

(* Cheap syntactic applicability — "this engine is expected to speak
   here", not "it will certainly reach a point". The oracle uses it to
   decide which engines to interrogate; [run] below stays total either
   way. *)
let applicable ?(options = default_options) eid ~kb query =
  let both = Syntax.And (kb, query) in
  match eid with
  | Rules -> true (* total: at worst Not_applicable *)
  | Maxent | Unary ->
    Syntax.is_unary_vocab both
    && (not (Syntax.mentions_equality both))
    && Syntax.is_closed kb && Syntax.is_closed query
  | Enum ->
    let vocab = Vocab.of_formulas [ kb; query ] in
    let ns = Option.value options.enum_sizes ~default:[ 3; 4; 5; 6 ] in
    Syntax.is_closed kb && Syntax.is_closed query
    && List.exists
         (fun n -> Rw_model.Enum.log10_world_count vocab n <= 6.5)
         ns
  | Mc -> Syntax.is_closed kb && Syntax.is_closed query

(* [run eid ~kb query] — one engine's raw answer, bypassing dispatch.
   Total: engines that raise on out-of-fragment input are caught and
   mapped to [Not_applicable], preserving the Answer contract. *)
let run ?(options = default_options) ?pool ?compiled ?trace eid ~kb query =
  let c = artifact ~kb compiled in
  consume trace c;
  let answer =
    match eid with
    | Rules -> Rules_engine.infer ?trace c query
    | Maxent -> Maxent_engine.estimate ?tols:options.tols ?trace c query
    | Unary -> (
      (* Only the fragment refusal is caught: [applicable] plus
         [Unsupported] cover every legitimate way the engine declines,
         so anything else (e.g. an interval-clamp [Invalid_argument])
         is an invariant break that must surface — the fuzzer's
         agreement oracle reports escaped exceptions as violations. *)
      try
        Unary_engine.estimate ?ns:options.unary_sizes ?tols:options.tols
          ?trace c query
      with Rw_unary.Profile.Unsupported why ->
        Answer.make ~engine:"unary" (Answer.Not_applicable why))
    | Enum -> (
      let vocab = world_vocab c query in
      try
        Enum_engine.estimate ~max_log10_worlds:6.5 ?ns:options.enum_sizes
          ?tols:options.tols ?trace ~vocab ~kb query
      with
      | Rw_model.Enum.Too_many_worlds m ->
        Answer.make ~engine:"enum"
          (Answer.Not_applicable
             (Printf.sprintf "enumeration infeasible (10^%.0f worlds)" m))
      | Invalid_argument why ->
        Answer.make ~engine:"enum" (Answer.Not_applicable why))
    | Mc -> (
      try
        Mc_engine.estimate ~seed:options.mc_seed ?samples:options.mc_samples
          ?pool ?ns:options.mc_sizes ?ci_width:options.mc_ci_width
          ?tols:options.tols ?trace c query
      with Invalid_argument why ->
        Answer.make ~engine:"mc" (Answer.Not_applicable why))
  in
  selected trace (Printf.sprintf "forced --engine %s" (id_name eid)) answer
