(** The Monte-Carlo engine: [Pr_N^τ̄(φ | KB)] by uniform world
    sampling ({!Rw_mc}), the sixth engine.

    Same definition as the literal engine — a ratio over [W_N(Φ)] —
    but estimated instead of enumerated, so it reaches domain sizes
    orders of magnitude beyond [max_log10_worlds] on any vocabulary.
    Every answer carries its evidence (samples, KB hit rate, effective
    sample size, seed, wall time) in its notes, and its result is the
    95% confidence interval, never a bare point. No stop reads a clock:
    the sample budget is clamped by a work cap that shrinks as worlds
    grow ({!Rw_mc.Estimator.estimate}), so an answer depends only on
    its inputs and seed, never on load. *)

open Rw_logic
open Rw_prelude

let default_seed = 1

(** [pr_n ?config ?pool ?tilt_solve ?seed ~vocab ~n ~tol ~kb query] —
    one Monte-Carlo estimate at a single [(N, τ̄)], exposed for benches
    and tests. *)
let pr_n ?config ?pool ?tilt_solve ?(seed = default_seed) ~vocab ~n ~tol ~kb
    query =
  Rw_mc.Estimator.estimate ?config ?pool ?tilt_solve ~seed ~vocab ~n ~tol ~kb
    query

let config ~samples ~ci_width =
  {
    Rw_mc.Estimator.default_config with
    Rw_mc.Estimator.max_samples =
      Option.value samples
        ~default:Rw_mc.Estimator.default_config.Rw_mc.Estimator.max_samples;
    target_halfwidth =
      Option.value ci_width
        ~default:
          Rw_mc.Estimator.default_config.Rw_mc.Estimator.target_halfwidth;
  }

let note_of ~tol ~outcome =
  Fmt.str "mc %a: %a" Tolerance.pp tol Rw_mc.Estimator.pp_outcome outcome

(** [estimate ?seed ?samples ?ci_width ?ns ?tols compiled query]
    estimates the double limit from an [(N, τ̄)] grid, like the enum
    engine but by sampling. For each tolerance in the shrinking
    schedule, sample at the largest domain size whose rejection rate
    is survivable — stepping down in [N] on starvation, since sharper
    constraints concentrate the KB-worlds into an exponentially
    thinner slice as [N] grows (only unary KBs get the stratified
    rescue). The answer is the confidence interval at the smallest
    tolerance that produced an estimate; the evidence for every grid
    point attempted, including starved ones, is in the notes. *)
let estimate ?(seed = default_seed) ?samples ?ci_width ?pool
    ?(ns = [ 8; 16; 32 ]) ?tols ?trace compiled query =
  Rw_trace.Trace.span trace "mc" @@ fun () ->
  let tols =
    match tols with
    | Some ts -> ts
    | None -> Tolerance.schedule ~steps:2 (Tolerance.uniform 0.2)
  in
  let ns_desc = List.sort_uniq (fun a b -> Stdlib.compare b a) ns in
  let cfg = config ~samples ~ci_width in
  let kb = Rw_compile.Compiled_kb.kb compiled in
  let vocab =
    Vocab.merge (Rw_compile.Compiled_kb.vocab compiled) (Vocab.of_formula query)
  in
  (* The artifact supplies the memoised maxent point behind the
     stratified rescue's importance tilt (the tilt is a function of the
     KB and tolerance only), lifted to the vocabulary's universe. *)
  let tilt_solve u tol =
    Rw_unary.Solver.lift (Rw_compile.Compiled_kb.solve compiled tol) u
  in
  (* Split one master generator per grid point so points are
     independent but jointly reproducible from the one seed. *)
  let master = Rw_mc.Prng.create seed in
  let grid pool =
    List.map
      (fun tol ->
        let rec descend = function
          | [] -> []
          | n :: rest ->
            let seed = Int64.to_int (Rw_mc.Prng.bits64 master) land 0x3FFFFFFF in
            let o =
              pr_n ~config:cfg ?pool ~tilt_solve ~seed ~vocab ~n ~tol ~kb query
            in
            let attempt = (tol, o) in
            (match o with
            | Rw_mc.Estimator.Estimate _ -> [ attempt ]
            | Rw_mc.Estimator.Starved _ -> attempt :: descend rest)
        in
        descend ns_desc)
      tols
  in
  let outcomes =
    (* Chunk seeding makes the answer jobs-invariant, so the pool is
       pure mechanism. Under a parallel batch this engine is already
       inside a pool task; nested fan-out is refused, so run the grid
       sequentially there. *)
    grid (if Rw_pool.Pool.on_worker () then None else pool)
  in
  let outcomes = List.concat outcomes in
  (* Trace facts are emitted here, after the (deterministic, chunk-order)
     merge, so the trace is jobs-invariant. Wall-clock seconds are
     deliberately excluded from the facts for the same reason. *)
  (match trace with
  | None -> ()
  | Some tr ->
    List.iter
      (fun (tol, o) ->
        let stats_fields (s : Rw_mc.Estimator.stats) =
          [ ("tol", Rw_trace.Trace.S (Fmt.str "%a" Tolerance.pp tol));
            ("n", Rw_trace.Trace.I s.Rw_mc.Estimator.n);
            ("seed", Rw_trace.Trace.I s.Rw_mc.Estimator.seed);
            ("samples", Rw_trace.Trace.I s.Rw_mc.Estimator.samples);
            ("kb_hits", Rw_trace.Trace.I s.Rw_mc.Estimator.kb_hits);
            ("stratified", Rw_trace.Trace.B s.Rw_mc.Estimator.stratified)
          ]
        in
        match o with
        | Rw_mc.Estimator.Estimate { mean; ci; stats } ->
          Rw_trace.Trace.fact tr "mc-point"
            (stats_fields stats
            @ [ ("mean", Rw_trace.Trace.F mean);
                ("ci_lo", Rw_trace.Trace.F (Interval.lo ci));
                ("ci_hi", Rw_trace.Trace.F (Interval.hi ci))
              ])
        | Rw_mc.Estimator.Starved stats ->
          Rw_trace.Trace.fact tr "mc-point"
            (stats_fields stats @ [ ("starved", Rw_trace.Trace.B true) ]))
      outcomes);
  let notes = List.map (fun (tol, o) -> note_of ~tol ~outcome:o) outcomes in
  let estimates =
    List.filter_map
      (fun (_, o) ->
        match o with
        | Rw_mc.Estimator.Estimate { ci; stats; _ } ->
          Some (ci, stats.Rw_mc.Estimator.n)
        | Rw_mc.Estimator.Starved _ -> None)
      outcomes
  in
  let emit tag fields =
    match trace with
    | None -> ()
    | Some tr -> Rw_trace.Trace.fact tr tag fields
  in
  match List.rev estimates with
  | (ci, n) :: _ ->
    (* The grid's answer is a single finite-N confidence interval, but
       it is reported as an estimate of the N → ∞ limit. At size [N]
       proportions only exist in multiples of 1/N, so the conditioned
       world-set is distorted by up to that resolution (near-degenerate
       statistics are the worst case: whole profile ranges fall outside
       the tolerance band and the conditional shifts by O(1/N)). An
       honest interval for the limit carries that finite-size slack on
       top of the sampling error; the raw CI stays in the notes. *)
    let slack = 1.0 /. float_of_int n in
    let reported = Interval.clamp01 (Interval.widen ci slack) in
    emit "limit"
      [ ("verdict", Rw_trace.Trace.S "ci-at-smallest-tolerance");
        ("n", Rw_trace.Trace.I n);
        ("finite_size_slack", Rw_trace.Trace.F slack);
        ("ci_lo", Rw_trace.Trace.F (Interval.lo reported));
        ("ci_hi", Rw_trace.Trace.F (Interval.hi reported))
      ];
    Answer.make
      ~notes:
        (notes
        @ [ Fmt.str
              "mc: interval widened by 1/N = %g finite-size slack (sampled at \
               N=%d; the limit answer inherits the proportion resolution)"
              slack n
          ])
      ~engine:"mc" (Answer.Within reported)
  | [] ->
    (* Rejection starved on every tolerance: report honestly with a
       widened (vacuous) interval rather than guessing or hanging. *)
    emit "limit" [ ("verdict", Rw_trace.Trace.S "starved-vacuous") ];
    Answer.make
      ~notes:(notes @ [ "mc: no KB hits within budget; interval widened to [0,1]" ])
      ~engine:"mc" (Answer.Within Interval.vacuous)
