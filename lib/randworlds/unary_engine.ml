(** The exact unary engine: [Pr_N^τ̄] by multinomial aggregation over
    atom-count profiles, then the double limit along an (N, τ̄)
    schedule.

    Exact at each (N, τ̄) like the enumeration engine, but reaching
    domain sizes in the tens-to-hundreds, which makes the [N → ∞]
    trend actually visible. Fragment: unary predicates + constants,
    no equality. *)

open Rw_logic
open Rw_unary
module Trace = Rw_trace.Trace

let default_sizes = [ 20; 40; 60 ]

(* Does the KB state any conditional proportion? Their granularity is
   governed by the (unknown, ≤ N) reference-class size rather than N,
   so they need a stricter tolerance-resolution guard. *)
let rec formula_has_cond f =
  match f with
  | Syntax.True | Syntax.False | Syntax.Pred _ | Syntax.Eq _ -> false
  | Syntax.Not g | Syntax.Forall (_, g) | Syntax.Exists (_, g) ->
    formula_has_cond g
  | Syntax.And (g, h)
  | Syntax.Or (g, h)
  | Syntax.Implies (g, h)
  | Syntax.Iff (g, h) -> formula_has_cond g || formula_has_cond h
  | Syntax.Compare (p, _, q) -> prop_has_cond p || prop_has_cond q

and prop_has_cond = function
  | Syntax.Num _ -> false
  | Syntax.Prop (g, _) -> formula_has_cond g
  | Syntax.Cond _ -> true
  | Syntax.Add (p, q) | Syntax.Mul (p, q) -> prop_has_cond p || prop_has_cond q

(** [pr_n ~kb ~query ~n ~tol] — exact finite-[N] degree of belief. *)
let pr_n ~kb ~query ~n ~tol =
  let parts = Analysis.analyze ~extra_preds:(Syntax.unary_preds query) kb in
  Profile.pr_n parts ~query ~n ~tol

(** [series ~kb ~query ~ns ~tol] — [Pr_N] along domain sizes. *)
let series ~kb ~query ~ns ~tol =
  List.filter_map
    (fun n -> Option.map (fun v -> (n, v)) (pr_n ~kb ~query ~n ~tol))
    ns

(** [estimate ?ns ?tols ?trace compiled query] — the double limit over
    a grid, with Aitken extrapolation of the inner [N→∞] limit at each
    tolerance. The artifact's memoised stat-satisfying profile tables
    stand in for the full composition sweep at each (N, τ̄); results
    are bit-identical to the sweep.

    @raise Profile.Unsupported outside the unary fragment. *)
let estimate ?(ns = default_sizes) ?tols ?trace compiled query =
  Trace.span trace "unary" @@ fun () ->
  let emit tag fields =
    match trace with None -> () | Some tr -> Trace.fact tr tag fields
  in
  let declined why =
    emit "note" [ ("declined", Trace.S why) ];
    Answer.make ~engine:"unary" (Answer.Not_applicable why)
  in
  let kb = Rw_compile.Compiled_kb.kb compiled in
  let own = Rw_compile.Compiled_kb.analysis compiled in
  let parts = Analysis.widen own (Syntax.unary_preds query) in
  if not (Analysis.fully_supported parts) then
    declined "KB outside the unary fragment"
  else begin
    let tols =
      match tols with
      | Some ts -> ts
      | None -> Tolerance.schedule ~steps:3 (Tolerance.uniform 0.1)
    in
    (* Keep the computation feasible: shrink N list if the profile
       space is too large. *)
    let ns =
      List.filter (fun n -> Profile.cost_estimate parts ~n < 5e6) ns
    in
    if ns = [] then declined "atom space too large for exact counting"
    else begin
      (* A tolerance finer than the size grid resolves is meaningless:
         once the width-2τ window drops below the 1/N spacing of
         representable proportions, only vacuous-denominator worlds
         satisfy the statistic and Pr_N degenerates to granularity
         noise. Conditional proportions are spaced by the reference
         class's size — unknown, but at most N — so they get twice the
         threshold. Keep the tolerance steps the largest size can
         resolve (a statistic-free KB has no tolerance indices and
         keeps them all — its Pr_N does not depend on τ̄ anyway). *)
      let max_n = List.fold_left max 1 ns in
      let tau_floor =
        if formula_has_cond kb then 1.0 /. float_of_int max_n
        else 1.0 /. (2.0 *. float_of_int max_n)
      in
      let resolvable tol =
        List.for_all
          (fun i -> Tolerance.get tol i >= tau_floor)
          (Syntax.tolerance_indices kb)
      in
      List.iter
        (fun tol ->
          if not (resolvable tol) then
            emit "tolerance-dropped"
              [ ("tol", Trace.S (Fmt.str "%a" Tolerance.pp tol));
                ("reason", Trace.S "below the 1/N resolution of the size grid")
              ])
        tols;
      let tols = List.filter resolvable tols in
      emit "grid"
        [ ("sizes", Trace.S (String.concat "," (List.map string_of_int ns)));
          ("tau_floor", Trace.F tau_floor);
          ("tolerance_steps", Trace.I (List.length tols))
        ];
      if tols = [] then
        declined
          "every tolerance step is below the resolution of the feasible \
           domain sizes"
      else begin
      (* Aitken extrapolation is only trustworthy when the series
         actually contracts geometrically: with step ratio r = d2/d1,
         the extrapolated jump beyond the last value is |d2|·r/(1−r),
         which the 1/(1−r) factor blows up without bound as r → 1.
         At fuzzing-scale grids this produced confident Points on the
         wrong side of the limit (a series decreasing towards 0.5 was
         "extrapolated" to 0.41). So each inner limit is an interval:
         a degenerate one when the ratio certifies contraction, a
         bracket in the direction of travel when it does not — r ≤ 0.9
         still bounds the remaining distance by 9·|d2|. *)
      let flat = 1e-9 in
      let bracket x2 d2 =
        let far = x2 +. (9.0 *. d2) in
        ( Rw_prelude.Floats.clamp01 (Float.min x2 far),
          Rw_prelude.Floats.clamp01 (Float.max x2 far) )
      in
      (* The memoised tables count the KB's own atoms, so a query
         naming a predicate the KB lacks counts directly. *)
      let pr ~n ~tol =
        let table =
          if parts == own then Rw_compile.Compiled_kb.profile_table compiled ~n ~tol
          else None
        in
        Profile.pr_n ?table parts ~query ~n ~tol
      in
      let inner_limit tol =
        let vals =
          List.filter_map
            (fun n ->
              match pr ~n ~tol with
              | Some v -> Some (n, v)
              | None -> None)
            ns
        in
        match vals with
        | [] -> None
        | [ (n, v) ] ->
          (* One usable size says nothing about the trend, and the
             finite-size bias (constant coincidences, granularity) is
             O(1/N): all we can honestly claim is a ±1/n bracket. *)
          let pad = 1.0 /. float_of_int n in
          Some
            ( "single-size",
              ( Rw_prelude.Floats.clamp01 (v -. pad),
                Rw_prelude.Floats.clamp01 (v +. pad) ) )
        | vals ->
          let vs = List.map snd vals in
          let k = List.length vs in
          let x2 = List.nth vs (k - 1) and x1 = List.nth vs (k - 2) in
          let d2 = x2 -. x1 in
          if Float.abs d2 <= flat then Some ("flat", (x2, x2))
          else if k = 2 then Some ("bracket", bracket x2 d2)
          else begin
            let x0 = List.nth vs (k - 3) in
            let d1 = x1 -. x0 in
            (* A non-directional (oscillating, or step-growing) tail on
               an exact, mathematically convergent Pr_N series is
               tolerance-granularity noise, not a convergence trend:
               bound the limit by the hull of the last two values,
               padded by one step plus the O(1/N) finite-size bias
               floor — the step alone understates badly when the
               series has barely started moving at these sizes. *)
            let noise () =
              let pad = Float.abs d2 +. (1.0 /. float_of_int max_n) in
              Some
                ( "noise-hull",
                  ( Rw_prelude.Floats.clamp01 (Float.min x1 x2 -. pad),
                    Rw_prelude.Floats.clamp01 (Float.max x1 x2 +. pad) ) )
            in
            if Float.abs d1 <= flat then noise ()
            else begin
              let r = d2 /. d1 in
              if r > 0.0 && r <= 0.75 then begin
                (* Certified contraction; the limit of probabilities is
                   still a probability, so keep the value in [0,1]. *)
                let v = Rw_prelude.Floats.clamp01 (Limits.richardson vs) in
                Some ("richardson", (v, v))
              end
              else if r > 0.0 && r < 1.0 then
                (* Genuinely slow monotone decay. *)
                Some ("bracket", bracket x2 d2)
              else noise ()
            end
          end
      in
      let per_tol =
        List.filter_map
          (fun tol ->
            match inner_limit tol with
            | Some (meth, (lo, hi)) ->
              emit "tolerance"
                [ ("tol", Trace.S (Fmt.str "%a" Tolerance.pp tol));
                  ("method", Trace.S meth);
                  ("lo", Trace.F lo);
                  ("hi", Trace.F hi)
                ];
              Some (tol, (lo, hi))
            | None -> None)
          tols
      in
      match per_tol with
      | [] -> Answer.make ~engine:"unary" Answer.Inconsistent
      | _ ->
        let point_like (lo, hi) = hi -. lo <= 1e-9 in
        let notes =
          List.map
            (fun (tol, (lo, hi)) ->
              if point_like (lo, hi) then Fmt.str "%a -> %.6f" Tolerance.pp tol lo
              else Fmt.str "%a -> [%.6f, %.6f]" Tolerance.pp tol lo hi)
            per_tol
        in
        if List.for_all (fun (_, iv) -> point_like iv) per_tol then begin
          let values = List.map (fun (_, (lo, _)) -> lo) per_tol in
          match Limits.detect ~atol:0.02 values with
          | Limits.Converged v ->
            emit "limit"
              [ ("verdict", Trace.S "converged"); ("value", Trace.F v) ];
            Answer.make ~notes ~engine:"unary"
              (Answer.Point (Rw_prelude.Floats.clamp01 v))
          | Limits.Oscillating (a, b) ->
            emit "limit"
              [ ("verdict", Trace.S "oscillating");
                ("lo", Trace.F a);
                ("hi", Trace.F b)
              ];
            Answer.make ~notes ~engine:"unary"
              (Answer.No_limit (Fmt.str "oscillates between %.4f and %.4f" a b))
          | Limits.Insufficient ->
            let last = List.nth values (List.length values - 1) in
            emit "limit"
              [ ("verdict", Trace.S "insufficient"); ("last", Trace.F last) ];
            Answer.make ~notes ~engine:"unary"
              (Answer.Within
                 (Rw_prelude.Interval.clamp01
                    (Rw_prelude.Interval.widen (Rw_prelude.Interval.point last) 0.05)))
        end
        else begin
          (* Mixed evidence: some tolerance steps certified a
             contraction and extrapolated to a point, others only
             bracketed. A certified extrapolation is the sharpest
             estimate available — when every certified point agrees
             and every bracket corroborates it, report the point;
             otherwise fall back to the honest hull of everything. *)
          let points =
            List.filter_map
              (fun (_, ((lo, _) as iv)) -> if point_like iv then Some lo else None)
              per_tol
          in
          let hull () =
            let lo =
              List.fold_left (fun acc (_, (l, _)) -> Float.min acc l) 1.0 per_tol
            and hi =
              List.fold_left (fun acc (_, (_, h)) -> Float.max acc h) 0.0 per_tol
            in
            emit "limit"
              [ ("verdict", Trace.S "hull");
                ("lo", Trace.F lo);
                ("hi", Trace.F hi)
              ];
            Answer.make ~notes ~engine:"unary"
              (Answer.Within
                 (Rw_prelude.Interval.clamp01 (Rw_prelude.Interval.make lo hi)))
          in
          match points with
          | [] -> hull ()
          | _ ->
            let v =
              List.fold_left ( +. ) 0.0 points /. float_of_int (List.length points)
            in
            let agree =
              List.for_all (fun p -> Float.abs (p -. v) <= 0.02) points
              && List.for_all
                   (fun (_, (lo, hi)) -> lo -. 0.02 <= v && v <= hi +. 0.02)
                   per_tol
            in
            if agree then begin
              emit "limit"
                [ ("verdict", Trace.S "certified-points-agree");
                  ("value", Trace.F v)
                ];
              Answer.make ~notes ~engine:"unary"
                (Answer.Point (Rw_prelude.Floats.clamp01 v))
            end
            else hull ()
        end
      end
    end
  end
