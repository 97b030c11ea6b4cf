(** The random-propensities prior (Section 7.3, after [BGHK92]).

    Random worlds cannot learn from samples: observing that 90% of
    sampled birds fly says nothing about unsampled birds, because
    elements acquire their properties independently under the uniform
    prior. The random-propensities variant fixes this by giving each
    unary predicate [P] a latent propensity [θ_P ~ Uniform[0,1]];
    conditional on the propensities, elements are i.i.d. Bernoulli.
    Integrating the propensities out, a world with [n_P] positive
    elements per predicate has probability

    [ Π_P B(n_P + 1, N − n_P + 1) = Π_P n_P!(N−n_P)!/(N+1)! ]

    — i.e. each predicate's count is uniform a priori (Laplace), and
    observations genuinely update beliefs about other individuals
    (the rule of succession). The paper also records this prior's
    pathology: it learns "too often", even from universal assertions
    that carry no sampling information; the tests and benchmark
    reproduce both sides.

    Implemented as a {!Profile.pr_n} prior hook, so the engine shares
    the exact counting machinery and the full unary KB fragment. *)

open Rw_prelude
open Rw_logic

(* log B(k+1, n−k+1) = log k! + log (n−k)! − log (n+1)! *)
let log_beta_weight ~n k =
  Logspace.log_factorial k
  +. Logspace.log_factorial (n - k)
  -. Logspace.log_factorial (n + 1)

(** [log_prior universe ~n counts] — the propensity re-weighting of an
    atom-count profile: one Beta factor per predicate, on top of the
    multinomial the profile engine already applies. *)
let log_prior universe ~n counts =
  let preds = Atoms.predicates universe in
  List.fold_left
    (fun acc p ->
      let k = ref 0 in
      Array.iteri
        (fun atom c -> if Atoms.atom_satisfies universe atom p then k := !k + c)
        counts;
      acc +. log_beta_weight ~n !k)
    0.0 preds

(** [pr_n parts ~query ~n ~tol] — the finite-[N] degree of belief under
    the random-propensities prior (same fragment as {!Profile.pr_n}). *)
let pr_n (parts : Analysis.parts) ~query ~n ~tol =
  let u = parts.Analysis.universe in
  Profile.pr_n ~log_prior:(log_prior u ~n) parts ~query ~n ~tol

(** [series ?ns ?tol ~kb query] — the finite-[N] values along a size
    schedule (sizes with no KB-worlds are skipped). The propensity
    prior needs no tolerance limit of its own; [tol] covers any
    approximate conjuncts in the KB. *)
let series ?(ns = [ 16; 24; 32 ]) ?(tol = Tolerance.uniform 0.05) ~kb query =
  let parts = Analysis.analyze ~extra_preds:(Syntax.unary_preds query) kb in
  List.filter_map
    (fun n ->
      match pr_n parts ~query ~n ~tol with Some v -> Some (n, v) | None -> None)
    ns

(** [estimate ?ns ?tol ~kb query] — extrapolate the [N → ∞] trend by
    Aitken Δ² over the series; [None] when no size has KB-worlds. *)
let estimate ?ns ?tol ~kb query =
  match List.map snd (series ?ns ?tol ~kb query) with
  | [] -> None
  | [ v ] -> Some v
  | v0 :: _ as vs -> begin
    match List.rev vs with
    | x2 :: x1 :: x0 :: _ ->
      let d1 = x1 -. x0 and d2 = x2 -. x1 in
      let denom = d2 -. d1 in
      if Float.abs denom < 1e-12 then Some x2
      else Some (Floats.clamp01 (x0 -. ((d1 *. d1) /. denom)))
    | [ x; _ ] | [ x ] -> Some x
    | [] -> Some v0
  end
