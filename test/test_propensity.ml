(* Tests for the random-propensities prior (Section 7.3): it learns
   from observed individuals (rule of succession) where random worlds
   does not, and it over-learns from universal assertions — both sides
   of the paper's discussion. *)

open Rw_logic
open Rw_unary

let parse s =
  match Parser.formula s with
  | Ok f -> f
  | Error msg -> Alcotest.failf "parse %S failed: %s" s msg

let observed_fliers m =
  parse (String.concat " /\\ " (List.init m (fun i -> Printf.sprintf "Fly(C%d)" i)))

let test_beta_weight () =
  (* B(k+1, n−k+1) = k!(n−k)!/(n+1)!; sum over k of C(n,k)·B = 1
     (counts are uniform a priori). *)
  let n = 10 in
  let total =
    List.fold_left
      (fun acc k ->
        acc
        +. Float.exp
             (Rw_prelude.Logspace.log_binomial n k +. Propensity.log_beta_weight ~n k))
      0.0
      (List.init (n + 1) Fun.id)
  in
  Alcotest.(check (float 1e-9)) "counts uniform: total mass 1" 1.0 total;
  (* And each count is equally likely: C(n,k)·B(k+1,n−k+1) = 1/(n+1). *)
  List.iter
    (fun k ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "count %d has mass 1/(n+1)" k)
        (1.0 /. float_of_int (n + 1))
        (Float.exp
           (Rw_prelude.Logspace.log_binomial n k +. Propensity.log_beta_weight ~n k)))
    [ 0; 3; 10 ]

let test_rule_of_succession () =
  (* After observing m fliers, Pr(Fly(new)) ≈ (m+1)/(m+2). *)
  List.iter
    (fun m ->
      let kb = observed_fliers m in
      match Propensity.estimate ~ns:[ 20; 30; 40 ] ~kb (parse "Fly(Cnew)") with
      | Some v ->
        Alcotest.(check (float 0.02))
          (Printf.sprintf "Laplace with m=%d" m)
          (float_of_int (m + 1) /. float_of_int (m + 2))
          v
      | None -> Alcotest.fail "no value")
    [ 1; 3; 8 ]

let test_random_worlds_does_not_learn () =
  (* The same KB under the uniform prior: Pr_N carries a finite-size
     bias of order 1/N (the named individuals' placement weight), but
     the limit is 1/2 — observations about other individuals are
     ignored (Section 7.3's negative result). The propensity value at
     the same sizes stays near 0.9. *)
  let kb = observed_fliers 8 in
  let parts = Analysis.analyze kb in
  let at n =
    match
      Profile.pr_n parts ~query:(parse "Fly(Cnew)") ~n ~tol:(Tolerance.uniform 0.05)
    with
    | Some v -> v
    | None -> Alcotest.fail "no value"
  in
  let p20 = at 20 and p40 = at 40 and p80 = at 80 in
  Alcotest.(check bool) "decreasing towards 1/2" true (p20 > p40 && p40 > p80);
  Alcotest.(check bool) "already close at N=80" true (Float.abs (p80 -. 0.5) < 0.06);
  (* Linear-in-1/N extrapolation lands at 1/2. *)
  let intercept, _, _ =
    Randworlds.Limits.linear_intercept
      [ 1.0 /. 20.0; 1.0 /. 40.0; 1.0 /. 80.0 ]
      [ p20; p40; p80 ]
  in
  Alcotest.(check (float 0.03)) "limit 1/2" 0.5 intercept

let test_learns_from_negative_evidence () =
  (* Observing non-fliers pushes the belief down symmetrically. *)
  let kb = parse "~Fly(C0) /\\ ~Fly(C1) /\\ ~Fly(C2)" in
  match Propensity.estimate ~ns:[ 20; 30; 40 ] ~kb (parse "Fly(Cnew)") with
  | Some v -> Alcotest.(check (float 0.02)) "1/(m+2) = 0.2" 0.2 v
  | None -> Alcotest.fail "no value"

let test_learns_too_often () =
  (* The pathology: a bare universal "all giraffes are tall" already
     inflates the belief that an arbitrary individual is tall well
     beyond the random-worlds answer (2/3 here). *)
  let kb = parse "forall x (Giraffe(x) => Tall(x))" in
  (match Propensity.estimate ~ns:[ 20; 30; 40 ] ~kb (parse "Tall(C)") with
  | Some v -> Alcotest.(check bool) "over-learns (> 0.75)" true (v > 0.75)
  | None -> Alcotest.fail "no value");
  (* Random worlds: three allowed atoms, uniform → 2/3. *)
  match
    Randworlds.Answer.point_value
      (Randworlds.Maxent_engine.estimate
         (Rw_compile.Compiled_kb.compile kb)
         (parse "Tall(C)"))
  with
  | Some v -> Alcotest.(check (float 0.01)) "random worlds stays at 2/3" (2.0 /. 3.0) v
  | None -> Alcotest.fail "no maxent value"

let test_series_monotone_in_m () =
  (* More positive observations, higher belief. *)
  let belief m =
    match Propensity.estimate ~ns:[ 20; 30 ] ~kb:(observed_fliers m) (parse "Fly(Cnew)") with
    | Some v -> v
    | None -> Alcotest.fail "no value"
  in
  Alcotest.(check bool) "monotone" true (belief 1 < belief 3 && belief 3 < belief 8)

let suite =
  [
    ("beta_weight_uniform_counts", `Quick, test_beta_weight);
    ("rule_of_succession", `Slow, test_rule_of_succession);
    ("random_worlds_does_not_learn", `Quick, test_random_worlds_does_not_learn);
    ("negative_evidence", `Slow, test_learns_from_negative_evidence);
    ("learns_too_often", `Slow, test_learns_too_often);
    ("monotone_in_observations", `Slow, test_series_monotone_in_m);
  ]
