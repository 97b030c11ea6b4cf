(* Tests for rw_numeric: vector ops and constrained entropy
   maximisation. *)

open Rw_numeric

let check_float = Alcotest.(check (float 1e-9))
let check_loose = Alcotest.(check (float 1e-5))

let test_vec_basic () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 4.0; 5.0; 6.0 |] in
  check_float "dot" 32.0 (Vec.dot a b);
  check_float "sum" 6.0 (Vec.sum a);
  check_float "norm_inf" 3.0 (Vec.norm_inf a);
  check_float "norm2" (Float.sqrt 14.0) (Vec.norm2 a);
  Alcotest.(check (array (float 1e-12))) "add" [| 5.0; 7.0; 9.0 |] (Vec.add a b);
  Alcotest.(check (array (float 1e-12))) "sub" [| 3.0; 3.0; 3.0 |] (Vec.sub b a);
  Alcotest.(check (array (float 1e-12))) "scale" [| 2.0; 4.0; 6.0 |] (Vec.scale 2.0 a);
  Alcotest.(check (array (float 1e-12))) "axpy" [| 6.0; 9.0; 12.0 |] (Vec.axpy 2.0 a b);
  check_float "linf_dist" 3.0 (Vec.linf_dist a b)

let test_vec_errors () =
  Alcotest.check_raises "dot mismatch" (Invalid_argument "Vec.dot: dimension mismatch")
    (fun () -> ignore (Vec.dot [| 1.0 |] [| 1.0; 2.0 |]));
  Alcotest.check_raises "map2 mismatch" (Invalid_argument "Vec.map2: dimension mismatch")
    (fun () -> ignore (Vec.add [| 1.0 |] [| 1.0; 2.0 |]))

let test_entropy () =
  check_float "uniform over 4" (Float.log 4.0) (Vec.entropy [| 0.25; 0.25; 0.25; 0.25 |]);
  check_float "point mass" 0.0 (Vec.entropy [| 1.0; 0.0 |]);
  check_float "binary" (-.(0.3 *. Float.log 0.3) -. (0.7 *. Float.log 0.7))
    (Vec.entropy [| 0.3; 0.7 |])

(* ------------------------------------------------------------------ *)
(* Entropy optimisation                                               *)
(* ------------------------------------------------------------------ *)

let test_maxent_unconstrained () =
  (* With no constraints the maximum-entropy point is uniform. *)
  let r = Entropy_opt.solve ~dim:4 [] in
  Array.iter (fun x -> check_loose "uniform" 0.25 x) r.point;
  check_loose "entropy" (Float.log 4.0) r.entropy

let test_maxent_equality () =
  (* Fix p0 = 0.5 over 3 atoms: remaining mass splits evenly. *)
  let c = Entropy_opt.Eq ([| 1.0; 0.0; 0.0 |], 0.5) in
  let r = Entropy_opt.solve ~dim:3 [ c ] in
  check_loose "pinned" 0.5 r.point.(0);
  check_loose "rest even 1" 0.25 r.point.(1);
  check_loose "rest even 2" 0.25 r.point.(2);
  Alcotest.(check bool) "feasible" true (r.max_violation < 1e-7)

let test_maxent_inequality_inactive () =
  (* p0 <= 0.9 does not bind: solution stays uniform. *)
  let c = Entropy_opt.Le ([| 1.0; 0.0 |], 0.9) in
  let r = Entropy_opt.solve ~dim:2 [ c ] in
  check_loose "uniform 0" 0.5 r.point.(0);
  check_loose "uniform 1" 0.5 r.point.(1)

let test_maxent_inequality_active () =
  (* p0 <= 0.2 binds: p = (0.2, 0.8) over two atoms. *)
  let c = Entropy_opt.Le ([| 1.0; 0.0 |], 0.2) in
  let r = Entropy_opt.solve ~dim:2 [ c ] in
  check_loose "bound hit" 0.2 r.point.(0);
  check_loose "complement" 0.8 r.point.(1)

let test_maxent_section6_example () =
  (* The worked example of Section 6: atoms A1..A4 over P1, P2 with
     KB = forall x P1(x)  /\  ||P1 & P2||_x <= 0.3.
     Constraints: p3 = p4 = 0, p1 <= 0.3. Maxent point (0.3, 0.7, 0, 0). *)
  let cs =
    [
      Entropy_opt.Eq ([| 0.0; 0.0; 1.0; 0.0 |], 0.0);
      Entropy_opt.Eq ([| 0.0; 0.0; 0.0; 1.0 |], 0.0);
      Entropy_opt.Le ([| 1.0; 0.0; 0.0; 0.0 |], 0.3);
    ]
  in
  let r = Entropy_opt.solve ~dim:4 cs in
  check_loose "p1" 0.3 r.point.(0);
  check_loose "p2" 0.7 r.point.(1);
  check_loose "p3" 0.0 r.point.(2);
  check_loose "p4" 0.0 r.point.(3)

let test_maxent_conditional_constraint () =
  (* ||P2 | P1|| = 0.8 with ||P1|| = 0.5:
     atoms (P1&P2, P1&~P2, ~P1&P2, ~P1&~P2);
     p1 + p2 = 0.5 and p1 = 0.8 * 0.5 = 0.4 via linearised conditional
     p1 - 0.8 (p1 + p2) = 0. Remaining mass splits evenly. *)
  let cs =
    [
      Entropy_opt.Eq ([| 1.0; 1.0; 0.0; 0.0 |], 0.5);
      Entropy_opt.Eq ([| 1.0 -. 0.8; -0.8; 0.0; 0.0 |], 0.0);
    ]
  in
  let r = Entropy_opt.solve ~dim:4 cs in
  check_loose "p1" 0.4 r.point.(0);
  check_loose "p2" 0.1 r.point.(1);
  check_loose "p3" 0.25 r.point.(2);
  check_loose "p4" 0.25 r.point.(3)

let test_maxent_infeasible () =
  let cs =
    [ Entropy_opt.Eq ([| 1.0; 0.0 |], 0.9); Entropy_opt.Eq ([| 1.0; 0.0 |], 0.1) ]
  in
  Alcotest.(check bool) "solve_feasible raises" true
    (try
       ignore (Entropy_opt.solve_feasible ~dim:2 cs);
       false
     with Failure _ -> true)

let test_violation_reporting () =
  let c = Entropy_opt.Eq ([| 1.0; 0.0 |], 0.75) in
  check_float "eq violation" 0.25 (Entropy_opt.violation c [| 0.5; 0.5 |]);
  let c2 = Entropy_opt.Le ([| 1.0; 0.0 |], 0.25) in
  check_float "le violation" 0.25 (Entropy_opt.violation c2 [| 0.5; 0.5 |]);
  check_float "le satisfied" 0.0 (Entropy_opt.violation c2 [| 0.1; 0.9 |])

(* The constraint system of examples/kb/taxonomy.kb at every tolerance
   of the compile schedule: 10 priced rows over 40 live atoms, which a
   first-order dual used to leave at its 20 000-iteration cap. Newton
   must reach machine-precision feasibility and complementary slackness
   in a few dozen steps. *)
let test_maxent_taxonomy_schedule () =
  let open Rw_logic in
  let path =
    List.find Sys.file_exists
      [ "../examples/kb/taxonomy.kb"; "examples/kb/taxonomy.kb" ]
  in
  let kb =
    match Kb_file.load path with
    | Ok kb -> kb
    | Error _ -> Alcotest.fail "taxonomy.kb failed to load"
  in
  let parts = Rw_unary.Analysis.analyze kb in
  let dim = Atoms.num_atoms parts.Rw_unary.Analysis.universe in
  List.iter
    (fun tol ->
      let cs = Rw_unary.Constraints.of_parts parts tol in
      let r = Entropy_opt.solve ~dim cs in
      let label = Printf.sprintf "τ=%g" tol.Tolerance.scale in
      Alcotest.(check bool)
        (label ^ " violation <= 1e-12") true (r.max_violation <= 1e-12);
      List.iteri
        (fun i c ->
          let a, b = match c with Entropy_opt.Eq (a, b) | Le (a, b) -> (a, b) in
          let slack = r.multipliers.(i) *. (b -. Vec.dot a r.point) in
          Alcotest.(check bool)
            (Printf.sprintf "%s slackness row %d" label i)
            true
            (Float.abs slack <= 1e-12))
        cs;
      Alcotest.(check bool)
        (Printf.sprintf "%s iterations %d <= 50" label r.iterations)
        true (r.iterations <= 50))
    Rw_compile.Compiled_kb.default_schedule

let test_maxent_free_multiplier () =
  (* 2p0 − p1 = 0.5 over three atoms: a non-zero bound with mixed-sign
     coefficients, so the multiplier is free (here negative). The
     maxent point is p ∝ (e^{−2λ}, e^{λ}, 1); solving the equality
     directly by bisection on λ gives the reference. *)
  let a = [| 2.0; -1.0; 0.0 |] in
  let r = Entropy_opt.solve ~dim:3 [ Entropy_opt.Eq (a, 0.5) ] in
  Alcotest.(check bool) "feasible" true (r.max_violation <= 1e-12);
  let point l =
    let w = [| Float.exp (-2.0 *. l); Float.exp l; 1.0 |] in
    let z = Vec.sum w in
    Array.map (fun x -> x /. z) w
  in
  let rec bisect lo hi k =
    let mid = 0.5 *. (lo +. hi) in
    if k = 0 then mid
    else if Vec.dot a (point mid) > 0.5 then bisect mid hi (k - 1)
    else bisect lo mid (k - 1)
  in
  let expect = point (bisect (-10.0) 10.0 200) in
  Array.iteri (fun i x -> check_float "point" x r.point.(i)) expect;
  Alcotest.(check bool) "multiplier is negative" true (r.multipliers.(0) < 0.0)

let test_maxent_infeasible_le_pair () =
  (* p0 ≤ 0.1 and p0 ≥ 0.9: the dual is unbounded, so the solve stops
     at its iteration cap or a failed line search, with the gap still
     showing. *)
  let cs =
    [
      Entropy_opt.Le ([| 1.0; 0.0 |], 0.1);
      Entropy_opt.Le ([| -1.0; 0.0 |], -0.9);
    ]
  in
  let r = Entropy_opt.solve ~dim:2 cs in
  Alcotest.(check bool) "violation shows" true (r.max_violation > 0.1);
  Alcotest.(check bool) "solve_feasible raises" true
    (try
       ignore (Entropy_opt.solve_feasible ~dim:2 cs);
       false
     with Failure _ -> true)

let prop_maxent_entropy_bounded =
  QCheck.Test.make ~name:"maxent entropy never exceeds log dim" ~count:30
    QCheck.(pair (int_range 2 6) (float_range 0.05 0.95))
    (fun (dim, bound) ->
      let coeffs = Array.init dim (fun i -> if i = 0 then 1.0 else 0.0) in
      let r = Entropy_opt.solve ~dim [ Entropy_opt.Le (coeffs, bound) ] in
      r.entropy <= Float.log (float_of_int dim) +. 1e-6
      && r.max_violation < 1e-6)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("vec.basic", `Quick, test_vec_basic);
    ("vec.errors", `Quick, test_vec_errors);
    ("vec.entropy", `Quick, test_entropy);
    ("maxent.unconstrained", `Quick, test_maxent_unconstrained);
    ("maxent.equality", `Quick, test_maxent_equality);
    ("maxent.le_inactive", `Quick, test_maxent_inequality_inactive);
    ("maxent.le_active", `Quick, test_maxent_inequality_active);
    ("maxent.section6_example", `Quick, test_maxent_section6_example);
    ("maxent.conditional", `Quick, test_maxent_conditional_constraint);
    ("maxent.infeasible", `Quick, test_maxent_infeasible);
    ("maxent.violation", `Quick, test_violation_reporting);
    ("maxent.taxonomy_schedule", `Quick, test_maxent_taxonomy_schedule);
    ("maxent.free_multiplier", `Quick, test_maxent_free_multiplier);
    ("maxent.infeasible_le_pair", `Quick, test_maxent_infeasible_le_pair);
    q prop_maxent_entropy_bounded;
  ]
