(* Tests for rw_prelude: float helpers, log-space arithmetic, intervals,
   list utilities. *)

open Rw_prelude

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Floats                                                             *)
(* ------------------------------------------------------------------ *)

let test_approx_equal () =
  Alcotest.(check bool) "equal within eps" true (Floats.approx_equal 0.1 (0.1 +. 1e-12));
  Alcotest.(check bool) "unequal outside eps" false (Floats.approx_equal 0.1 0.2);
  Alcotest.(check bool) "custom eps" true (Floats.approx_equal ~eps:0.5 0.1 0.4)

let test_clamp () =
  check_float "below" 0.0 (Floats.clamp01 (-0.5));
  check_float "above" 1.0 (Floats.clamp01 1.5);
  check_float "inside" 0.25 (Floats.clamp01 0.25);
  check_float "general clamp" 3.0 (Floats.clamp ~lo:3.0 ~hi:7.0 1.0)

let test_mean_sum () =
  check_float "mean" 2.0 (Floats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "sum" 6.0 (Floats.sum [ 1.0; 2.0; 3.0 ]);
  Alcotest.check_raises "mean of empty" (Invalid_argument "Floats.mean: empty list")
    (fun () -> ignore (Floats.mean []))

let test_max_abs_diff () =
  check_float "diff" 0.5 (Floats.max_abs_diff [ 1.0; 2.0 ] [ 1.5; 2.0 ]);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Floats.max_abs_diff: length mismatch") (fun () ->
      ignore (Floats.max_abs_diff [ 1.0 ] []))

(* ------------------------------------------------------------------ *)
(* Logspace                                                           *)
(* ------------------------------------------------------------------ *)

let test_logspace_roundtrip () =
  check_float "of/to float" 3.5 (Logspace.to_float (Logspace.of_float 3.5));
  check_float "zero" 0.0 (Logspace.to_float Logspace.zero);
  check_float "one" 1.0 (Logspace.to_float Logspace.one)

let test_logspace_arith () =
  let l = Logspace.of_float in
  check_float "mul" 6.0 (Logspace.to_float (Logspace.mul (l 2.0) (l 3.0)));
  check_float "div" 2.0 (Logspace.to_float (Logspace.div (l 6.0) (l 3.0)));
  check_float "add" 5.0 (Logspace.to_float (Logspace.add (l 2.0) (l 3.0)));
  check_float "sub" 1.0 (Logspace.to_float (Logspace.sub (l 3.0) (l 2.0)));
  check_float "sum" 10.0 (Logspace.to_float (Logspace.sum [ l 1.0; l 2.0; l 3.0; l 4.0 ]));
  check_float "ratio" 0.25 (Logspace.ratio (l 1.0) (l 4.0));
  check_float "pow" 8.0 (Logspace.to_float (Logspace.pow (l 2.0) 3))

let test_logspace_zero_cases () =
  Alcotest.(check bool) "mul by zero" true Logspace.(is_zero (mul zero (of_float 5.0)));
  Alcotest.(check bool) "add zero identity" true
    (Floats.approx_equal 5.0 Logspace.(to_float (add zero (of_float 5.0))));
  check_float "ratio with zero numerator" 0.0 Logspace.(ratio zero (of_float 2.0));
  Alcotest.(check bool) "ratio with zero denominator is nan" true
    (Float.is_nan Logspace.(ratio one zero))

let test_log_factorial () =
  check_float "0!" 0.0 (Logspace.log_factorial 0);
  check_float "5!" (Float.log 120.0) (Logspace.log_factorial 5);
  (* memoisation growth across a large jump *)
  let big = Logspace.log_factorial 400 in
  Alcotest.(check bool) "400! finite and large" true (big > 1000.0 && Float.is_finite big)

let test_log_binomial_multinomial () =
  check_float "C(5,2)" (Float.log 10.0) (Logspace.log_binomial 5 2);
  Alcotest.(check bool) "C(5,7) = 0" true (Logspace.is_zero (Logspace.log_binomial 5 7));
  check_float "multinomial 4;[2;1;1]" (Float.log 12.0) (Logspace.log_multinomial 4 [ 2; 1; 1 ]);
  Alcotest.check_raises "bad parts"
    (Invalid_argument "Logspace.log_multinomial: parts do not sum") (fun () ->
      ignore (Logspace.log_multinomial 4 [ 1; 1 ]))

(* ------------------------------------------------------------------ *)
(* Interval                                                           *)
(* ------------------------------------------------------------------ *)

let test_interval_basic () =
  let i = Interval.make 0.2 0.7 in
  check_float "lo" 0.2 (Interval.lo i);
  check_float "hi" 0.7 (Interval.hi i);
  check_float "width" 0.5 (Interval.width i);
  Alcotest.(check bool) "mem inside" true (Interval.mem 0.5 i);
  Alcotest.(check bool) "mem outside" false (Interval.mem 0.8 i);
  Alcotest.(check bool) "mem with eps" true (Interval.mem ~eps:0.15 0.8 i);
  Alcotest.check_raises "bad make" (Invalid_argument "Interval.make: lo > hi")
    (fun () -> ignore (Interval.make 0.7 0.2))

let test_interval_ops () =
  let a = Interval.make 0.0 0.5 and b = Interval.make 0.3 0.8 in
  (match Interval.inter a b with
  | Some i ->
    check_float "inter lo" 0.3 (Interval.lo i);
    check_float "inter hi" 0.5 (Interval.hi i)
  | None -> Alcotest.fail "expected overlap");
  Alcotest.(check bool) "disjoint inter" true
    (Interval.inter (Interval.make 0.0 0.1) (Interval.make 0.2 0.3) = None);
  let h = Interval.hull a b in
  check_float "hull lo" 0.0 (Interval.lo h);
  check_float "hull hi" 0.8 (Interval.hi h);
  Alcotest.(check bool) "subset" true (Interval.subset (Interval.make 0.3 0.4) a);
  Alcotest.(check bool) "not subset" false (Interval.subset b a)

let test_interval_flags () =
  Alcotest.(check bool) "point" true (Interval.is_point (Interval.point 0.5));
  Alcotest.(check bool) "vacuous" true (Interval.is_vacuous Interval.vacuous);
  Alcotest.(check bool) "not vacuous" false (Interval.is_vacuous (Interval.make 0.1 0.9));
  let w = Interval.widen (Interval.point 0.5) 0.1 in
  check_float "widen lo" 0.4 (Interval.lo w);
  check_float "widen hi" 0.6 (Interval.hi w);
  let c = Interval.clamp01 (Interval.make (-0.2) 0.4) in
  check_float "clamp01 lo" 0.0 (Interval.lo c)

(* ------------------------------------------------------------------ *)
(* Listx                                                              *)
(* ------------------------------------------------------------------ *)

let test_range () =
  Alcotest.(check (list int)) "range" [ 2; 3; 4 ] (Listx.range 2 5);
  Alcotest.(check (list int)) "empty range" [] (Listx.range 5 5)

let test_cartesian () =
  Alcotest.(check int) "product size" 6
    (List.length (Listx.cartesian [ [ 1; 2 ]; [ 3; 4; 5 ] ]));
  Alcotest.(check (list (list int))) "nullary product" [ [] ] (Listx.cartesian [])

let test_compositions () =
  let cs = Listx.compositions 3 2 in
  Alcotest.(check int) "count 3 into 2" 4 (List.length cs);
  List.iter
    (fun c -> Alcotest.(check int) "sums to 3" 3 (List.fold_left ( + ) 0 c))
    cs;
  Alcotest.(check int) "count 5 into 3" 21 (List.length (Listx.compositions 5 3))

let test_iter_compositions () =
  let count = ref 0 in
  Listx.iter_compositions 5 3 (fun counts ->
      incr count;
      Alcotest.(check int) "sums to 5" 5 (Array.fold_left ( + ) 0 counts));
  Alcotest.(check int) "visits all" 21 !count;
  Alcotest.(check (float 0.5)) "count_compositions" 21.0 (Listx.count_compositions 5 3)

let test_misc_lists () =
  Alcotest.(check (option int)) "find_index" (Some 1)
    (Listx.find_index (fun x -> x > 1) [ 1; 2; 3 ]);
  Alcotest.(check (option int)) "find_index none" None
    (Listx.find_index (fun x -> x > 9) [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "dedup_sorted" [ 1; 2; 3 ]
    (Listx.dedup_sorted Stdlib.compare [ 1; 1; 2; 3; 3 ]);
  Alcotest.(check int) "all_subsets" 8 (List.length (Listx.all_subsets [ 1; 2; 3 ]));
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Listx.take 2 [ 1; 2; 3 ])

(* Property tests *)

let prop_logspace_add_commutative =
  QCheck.Test.make ~name:"logspace add commutes with float add"
    QCheck.(pair (float_bound_exclusive 1e6) (float_bound_exclusive 1e6))
    (fun (a, b) ->
      let a = Float.abs a and b = Float.abs b in
      let got = Logspace.(to_float (add (of_float a) (of_float b))) in
      Float.abs (got -. (a +. b)) <= 1e-6 *. (1.0 +. a +. b))

(* The shortest round-trip printer behind both the JSON encoder and the
   formula pretty-printer, pinned byte for byte through each caller.
   Each caller keeps its own form for integral values below 1e15
   (here -0.0); 2^53 + 1 rounds to the integral 2^53, which is past
   1e15 and so goes through the shared printer in both. *)
let test_shortest_repr () =
  List.iter
    (fun (name, x, json, formula) ->
      Alcotest.(check string) (name ^ " as JSON") json
        (Rw_service.Json.to_string (Rw_service.Json.Float x));
      Alcotest.(check string) (name ^ " in a formula") formula
        (Fmt.str "%a" Rw_logic.Pretty.pp_proportion (Rw_logic.Syntax.Num x));
      if Float.abs x >= 1e15 || not (Float.is_integer x) then
        Alcotest.(check string) (name ^ " shortest") json (Floats.shortest_repr x))
    [
      ("0.1", 0.1, "0.1", "0.1");
      ("1/3", 1.0 /. 3.0, "0.3333333333333333", "0.3333333333333333");
      ("0.8", 0.8, "0.8", "0.8");
      ("1e-300", 1e-300, "1e-300", "1e-300");
      ("smallest subnormal", Int64.float_of_bits 1L, "5e-324", "5e-324");
      ("-0.0", -0.0, "-0.0", "0");
      ("1e15+0.5", 1e15 +. 0.5, "1000000000000000.5", "1000000000000000.5");
      ("2^53+1", (2.0 ** 53.0) +. 1.0, "9007199254740992", "9007199254740992");
    ]

let prop_simplex_like_compositions =
  QCheck.Test.make ~name:"compositions count matches binomial"
    QCheck.(pair (int_range 0 12) (int_range 1 4))
    (fun (n, k) ->
      List.length (Listx.compositions n k)
      = int_of_float (Float.round (Listx.count_compositions n k)))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("floats.approx_equal", `Quick, test_approx_equal);
    ("floats.clamp", `Quick, test_clamp);
    ("floats.mean_sum", `Quick, test_mean_sum);
    ("floats.max_abs_diff", `Quick, test_max_abs_diff);
    ("logspace.roundtrip", `Quick, test_logspace_roundtrip);
    ("logspace.arith", `Quick, test_logspace_arith);
    ("logspace.zero_cases", `Quick, test_logspace_zero_cases);
    ("logspace.log_factorial", `Quick, test_log_factorial);
    ("logspace.binomial_multinomial", `Quick, test_log_binomial_multinomial);
    ("interval.basic", `Quick, test_interval_basic);
    ("interval.ops", `Quick, test_interval_ops);
    ("interval.flags", `Quick, test_interval_flags);
    ("listx.range", `Quick, test_range);
    ("listx.cartesian", `Quick, test_cartesian);
    ("listx.compositions", `Quick, test_compositions);
    ("listx.iter_compositions", `Quick, test_iter_compositions);
    ("listx.misc", `Quick, test_misc_lists);
    q prop_logspace_add_commutative;
    q prop_simplex_like_compositions;
    ("floats.shortest_repr: JSON and formula printers", `Quick,
     test_shortest_repr);
  ]
