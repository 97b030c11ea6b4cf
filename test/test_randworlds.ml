(* Tests for the randworlds core: answers, limits, Dempster, the four
   engines, the dispatcher on the full KB zoo, the lottery/unique-names
   experiments, and the KLM properties of |~rw. *)

open Rw_logic
open Rw_prelude
open Randworlds

let parse s =
  match Parser.formula s with
  | Ok f -> f
  | Error msg -> Alcotest.failf "parse %S failed: %s" s msg

(* ------------------------------------------------------------------ *)
(* Answer                                                             *)
(* ------------------------------------------------------------------ *)

let test_answer_basics () =
  let a = Answer.make ~engine:"t" (Answer.Point 0.8) in
  Alcotest.(check (option (float 1e-12))) "point value" (Some 0.8) (Answer.point_value a);
  Alcotest.(check bool) "definitive" true (Answer.definitive a);
  let b = Answer.make ~engine:"t" (Answer.Not_applicable "x") in
  Alcotest.(check bool) "n/a not definitive" false (Answer.definitive b);
  let c = Answer.make ~engine:"t" (Answer.Within (Interval.point 0.3)) in
  Alcotest.(check (option (float 1e-12))) "degenerate interval is a point" (Some 0.3)
    (Answer.point_value c)

(* ------------------------------------------------------------------ *)
(* Limits                                                             *)
(* ------------------------------------------------------------------ *)

let test_limits_detect () =
  (match Limits.detect [ 0.5; 0.45; 0.401; 0.4005; 0.4004 ] with
  | Limits.Converged v -> Alcotest.(check (float 1e-2)) "converged" 0.4 v
  | _ -> Alcotest.fail "expected convergence");
  (match Limits.detect ~atol:1e-3 [ 1.0; 0.0; 1.0; 0.0; 1.0; 0.0 ] with
  | Limits.Oscillating (a, b) ->
    Alcotest.(check (float 1e-9)) "low" 0.0 a;
    Alcotest.(check (float 1e-9)) "high" 1.0 b
  | _ -> Alcotest.fail "expected oscillation");
  Alcotest.(check bool) "short sequence insufficient" true
    (Limits.detect [ 0.5 ] = Limits.Insufficient)

let test_limits_linear_intercept () =
  (* y = 0.8 - 2x exactly. *)
  let xs = [ 0.1; 0.05; 0.025 ] in
  let ys = List.map (fun x -> 0.8 -. (2.0 *. x)) xs in
  let a, b, r = Limits.linear_intercept xs ys in
  Alcotest.(check (float 1e-9)) "intercept" 0.8 a;
  Alcotest.(check (float 1e-9)) "slope" (-2.0) b;
  Alcotest.(check (float 1e-9)) "residual" 0.0 r;
  (* Robust to small noise. *)
  let ys_noisy = List.map2 (fun y i -> y +. (0.0005 *. float_of_int i)) ys [ 1; -1; 1 ] in
  let a, _, _ = Limits.linear_intercept xs ys_noisy in
  Alcotest.(check bool) "noisy intercept close" true (Float.abs (a -. 0.8) < 0.01)

let test_limits_richardson () =
  (* Geometric approach to 1: 0.5, 0.75, 0.875 → extrapolates to 1. *)
  Alcotest.(check (float 1e-6)) "aitken" 1.0 (Limits.richardson [ 0.5; 0.75; 0.875 ])

(* ------------------------------------------------------------------ *)
(* Dempster                                                           *)
(* ------------------------------------------------------------------ *)

let test_dempster () =
  Alcotest.(check (float 1e-9)) "0.8,0.8" (16.0 /. 17.0) (Dempster.combine2 0.8 0.8);
  Alcotest.(check (float 1e-9)) "neutral 0.5" 0.7 (Dempster.combine2 0.7 0.5);
  Alcotest.(check (float 1e-9)) "certainty dominates" 1.0 (Dempster.combine2 1.0 0.3);
  Alcotest.(check (float 1e-9)) "three supporting"
    (0.512 /. (0.512 +. 0.008))
    (Dempster.combine [ 0.8; 0.8; 0.8 ]);
  Alcotest.(check bool) "conflict raises" true
    (try
       ignore (Dempster.combine [ 1.0; 0.0 ]);
       false
     with Dempster.Conflicting_certainties -> true);
  Alcotest.check_raises "empty" (Invalid_argument "Dempster.combine: empty evidence list")
    (fun () -> ignore (Dempster.combine []));
  (* Two pieces of evidence both above 1/2 reinforce (Section 5.3). *)
  Alcotest.(check bool) "reinforcement" true (Dempster.combine2 0.8 0.8 > 0.8);
  (* Footnote 14: two pieces both below 1/2 count against. *)
  Alcotest.(check bool) "double disbelief" true (Dempster.combine2 0.2 0.2 < 0.2)

(* ------------------------------------------------------------------ *)
(* The KB zoo through the dispatcher                                  *)
(* ------------------------------------------------------------------ *)

let matches expected (a : Answer.t) =
  match (expected, a.Answer.result) with
  | Rw_kbzoo.Kbzoo.Exactly v, _ -> (
    match Answer.point_value a with
    | Some got -> Float.abs (got -. v) < 0.01
    | None -> false)
  | Inside i, Answer.Within j -> Interval.subset j i
  | Inside i, Answer.Point v -> Interval.mem ~eps:1e-6 v i
  | Less_than v, _ -> (
    match Answer.point_value a with Some got -> got < v | None -> false)
  | NoLimit, Answer.No_limit _ -> true
  | Inconsistent_kb, Answer.Inconsistent -> true
  | _ -> false

let zoo_case (e : Rw_kbzoo.Kbzoo.entry) =
  let name = Printf.sprintf "%s %s" e.id e.description in
  let speed = if List.mem e.id [ "E11"; "E23a"; "E23b"; "E23c" ] then `Slow else `Quick in
  ( name,
    speed,
    fun () ->
      let a = Engine.degree_of_belief ~kb:e.kb e.query in
      if not (matches e.expected a) then
        Alcotest.failf "%s: expected %a, got %a" e.id Rw_kbzoo.Kbzoo.pp_expectation
          e.expected Answer.pp a )

(* ------------------------------------------------------------------ *)
(* Cross-engine agreement                                             *)
(* ------------------------------------------------------------------ *)

let test_unary_engine_agrees () =
  (* The exact-counting engine and the maxent engine must agree on a
     point-valued unary example. *)
  let kb = parse "Jaun(Eric) /\\ ||Hep(x) | Jaun(x)||_x ~=_1 0.8 /\\ Hep(Tom)" in
  let a =
    Unary_engine.estimate ~ns:[ 12; 18; 24 ]
      (Rw_compile.Compiled_kb.compile kb)
      (parse "Hep(Eric)")
  in
  match Answer.point_value a with
  | Some v -> Alcotest.(check bool) "near 0.8" true (Float.abs (v -. 0.8) < 0.05)
  | None -> Alcotest.failf "unary engine gave %a" Answer.pp a

let test_enum_engine_exact () =
  (* Pr(White(C)) = 1/2 at every N by symmetry: the enum engine sees it
     exactly. *)
  let vocab = Vocab.make ~preds:[ ("White", 1) ] ~funcs:[ ("C", 0) ] in
  let kb = parse "White(C) \\/ ~White(C)" in
  List.iter
    (fun n ->
      match
        Enum_engine.pr_n ~vocab ~n ~tol:(Tolerance.uniform 0.1) ~kb (parse "White(C)")
      with
      | Some v -> Alcotest.(check (float 1e-9)) (Printf.sprintf "N=%d" n) 0.5 v
      | None -> Alcotest.fail "no worlds")
    [ 2; 3; 4 ]

let test_engine_dispatch_to_enum () =
  (* A KB with equality can only be handled by enumeration. *)
  let kb = parse "(C1 = C2) \\/ (C2 = C3) \\/ (C1 = C3)" in
  let a = Engine.degree_of_belief ~kb (parse "C1 = C2") in
  Alcotest.(check string) "enum engine used" "enum" a.Answer.engine

(* ------------------------------------------------------------------ *)
(* Lottery paradox (Section 5.5)                                      *)
(* ------------------------------------------------------------------ *)

let lottery_tol = Tolerance.uniform 0.1

let test_lottery_known_size () =
  (* Everyone holds a ticket, there is exactly one winner:
     Pr(Winner(c)) = 1/N exactly, at every N. *)
  let vocab = Vocab.make ~preds:[ ("Winner", 1) ] ~funcs:[ ("C", 0) ] in
  let kb = Syntax.exists_unique "x" (parse "Winner(x)") in
  List.iter
    (fun n ->
      match Enum_engine.pr_n ~vocab ~n ~tol:lottery_tol ~kb (parse "Winner(C)") with
      | Some v ->
        Alcotest.(check (float 1e-9)) (Printf.sprintf "1/N at N=%d" n)
          (1.0 /. float_of_int n) v
      | None -> Alcotest.fail "no worlds")
    [ 2; 3; 4; 5 ]

let test_lottery_someone_wins () =
  let vocab = Vocab.make ~preds:[ ("Winner", 1) ] ~funcs:[ ("C", 0) ] in
  let kb = Syntax.exists_unique "x" (parse "Winner(x)") in
  match Enum_engine.pr_n ~vocab ~n:5 ~tol:lottery_tol ~kb (parse "exists x (Winner(x))") with
  | Some v -> Alcotest.(check (float 1e-9)) "someone wins" 1.0 v
  | None -> Alcotest.fail "no worlds"

let test_lottery_large_unknown () =
  (* With tickets and the winner among ticket holders, the belief that
     a particular holder wins vanishes as N grows. *)
  let vocab = Vocab.make ~preds:[ ("Winner", 1); ("Ticket", 1) ] ~funcs:[ ("C", 0) ] in
  let kb =
    Syntax.conj
      [
        Syntax.exists_unique "x" (parse "Winner(x)");
        parse "forall x (Winner(x) => Ticket(x))";
        parse "Ticket(C)";
      ]
  in
  let at n =
    match Enum_engine.pr_n ~vocab ~n ~tol:lottery_tol ~kb (parse "Winner(C)") with
    | Some v -> v
    | None -> Alcotest.fail "no worlds"
  in
  (* The exact value is ≈ 2/(N+1): the winner is uniform among the
     ticket holders, of whom there are (N+1)/2 on average. *)
  let p3 = at 3 and p5 = at 5 and p7 = at 7 in
  Alcotest.(check bool) "decreasing" true (p3 > p5 && p5 > p7);
  Alcotest.(check (float 1e-9)) "2/(N+1) at N=7" 0.25 p7

(* ------------------------------------------------------------------ *)
(* Unique names (Section 5.5)                                         *)
(* ------------------------------------------------------------------ *)

let test_unique_names_default () =
  (* Pr(c1 = c2 | true) = 1/N → 0: the unique-names bias is automatic. *)
  let vocab = Vocab.make ~preds:[] ~funcs:[ ("C1", 0); ("C2", 0) ] in
  List.iter
    (fun n ->
      match Enum_engine.pr_n ~vocab ~n ~tol:lottery_tol ~kb:Syntax.True (parse "C1 = C2") with
      | Some v ->
        Alcotest.(check (float 1e-9)) (Printf.sprintf "1/N at N=%d" n)
          (1.0 /. float_of_int n) v
      | None -> Alcotest.fail "no worlds")
    [ 2; 4; 8 ]

let test_unique_names_disjunction () =
  (* Pr(c1=c2 | c1=c2 ∨ c2=c3 ∨ c1=c3) = N²/(3N²−2N) → 1/3. *)
  let vocab = Vocab.make ~preds:[] ~funcs:[ ("C1", 0); ("C2", 0); ("C3", 0) ] in
  let kb = parse "(C1 = C2) \\/ (C2 = C3) \\/ (C1 = C3)" in
  List.iter
    (fun n ->
      let fn = float_of_int n in
      let expected = (fn *. fn) /. ((3.0 *. fn *. fn) -. (2.0 *. fn)) in
      match Enum_engine.pr_n ~vocab ~n ~tol:lottery_tol ~kb (parse "C1 = C2") with
      | Some v -> Alcotest.(check (float 1e-9)) (Printf.sprintf "N=%d" n) expected v
      | None -> Alcotest.fail "no worlds")
    [ 3; 5; 8 ];
  (* And the limit is 1/3 — check the trend is tight at N=16. *)
  match Enum_engine.pr_n ~vocab ~n:16 ~tol:lottery_tol ~kb (parse "C1 = C2") with
  | Some v -> Alcotest.(check bool) "≈1/3" true (Float.abs (v -. (1.0 /. 3.0)) < 0.02)
  | None -> Alcotest.fail "no worlds"

let test_lifschitz_c1 () =
  (* Ray = Reiter, Drew = McDermott ⇒ by default Ray ≠ Drew
     (Pr = 1 − 1/N → 1). *)
  let vocab =
    Vocab.make ~preds:[]
      ~funcs:[ ("Ray", 0); ("Reiter", 0); ("Drew", 0); ("McDermott", 0) ]
  in
  let kb = parse "Ray = Reiter /\\ Drew = McDermott" in
  let at n =
    match Enum_engine.pr_n ~vocab ~n ~tol:lottery_tol ~kb (parse "Ray != Drew") with
    | Some v -> v
    | None -> Alcotest.fail "no worlds"
  in
  List.iter
    (fun n ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "N=%d" n)
        (1.0 -. (1.0 /. float_of_int n))
        (at n))
    [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* KLM properties (Theorem 5.3) on concrete knowledge bases           *)
(* ------------------------------------------------------------------ *)

let oracle : Defaults.oracle =
 fun ~kb query -> Defaults.engine_oracle ~kb query

let check_holds name verdict =
  match verdict with
  | Defaults.Holds -> ()
  | Defaults.Vacuous -> Alcotest.failf "%s: premise did not hold (vacuous)" name
  | Defaults.Fails why -> Alcotest.failf "%s: %s" name why

let kb_fly_tweety =
  parse
    "||Fly(x) | Bird(x)||_x ~=_1 1 /\\ ||Fly(x) | Penguin(x)||_x ~=_2 0 /\\ \
     forall x (Penguin(x) => Bird(x)) /\\ Penguin(Tweety)"

let test_klm_reflexivity () =
  (* Reflexivity on a simple eventually-consistent KB. *)
  let kb = parse "Bird(Tweety)" in
  check_holds "reflexivity" (Defaults.reflexivity oracle ~kb)

let test_klm_right_weakening () =
  (* KB |~ ¬Fly(Tweety), and ⊨ ¬Fly ⇒ (¬Fly ∨ Warm). *)
  check_holds "right weakening"
    (Defaults.right_weakening oracle ~kb:kb_fly_tweety ~phi:(parse "~Fly(Tweety)")
       ~psi:(parse "~Fly(Tweety) \\/ Warm(Tweety)"))

let test_klm_lle () =
  let kb' =
    parse
      "Penguin(Tweety) /\\ forall x (Penguin(x) => Bird(x)) /\\ \
       ||Fly(x) | Penguin(x)||_x ~=_2 0 /\\ ||Fly(x) | Bird(x)||_x ~=_1 1"
  in
  check_holds "left logical equivalence"
    (Defaults.left_logical_equivalence oracle ~kb:kb_fly_tweety ~kb':kb'
       ~phi:(parse "Fly(Tweety)"))

let test_klm_cut_cm () =
  (* KB |~ ¬Fly(Tweety); adding that conclusion changes nothing
     (Proposition 5.2, which subsumes Cut and CM). *)
  let theta = parse "~Fly(Tweety)" in
  let phi = parse "Bird(Tweety)" in
  check_holds "cut" (Defaults.cut oracle ~kb:kb_fly_tweety ~theta ~phi);
  check_holds "cautious monotonicity"
    (Defaults.cautious_monotonicity oracle ~kb:kb_fly_tweety ~theta ~phi);
  check_holds "conditioning invariance"
    (Defaults.conditioning_invariance oracle ~kb:kb_fly_tweety ~theta
       ~phi:(parse "Fly(Tweety)"))

let test_klm_and () =
  let kb =
    parse
      "||Warm(x) | Bird(x)||_x ~=_1 1 /\\ ||Feathered(x) | Bird(x)||_x ~=_2 1 /\\ \
       Bird(Tweety)"
  in
  check_holds "and"
    (Defaults.and_rule oracle ~kb ~phi:(parse "Warm(Tweety)")
       ~psi:(parse "Feathered(Tweety)"))

let test_klm_or () =
  (* Example 5.4's structure: both disjuncts lead to the same
     conclusion. We use a compact variant: broken-left and broken-right
     each imply some arm is unusable. *)
  let base =
    "||LUsable(x) | LBroken(x)||_x ~=_2 0 /\\ ||RUsable(x) | RBroken(x)||_x ~=_4 0"
  in
  let kb = parse (base ^ " /\\ LBroken(Eric)") in
  let kb' = parse (base ^ " /\\ RBroken(Eric)") in
  check_holds "or"
    (Defaults.or_rule oracle ~kb ~kb'
       ~phi:(parse "~LUsable(Eric) \\/ ~RUsable(Eric)"))

let test_rational_monotonicity () =
  (* KB |~ ¬Fly(Tweety); θ = Yellow(Tweety) is not disbelieved;
     conclusion survives. *)
  check_holds "rational monotonicity"
    (Defaults.rational_monotonicity oracle ~kb:kb_fly_tweety
       ~theta:(parse "Yellow(Tweety)") ~phi:(parse "~Fly(Tweety)"))

let test_saturate_nested_default () =
  (* Example 5.14 automated: from KB'_late, derive "Alice normally
     rises late", add it (Cut), then derive that she rises late
     tomorrow — a two-round chain the single-shot engine cannot do. *)
  let kb = Syntax.And ((Rw_kbzoo.Kbzoo.kb_late ()), parse "Day(Tomorrow)") in
  let step1 = parse "||Rises(Alice,y) | Day(y)||_y ~=_1 1" in
  let step2 = parse "Rises(Alice, Tomorrow)" in
  (* The binary vocabulary routes some candidates to the Monte-Carlo
     grid. Its interval answers never satisfy [entails], so those runs
     decide nothing; a small sample budget keeps them cheap. *)
  let oracle =
    Defaults.engine_oracle
      ~options:{ Engine.default_options with Engine.mc_samples = Some 2_000 }
  in
  (* The final conclusion is not derivable in one shot… *)
  Alcotest.(check bool) "not one-shot" false (Defaults.entails ~oracle ~kb step2);
  (* …but saturation chains through the intermediate default. *)
  let _, added = Defaults.saturate ~oracle ~kb [ step1; step2 ] in
  Alcotest.(check int) "both conclusions derived" 2 (List.length added);
  Alcotest.(check bool) "intermediate first" true
    (Syntax.equal (List.hd added) step1)

let test_saturate_fixpoint () =
  (* Nothing derivable: KB unchanged, nothing added. *)
  let kb = parse "Bird(Tweety)" in
  let kb', added = Defaults.saturate ~kb [ parse "Fly(Tweety)" ] in
  Alcotest.(check bool) "kb unchanged" true (Syntax.equal kb kb');
  Alcotest.(check int) "nothing added" 0 (List.length added)

let test_entails_default () =
  Alcotest.(check bool) "KB |~ ~Fly(Tweety)" true
    (Defaults.entails ~kb:kb_fly_tweety (parse "~Fly(Tweety)"));
  Alcotest.(check bool) "not KB |~ Fly(Tweety)" false
    (Defaults.entails ~kb:kb_fly_tweety (parse "Fly(Tweety)"))

(* ------------------------------------------------------------------ *)
(* Independence decomposition                                         *)
(* ------------------------------------------------------------------ *)

let test_six_predicates () =
  (* Regression: atom sets beyond 62 atoms (6+ predicates) need real
     bitsets, not int masks. *)
  let kb =
    parse
      "||Hep(x) | Jaun(x)||_x ~=_1 0.8 /\\ forall x (Hep(x) => Jaun(x)) /\\ \
       ||Fever(x) | Hep(x)||_x ~=_2 1 /\\ ||Over60(x) | Patient(x)||_x ~=_3 0.4 /\\ \
       Jaun(Eric) /\\ Tall(Eric)"
  in
  let a = Engine.degree_of_belief ~kb (parse "Hep(Eric)") in
  match Answer.point_value a with
  | Some v -> Alcotest.(check (float 0.01)) "0.8 with six predicates" 0.8 v
  | None -> Alcotest.failf "got %a" Answer.pp a

let test_reflexivity_full_kb () =
  (* Pr(KB | KB) = 1 even when the KB itself is the query — statistical
     conjuncts sit exactly on the feasible boundary. *)
  let a = Engine.degree_of_belief ~kb:kb_fly_tweety kb_fly_tweety in
  match Answer.point_value a with
  | Some v -> Alcotest.(check (float 1e-6)) "Pr(KB|KB)" 1.0 v
  | None -> Alcotest.failf "got %a" Answer.pp a

let taxonomy_kb =
  "forall x (Bird(x) => Animal(x)) /\\ forall x (Seabird(x) => Bird(x)) /\\ \
   forall x (Penguin(x) => Seabird(x)) /\\ ||Fly(x) | Animal(x)||_x ~=_1 0 /\\ \
   ||Fly(x) | Bird(x)||_x ~=_2 1 /\\ ||Fly(x) | Penguin(x)||_x ~=_3 0 /\\ \
   ||Swims(x) | Seabird(x)||_x ~=_6 1"

let test_deep_hierarchy () =
  (* Chained specificity over a four-level taxonomy: the most specific
     level with a default wins at every node. *)
  let ask facts query =
    match
      Answer.point_value
        (Engine.degree_of_belief ~kb:(parse (taxonomy_kb ^ " /\\ " ^ facts)) (parse query))
    with
    | Some v -> v
    | None -> Alcotest.failf "no value for %s ⊢ %s" facts query
  in
  Alcotest.(check (float 0.01)) "animals don't fly" 0.0 (ask "Animal(Rex)" "Fly(Rex)");
  Alcotest.(check (float 0.01)) "birds do" 1.0 (ask "Bird(Robin)" "Fly(Robin)");
  Alcotest.(check (float 0.01)) "seabirds inherit from birds" 1.0
    (ask "Seabird(Gull)" "Fly(Gull)");
  Alcotest.(check (float 0.01)) "penguins don't" 0.0 (ask "Penguin(Opus)" "Fly(Opus)");
  (* Exceptional-subclass inheritance through two levels. *)
  Alcotest.(check (float 0.01)) "penguins swim" 1.0 (ask "Penguin(Opus)" "Swims(Opus)")

let test_yale_priorities () =
  (* Section 7.1: the naive temporal YSP gives 1/2 (tested through the
     zoo); strengthening the causally sensible default flips the
     verdict to the intuitive answer, the anomalous weighting to the
     anomalous one. *)
  let kb = (Rw_kbzoo.Kbzoo.kb_yale ()) in
  let dead = parse "~Alive1(Story)" in
  let probe powers =
    let tols =
      List.map
        (fun scale -> Tolerance.make ~scale ~powers ())
        [ 0.05; 0.025; 0.0125; 0.00625; 0.003125 ]
    in
    Answer.point_value
      (Maxent_engine.estimate ~tols (Rw_compile.Compiled_kb.compile kb) dead)
  in
  Alcotest.(check (option (float 0.01))) "gun persistence stronger → dies"
    (Some 1.0)
    (probe [ (1, 2.0) ]);
  Alcotest.(check (option (float 0.01))) "life persistence stronger → anomalous"
    (Some 0.0)
    (probe [ (2, 2.0) ])

let test_independence_split () =
  let e = Option.get (Rw_kbzoo.Kbzoo.find "E13") in
  let a = Engine.degree_of_belief ~kb:e.kb e.query in
  Alcotest.(check string) "used independence" "independence" a.Answer.engine;
  match Answer.point_value a with
  | Some v -> Alcotest.(check (float 1e-3)) "0.32" 0.32 v
  | None -> Alcotest.fail "no value"

let suite =
  [
    ("answer.basics", `Quick, test_answer_basics);
    ("limits.detect", `Quick, test_limits_detect);
    ("limits.linear_intercept", `Quick, test_limits_linear_intercept);
    ("limits.richardson", `Quick, test_limits_richardson);
    ("dempster.combine", `Quick, test_dempster);
    ("engines.unary_agrees", `Slow, test_unary_engine_agrees);
    ("engines.enum_exact", `Quick, test_enum_engine_exact);
    ("engines.dispatch_equality", `Quick, test_engine_dispatch_to_enum);
    ("lottery.known_size", `Quick, test_lottery_known_size);
    ("lottery.someone_wins", `Quick, test_lottery_someone_wins);
    ("lottery.large_unknown", `Quick, test_lottery_large_unknown);
    ("unique_names.default", `Quick, test_unique_names_default);
    ("unique_names.disjunction", `Quick, test_unique_names_disjunction);
    ("unique_names.lifschitz_c1", `Quick, test_lifschitz_c1);
    ("klm.reflexivity", `Quick, test_klm_reflexivity);
    ("klm.right_weakening", `Quick, test_klm_right_weakening);
    ("klm.left_logical_equivalence", `Quick, test_klm_lle);
    ("klm.cut_and_cm", `Quick, test_klm_cut_cm);
    ("klm.and", `Quick, test_klm_and);
    ("klm.or", `Quick, test_klm_or);
    ("klm.rational_monotonicity", `Quick, test_rational_monotonicity);
    ("defaults.entails", `Quick, test_entails_default);
    ("defaults.saturate_nested", `Quick, test_saturate_nested_default);
    ("defaults.saturate_fixpoint", `Quick, test_saturate_fixpoint);
    ("engine.independence", `Quick, test_independence_split);
    ("engine.six_predicates", `Quick, test_six_predicates);
    ("engine.deep_hierarchy", `Slow, test_deep_hierarchy);
    ("engine.yale_priorities", `Slow, test_yale_priorities);
    ("engine.reflexivity_full_kb", `Quick, test_reflexivity_full_kb);
  ]
  @ List.map zoo_case (Rw_kbzoo.Kbzoo.all ())
