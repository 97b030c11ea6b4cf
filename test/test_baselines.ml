(* Tests for the baseline systems: ε-semantics / System Z / GMP90
   maximum entropy (rw_epsilon) and the reference-class reasoner
   (rw_refclass) — including the failure modes the paper attributes to
   them, and the Theorem 6.1 agreement with random worlds. *)

open Rw_prelude
open Rw_epsilon

let v s = Prop.PVar s
let ( &&& ) a b = Prop.PAnd (a, b)
let nt a = Prop.PNot a

(* The Tweety rule base: birds fly, penguins don't, penguins are
   birds. *)
let tweety_rules =
  [
    Defaults.rule (v "bird") (v "fly");
    Defaults.rule (v "penguin") (nt (v "fly"));
    Defaults.rule (v "penguin") (v "bird");
  ]

(* ------------------------------------------------------------------ *)
(* Propositional substrate                                            *)
(* ------------------------------------------------------------------ *)

let test_prop_eval () =
  let voc = Prop.vocabulary_of [ v "a"; v "b" ] in
  Alcotest.(check int) "worlds" 4 (Prop.num_worlds voc);
  Alcotest.(check int) "models of a" 2 (List.length (Prop.models voc (v "a")));
  Alcotest.(check bool) "valid excluded middle" true
    (Prop.valid voc (Prop.POr (v "a", nt (v "a"))));
  Alcotest.(check bool) "contradiction unsat" false
    (Prop.satisfiable voc (v "a" &&& nt (v "a")))

(* ------------------------------------------------------------------ *)
(* ε-consistency and the Z-partition                                  *)
(* ------------------------------------------------------------------ *)

let voc_of rules =
  Prop.vocabulary_of
    (List.concat_map (fun r -> [ r.Defaults.antecedent; r.Defaults.consequent ]) rules)

let test_z_partition () =
  let voc = voc_of tweety_rules in
  match Defaults.partition voc tweety_rules with
  | Ok [ rank0; rank1 ] ->
    Alcotest.(check int) "rank 0 size" 1 (List.length rank0);
    Alcotest.(check int) "rank 1 size" 2 (List.length rank1);
    (* The generic bird rule is the tolerated one. *)
    Alcotest.(check bool) "bird rule at rank 0" true
      (List.exists (fun r -> r.Defaults.antecedent = v "bird") rank0)
  | Ok _ -> Alcotest.fail "expected exactly two ranks"
  | Error _ -> Alcotest.fail "expected consistency"

let test_inconsistent_rules () =
  (* A → B together with A → ¬B is ε-inconsistent (the paper's point in
     Section 3.1: defaults get real semantics, so this is detectable). *)
  let rules = [ Defaults.rule (v "a") (v "b"); Defaults.rule (v "a") (nt (v "b")) ] in
  Alcotest.(check bool) "contradictory defaults" false
    (Defaults.consistent (voc_of rules) rules)

let test_poole_partition_propositional () =
  (* Poole's lottery (Section 3.5/5.5): every species of bird is
     exceptional. Propositional default systems accept this rule set as
     consistent and still conclude that birds fly — there is nothing to
     stop one from asserting it (the paper's criticism of default
     logic). The contrast: under the statistical ≈1 reading, the same
     KB is *inconsistent* (checked in the unary suite,
     solver.poole_partition). *)
  let rules =
    [
      Defaults.rule (v "bird") (v "fly");
      Defaults.rule (v "bird") (Prop.POr (v "emu", v "penguin"));
      Defaults.rule (v "emu") (nt (v "fly"));
      Defaults.rule (v "penguin") (nt (v "fly"));
    ]
  in
  let voc = voc_of rules in
  Alcotest.(check bool) "propositional systems accept the KB" true
    (Defaults.consistent voc rules);
  Alcotest.(check bool) "and still conclude birds fly" true
    (Defaults.p_entails rules (v "bird", v "fly"))

(* ------------------------------------------------------------------ *)
(* p-entailment vs System Z vs ME: the specificity/irrelevance ladder *)
(* ------------------------------------------------------------------ *)

let test_p_entailment_specificity () =
  Alcotest.(check bool) "penguins don't fly" true
    (Defaults.p_entails tweety_rules (v "penguin", nt (v "fly")));
  Alcotest.(check bool) "birds fly" true
    (Defaults.p_entails tweety_rules (v "bird", v "fly"))

let test_p_entailment_no_irrelevance () =
  (* ε-entailment cannot ignore the irrelevant 'yellow': the hallmark
     weakness (Section 6: "it has no ability to ignore irrelevant
     information"). *)
  Alcotest.(check bool) "yellow penguin stumps p-entailment" false
    (Defaults.p_entails tweety_rules (v "penguin" &&& v "yellow", nt (v "fly")))

let test_system_z_irrelevance () =
  (* System Z (rational closure) handles the irrelevant yellow… *)
  Alcotest.(check bool) "yellow penguin fine for Z" true
    (Defaults.z_entails tweety_rules (v "penguin" &&& v "yellow", nt (v "fly")))

let test_system_z_drowning () =
  (* …but drowns: the exceptional penguin cannot inherit *any* default,
     even the unrelated warm-bloodedness (Section 3.3). *)
  let rules = Defaults.rule (v "bird") (v "warm") :: tweety_rules in
  Alcotest.(check bool) "Z blocks warm-bloodedness for penguins" false
    (Defaults.z_entails rules (v "penguin", v "warm"))

let test_me_fixes_drowning () =
  (* GMP90's maximum-entropy consequence recovers exceptional-subclass
     inheritance. *)
  let rules = Defaults.rule (v "bird") (v "warm") :: tweety_rules in
  Alcotest.(check bool) "ME lets penguins inherit warmth" true
    (Me.me_plausible rules (v "penguin", v "warm"));
  (match Me.me_conditional rules (v "penguin", nt (v "fly")) with
  | Some p -> Alcotest.(check (float 0.01)) "ME keeps specificity" 1.0 p
  | None -> Alcotest.fail "no value")

let test_me_nixon () =
  let rules =
    [
      Defaults.rule (v "quaker") (v "pac");
      Defaults.rule (v "repub") (nt (v "pac"));
    ]
  in
  match Me.me_conditional rules (v "quaker" &&& v "repub", v "pac") with
  | Some p -> Alcotest.(check (float 0.02)) "Nixon is a coin flip under shared ε" 0.5 p
  | None -> Alcotest.fail "no value"

let test_geffner_anomaly () =
  (* Section 6 (end): with R = {p∧s → q, r → ¬q}, adding the rule
     p → ¬q — which says nothing about r — *changes* the verdict on
     p∧s∧r → q, because the shared ε makes p∧s an ε-small subset of p
     and so strengthens its default. Under the PPD-limit definition
     implemented here the conditional shifts from 3/5 to 3/4 (solving
     the log-linear system analytically: weights a₁=ε²/2, a₂=3ε/2,
     a₃=ε give 1.5/(1.5+0.5)); GMP90's κ-ranking formulation pushes the
     same mechanism all the way to full plausibility. Either way the
     anomalous influence of the unrelated rule is what the paper
     criticises, and what per-default tolerances (≈_i with distinct i)
     remove on the random-worlds side. *)
  let query = (v "p" &&& v "s" &&& v "r", v "q") in
  let base =
    [ Defaults.rule (v "p" &&& v "s") (v "q"); Defaults.rule (v "r") (nt (v "q")) ]
  in
  (match Me.me_conditional base query with
  | Some p -> Alcotest.(check (float 0.01)) "before: 3/5" 0.6 p
  | None -> Alcotest.fail "no value");
  Alcotest.(check bool) "not plausible before" false (Me.me_plausible base query);
  let extended = Defaults.rule (v "p") (nt (v "q")) :: base in
  match Me.me_conditional extended query with
  | Some p ->
    Alcotest.(check (float 0.01)) "after: 3/4" 0.75 p;
    Alcotest.(check bool) "the unrelated rule raised the belief" true (p > 0.7)
  | None -> Alcotest.fail "no value"

let test_z_world_ranks () =
  (* κ(w): the normal world ranks 0; a flying penguin falsifies the
     rank-1 penguin rule, so κ = 2; a non-flying bird falsifies only
     the rank-0 bird rule, so κ = 1. *)
  let voc = voc_of tweety_rules in
  let ranked = Defaults.z_ranks voc tweety_rules in
  let world ~bird ~penguin ~fly =
    List.fold_left
      (fun acc (name, set) -> if set then acc lor (1 lsl Prop.var_index voc name) else acc)
      0
      [ ("bird", bird); ("penguin", penguin); ("fly", fly) ]
  in
  Alcotest.(check int) "normal bird" 0
    (Defaults.world_rank voc ranked (world ~bird:true ~penguin:false ~fly:true));
  Alcotest.(check int) "grounded bird" 1
    (Defaults.world_rank voc ranked (world ~bird:true ~penguin:false ~fly:false));
  Alcotest.(check int) "flying penguin" 2
    (Defaults.world_rank voc ranked (world ~bird:true ~penguin:true ~fly:true));
  Alcotest.(check int) "proper penguin" 1
    (Defaults.world_rank voc ranked (world ~bird:true ~penguin:true ~fly:false))

let test_z_ranks_inconsistent_raises () =
  let rules = [ Defaults.rule (v "a") (v "b"); Defaults.rule (v "a") (nt (v "b")) ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Defaults.z_ranks (voc_of rules) rules);
       false
     with Invalid_argument _ -> true)

let test_me_contradictory_rules () =
  (* Contradictory rules a→b, a→¬b: the maxent PPD *is* satisfiable —
     by driving μ(a) to 0 — so the symptom is not infeasibility but an
     undefined conditional (conditioning on the measure-zero a). The
     real inconsistency detector is Adams' ε-consistency, tested in
     epsilon.inconsistent_rules. *)
  let rules = [ Defaults.rule (v "a") (v "b"); Defaults.rule (v "a") (nt (v "b")) ] in
  let voc = voc_of rules in
  (match Me.solve_at voc rules 0.01 with
  | Some mu ->
    let mass_a =
      List.fold_left (fun acc w -> acc +. mu.(w)) 0.0 (Prop.models voc (v "a"))
    in
    Alcotest.(check bool) "a is driven to measure zero" true (mass_a < 1e-4)
  | None -> Alcotest.fail "maxent should be satisfiable with μ(a)=0")

(* ------------------------------------------------------------------ *)
(* Theorem 6.1: ME-plausible consequence ≡ random worlds (unary)      *)
(* ------------------------------------------------------------------ *)

let parse s =
  match Rw_logic.Parser.formula s with
  | Ok f -> f
  | Error msg -> Alcotest.failf "parse %S failed: %s" s msg

let test_theorem_6_1_agreement () =
  (* Translate the Tweety rule base with a *single* approximate
     connective ≈_1 (GMP90 shares one ε) and compare conclusions. *)
  let kb =
    parse
      "||Fly(x) | Bird(x)||_x ~=_1 1 /\\ ||~Fly(x) | Penguin(x)||_x ~=_1 1 /\\ \
       ||Bird(x) | Penguin(x)||_x ~=_1 1"
  in
  let rw_query context phi =
    Randworlds.Answer.point_value
      (Randworlds.Maxent_engine.estimate
         (Rw_compile.Compiled_kb.compile
            (Rw_logic.Syntax.And (kb, parse context)))
         (parse phi))
  in
  let me_query (b, c) = Me.me_conditional tweety_rules (b, c) in
  (* penguin ⇒ ¬fly on both sides *)
  (match (rw_query "Penguin(C)" "~Fly(C)", me_query (v "penguin", nt (v "fly"))) with
  | Some a, Some b ->
    Alcotest.(check (float 0.02)) "Thm 6.1: penguin/¬fly agree" b a
  | _ -> Alcotest.fail "missing value");
  (* bird ⇒ fly on both sides *)
  match (rw_query "Bird(C)" "Fly(C)", me_query (v "bird", v "fly")) with
  | Some a, Some b -> Alcotest.(check (float 0.02)) "Thm 6.1: bird/fly agree" b a
  | _ -> Alcotest.fail "missing value"

(* ------------------------------------------------------------------ *)
(* Reference-class baseline                                           *)
(* ------------------------------------------------------------------ *)

let test_refclass_single () =
  let kb = parse "Jaun(Eric) /\\ ||Hep(x) | Jaun(x)||_x ~=_1 0.8" in
  let o = Rw_refclass.Refclass.infer ~kb ~query_pred:"Hep" ~individual:"Eric" () in
  Alcotest.(check bool) "0.8" true (Interval.equal ~eps:1e-9 o.value (Interval.point 0.8))

let test_refclass_specificity () =
  let kb =
    parse
      "||Fly(x) | Bird(x)||_x ~=_1 1 /\\ ||Fly(x) | Penguin(x)||_x ~=_2 0 /\\ \
       forall x (Penguin(x) => Bird(x)) /\\ Penguin(Tweety) /\\ Bird(Tweety)"
  in
  let o = Rw_refclass.Refclass.infer ~kb ~query_pred:"Fly" ~individual:"Tweety" () in
  Alcotest.(check bool) "penguin class wins" true
    (Interval.equal ~eps:1e-9 o.value (Interval.point 0.0))

let test_refclass_strength_rule () =
  let kb =
    parse
      "0.7 <=_1 ||Chirps(x) | Bird(x)||_x <=_2 0.8 /\\ \
       0 <=_3 ||Chirps(x) | Magpie(x)||_x <=_4 0.99 /\\ \
       forall x (Magpie(x) => Bird(x)) /\\ Magpie(Tweety)"
  in
  let o = Rw_refclass.Refclass.infer ~kb ~query_pred:"Chirps" ~individual:"Tweety" () in
  Alcotest.(check string) "used strength rule" "strength rule" o.reason;
  Alcotest.(check bool) "[0.7,0.8]" true
    (Interval.equal ~eps:1e-9 o.value (Interval.make 0.7 0.8))

let test_refclass_competing_vacuous () =
  (* Section 2.3's Fred: high cholesterol (15% heart disease) and heavy
     smoker (9%) — incomparable classes, so the baseline gives up with
     [0,1] where random worlds combines the evidence. *)
  let kb =
    parse
      "||Heart(x) | Chol(x)||_x ~=_1 0.15 /\\ ||Heart(x) | Smoker(x)||_x ~=_2 0.09 /\\ \
       Chol(Fred) /\\ Smoker(Fred)"
  in
  let o = Rw_refclass.Refclass.infer ~kb ~query_pred:"Heart" ~individual:"Fred" () in
  Alcotest.(check bool) "vacuous" true (Interval.is_vacuous o.value);
  Alcotest.(check string) "reason" "competing incomparable reference classes" o.reason

let test_refclass_disjunctive_pathology () =
  (* Section 2.2: the gerrymandered class (Jaun ∧ ¬Hep) ∨ IsEric is
     more specific and would hijack the answer if allowed. *)
  let kb =
    parse
      "Jaun(Eric) /\\ IsEric(Eric) /\\ forall x (IsEric(x) => Jaun(x)) /\\ \
       ||Hep(x) | Jaun(x)||_x ~=_1 0.8 /\\ \
       ||Hep(x) | (Jaun(x) /\\ ~Hep(x)) \\/ IsEric(x)||_x ~=_2 0.001"
  in
  let banned = Rw_refclass.Refclass.infer ~kb ~query_pred:"Hep" ~individual:"Eric" () in
  Alcotest.(check bool) "ban restores 0.8" true
    (Interval.equal ~eps:1e-9 banned.value (Interval.point 0.8));
  let allowed =
    Rw_refclass.Refclass.infer ~allow_disjunctive:true ~kb ~query_pred:"Hep"
      ~individual:"Eric" ()
  in
  Alcotest.(check bool) "pathological class hijacks" true
    (Interval.hi allowed.value < 0.1)

let test_refclass_footnote_14 () =
  (* Footnote 14: 20% of Republicans and 20% of bankers are pacifists;
     Morgan is both. Kyburg's strength rule fires on the identical
     intervals and says 0.2; random worlds reads the two classes as
     independent evidence *against* pacifism and lands below 0.2 —
     δ(0.2, 0.2) = 1/17 ≈ 0.059. *)
  let kb =
    parse
      "||Pacifist(x) | Republican(x)||_x ~=_1 0.2 /\\ \
       ||Pacifist(x) | Banker(x)||_x ~=_2 0.2 /\\ \
       ||Republican(x) /\\ Banker(x)||_x <=_3 0.0001 /\\ \
       Republican(Morgan) /\\ Banker(Morgan)"
  in
  let o =
    Rw_refclass.Refclass.infer ~kb ~query_pred:"Pacifist" ~individual:"Morgan" ()
  in
  Alcotest.(check string) "Kyburg uses the strength rule" "strength rule" o.reason;
  Alcotest.(check bool) "…and says 0.2" true
    (Interval.equal ~eps:1e-9 o.value (Interval.point 0.2));
  match
    Randworlds.Answer.point_value
      (Randworlds.Engine.degree_of_belief ~kb (parse "Pacifist(Morgan)"))
  with
  | Some v ->
    Alcotest.(check (float 1e-3)) "random worlds combines to δ(0.2,0.2)"
      (Randworlds.Dempster.combine2 0.2 0.2)
      v;
    Alcotest.(check bool) "below 0.2 as the footnote says" true (v < 0.2)
  | None -> Alcotest.fail "no random-worlds value"

let test_refclass_tay_sachs_lost () =
  (* …but the same ban throws away the legitimate disjunctive Tay-Sachs
     class (Section 2.2's criticism of the restriction). *)
  let kb = parse "||TS(x) | EEJ(x) \\/ FC(x)||_x ~=_1 0.02 /\\ EEJ(Eric)" in
  let banned = Rw_refclass.Refclass.infer ~kb ~query_pred:"TS" ~individual:"Eric" () in
  Alcotest.(check bool) "information lost" true (Interval.is_vacuous banned.value);
  let allowed =
    Rw_refclass.Refclass.infer ~allow_disjunctive:true ~kb ~query_pred:"TS"
      ~individual:"Eric" ()
  in
  Alcotest.(check bool) "usable when allowed" true
    (Interval.equal ~eps:1e-9 allowed.value (Interval.point 0.02))

let suite =
  [
    ("prop.eval", `Quick, test_prop_eval);
    ("epsilon.z_partition", `Quick, test_z_partition);
    ("epsilon.inconsistent_rules", `Quick, test_inconsistent_rules);
    ("epsilon.poole_partition", `Quick, test_poole_partition_propositional);
    ("epsilon.p_entailment_specificity", `Quick, test_p_entailment_specificity);
    ("epsilon.p_entailment_no_irrelevance", `Quick, test_p_entailment_no_irrelevance);
    ("epsilon.system_z_irrelevance", `Quick, test_system_z_irrelevance);
    ("epsilon.system_z_drowning", `Quick, test_system_z_drowning);
    ("epsilon.me_fixes_drowning", `Quick, test_me_fixes_drowning);
    ("epsilon.me_nixon", `Quick, test_me_nixon);
    ("epsilon.geffner_anomaly", `Quick, test_geffner_anomaly);
    ("epsilon.z_world_ranks", `Quick, test_z_world_ranks);
    ("epsilon.z_ranks_inconsistent", `Quick, test_z_ranks_inconsistent_raises);
    ("epsilon.me_contradictory", `Quick, test_me_contradictory_rules);
    ("epsilon.theorem_6_1", `Quick, test_theorem_6_1_agreement);
    ("refclass.single", `Quick, test_refclass_single);
    ("refclass.specificity", `Quick, test_refclass_specificity);
    ("refclass.strength_rule", `Quick, test_refclass_strength_rule);
    ("refclass.competing_vacuous", `Quick, test_refclass_competing_vacuous);
    ("refclass.disjunctive_pathology", `Quick, test_refclass_disjunctive_pathology);
    ("refclass.footnote_14", `Quick, test_refclass_footnote_14);
    ("refclass.tay_sachs_lost", `Quick, test_refclass_tay_sachs_lost);
  ]
