(* Cross-engine validation on randomly generated knowledge bases, plus
   failure-injection tests: the engines implement one definition, so
   wherever two of them speak they must agree. *)

open Rw_logic
open Rw_prelude
open Randworlds

let parse s =
  match Parser.formula s with
  | Ok f -> f
  | Error msg -> Alcotest.failf "parse %S failed: %s" s msg

(* ------------------------------------------------------------------ *)
(* Random KB generators                                               *)
(* ------------------------------------------------------------------ *)

(* A direct-inference instance: a statistic for a class, a fact putting
   the constant in the class, plus irrelevant noise (extra facts, an
   unrelated statistic). The rules engine answers by Theorem 5.6/5.16;
   the maxent engine must agree. *)
type di_instance = {
  alpha : float;  (* statistic for the query class *)
  with_noise_fact : bool;  (* add an irrelevant fact about the constant *)
  with_noise_stat : bool;  (* add a statistic about an unrelated predicate *)
  two_level : bool;  (* put the class under a superclass with a default *)
}

let gen_di =
  QCheck.Gen.(
    let* alpha = oneofl [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 1.0 ] in
    let* with_noise_fact = bool in
    let* with_noise_stat = bool in
    let* two_level = bool in
    return { alpha; with_noise_fact; with_noise_stat; two_level })

let di_kb inst =
  let parts =
    [ Printf.sprintf "||Q(x) | C1(x)||_x ~=_1 %.12g" inst.alpha; "C1(Eric)" ]
    @ (if inst.with_noise_fact then [ "Noise(Eric)" ] else [])
    @ (if inst.with_noise_stat then [ "||Other(x) | C1(x)||_x ~=_3 0.5" ] else [])
    @
    if inst.two_level then
      [ "forall x (C1(x) => C2(x))"; "||Q(x) | C2(x)||_x ~=_2 0.5" ]
    else []
  in
  parse (String.concat " /\\ " parts)

let print_di inst = Pretty.to_string (di_kb inst)

let prop_rules_vs_maxent_direct_inference =
  QCheck.Test.make ~name:"rules and maxent engines agree on direct inference"
    ~count:40
    (QCheck.make ~print:print_di gen_di)
    (fun inst ->
      let kb = di_kb inst in
      let query = parse "Q(Eric)" in
      let compiled = Rw_compile.Compiled_kb.compile kb in
      let rules = Rules_engine.infer compiled query in
      let maxent = Maxent_engine.estimate compiled query in
      match (Answer.point_value rules, Answer.point_value maxent) with
      | Some r, Some m -> Float.abs (r -. m) < 0.02
      | None, Some m -> (
        (* Rules may only know an interval — the maxent point must lie
           inside it. *)
        match rules.Answer.result with
        | Answer.Within i -> Interval.mem ~eps:0.02 m i
        | _ -> true)
      | _, None -> QCheck.Test.fail_reportf "maxent declined: %a" Answer.pp maxent
      )

let prop_profile_tracks_maxent =
  (* The exact finite-N value at a small tolerance must approach the
     maxent asymptote. *)
  QCheck.Test.make ~name:"profile engine approaches the maxent asymptote"
    ~count:15
    (QCheck.make
       ~print:(fun a -> Printf.sprintf "alpha=%g" a)
       QCheck.Gen.(oneofl [ 0.2; 0.4; 0.6; 0.8 ]))
    (fun alpha ->
      let kb = parse (Printf.sprintf "||Q(x) | C(x)||_x ~=_1 %.12g /\\ C(Eric)" alpha) in
      let query = parse "Q(Eric)" in
      let asymptote =
        match
          Answer.point_value
            (Maxent_engine.estimate (Rw_compile.Compiled_kb.compile kb) query)
        with
        | Some v -> v
        | None -> QCheck.Test.fail_report "maxent declined"
      in
      let tau = 0.05 in
      match Unary_engine.pr_n ~kb ~query ~n:60 ~tol:(Tolerance.uniform tau) with
      | Some v -> Float.abs (v -. asymptote) <= tau +. 0.03
      | None -> QCheck.Test.fail_report "no worlds at N=60")

let prop_and_rule_random =
  (* The And rule on randomly built default KBs: two defaults for the
     same class conjoin. *)
  QCheck.Test.make ~name:"And rule on random default pairs" ~count:20
    (QCheck.make
       ~print:(fun (p, q) -> p ^ "," ^ q)
       QCheck.Gen.(
         let preds = [ "Warm"; "Feathered"; "Loud"; "Fast" ] in
         let* p = oneofl preds in
         let* q = oneofl (List.filter (fun x -> x <> p) preds) in
         return (p, q)))
    (fun (p, q) ->
      let kb =
        parse
          (Printf.sprintf
             "||%s(x) | Bird(x)||_x ~=_1 1 /\\ ||%s(x) | Bird(x)||_x ~=_2 1 /\\ \
              Bird(Tweety)"
             p q)
      in
      let both = parse (Printf.sprintf "%s(Tweety) /\\ %s(Tweety)" p q) in
      Defaults.entails ~kb both)

let prop_parser_total =
  (* The parser is total: random byte strings give Ok or Error, never
     an escaped exception. *)
  QCheck.Test.make ~name:"parser never raises on junk" ~count:500
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 40) QCheck.Gen.printable)
    (fun s ->
      match Parser.formula s with Ok _ | Error _ -> true)

let prop_enum_profile_same_consistency =
  (* Consistency verdicts agree between the exact engines. *)
  QCheck.Test.make ~name:"profile and enum agree on consistency" ~count:20
    (QCheck.make
       ~print:(fun (a, t) -> Printf.sprintf "alpha=%g tol=%g" a t)
       QCheck.Gen.(
         let* alpha = oneofl [ 0.0; 0.3; 0.5; 1.0 ] in
         let* tol = oneofl [ 0.02; 0.2 ] in
         return (alpha, tol)))
    (fun (alpha, tau) ->
      let kb =
        parse (Printf.sprintf "forall x (P(x)) /\\ ||P(x)||_x ~=_1 %.12g" alpha)
      in
      let tol = Tolerance.uniform tau in
      let parts = Rw_unary.Analysis.analyze kb in
      let n = 5 in
      let profile_ok = Rw_unary.Profile.consistent_n parts ~n ~tol in
      let vocab = Vocab.of_formula kb in
      let enum_ok =
        not (Rw_bignat.Bignat.is_zero (Rw_model.Enum.count_sat vocab n tol kb))
      in
      profile_ok = enum_ok)

(* ------------------------------------------------------------------ *)
(* Failure injection                                                  *)
(* ------------------------------------------------------------------ *)

let test_vocab_arity_clash () =
  Alcotest.(check bool) "clashing arities rejected" true
    (try
       ignore (Vocab.make ~preds:[ ("P", 1); ("P", 2) ] ~funcs:[]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "pred/func overlap rejected" true
    (try
       ignore (Vocab.make ~preds:[ ("P", 1) ] ~funcs:[ ("P", 0) ]);
       false
     with Invalid_argument _ -> true)

let test_enum_uncovered_formula () =
  let vocab = Vocab.make ~preds:[ ("P", 1) ] ~funcs:[] in
  Alcotest.(check bool) "uncovered formula rejected" true
    (try
       ignore (Rw_model.Enum.count_sat vocab 3 (Tolerance.uniform 0.1) (parse "Q(x0) \\/ true"));
       false
     with Invalid_argument _ -> true)

let test_inconsistent_kb_detected () =
  let kb = parse "||P(x)||_x ~=_1 0.9 /\\ ||P(x)||_x ~=_2 0.1" in
  let a = Engine.degree_of_belief ~kb (parse "P(C)") in
  Alcotest.(check bool) "Inconsistent verdict" true
    (match a.Answer.result with Answer.Inconsistent -> true | _ -> false)

let test_tolerance_invalid () =
  Alcotest.(check bool) "zero scale" true
    (try
       ignore (Tolerance.uniform 0.0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative weight" true
    (try
       ignore (Tolerance.make ~scale:0.1 ~weights:[ (1, -2.0) ] ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "shrink factor out of range" true
    (try
       ignore (Tolerance.shrink (Tolerance.uniform 0.1) 1.5);
       false
     with Invalid_argument _ -> true)

let test_atoms_too_many_predicates () =
  let names = List.init 17 (fun i -> Printf.sprintf "P%d" i) in
  Alcotest.(check bool) "universe capped" true
    (try
       ignore (Atoms.universe names);
       false
     with Invalid_argument _ -> true)

let test_open_query_rejected_by_enum () =
  let vocab = Vocab.make ~preds:[ ("P", 1) ] ~funcs:[] in
  Alcotest.(check bool) "open sentence rejected by eval" true
    (try
       ignore (Rw_model.Enum.count_sat vocab 3 (Tolerance.uniform 0.1) (parse "P(y)"));
       false
     with Invalid_argument _ -> true)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    q prop_rules_vs_maxent_direct_inference;
    q prop_profile_tracks_maxent;
    q prop_and_rule_random;
    q prop_parser_total;
    q prop_enum_profile_same_consistency;
    ("inject.vocab_arity_clash", `Quick, test_vocab_arity_clash);
    ("inject.enum_uncovered", `Quick, test_enum_uncovered_formula);
    ("inject.inconsistent_kb", `Quick, test_inconsistent_kb_detected);
    ("inject.tolerance_invalid", `Quick, test_tolerance_invalid);
    ("inject.too_many_predicates", `Quick, test_atoms_too_many_predicates);
    ("inject.open_query", `Quick, test_open_query_rejected_by_enum);
  ]
