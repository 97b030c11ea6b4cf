(* Tests for rw_unary: KB analysis, constraint extraction, the
   maximum-entropy solver, and the exact profile-counting engine —
   cross-validated against the literal enumeration engine. *)

open Rw_logic
open Rw_unary
open Rw_bignat

let parse s =
  match Parser.formula s with
  | Ok f -> f
  | Error msg -> Alcotest.failf "parse %S failed: %s" s msg

let check_close = Alcotest.(check (float 1e-3))

(* ------------------------------------------------------------------ *)
(* Analysis                                                           *)
(* ------------------------------------------------------------------ *)

let hep_kb =
  parse
    "Jaun(Eric) /\\ ||Hep(x) | Jaun(x)||_x ~=_1 0.8 /\\ ||Hep(x)||_x <=_2 0.05"

let test_analysis_classification () =
  let parts = Analysis.analyze hep_kb in
  Alcotest.(check int) "no universals" 0 (List.length parts.Analysis.universals);
  Alcotest.(check int) "two statisticals" 2 (List.length parts.Analysis.statisticals);
  Alcotest.(check int) "one fact" 1 (List.length parts.Analysis.const_facts);
  Alcotest.(check bool) "fully supported" true (Analysis.fully_supported parts);
  Alcotest.(check (list string)) "constants" [ "Eric" ] (Analysis.constants parts)

let test_analysis_universals () =
  let kb = parse "forall x (Penguin(x) => Bird(x)) /\\ ||Fly(x) | Bird(x)||_x ~=_1 1" in
  let parts = Analysis.analyze kb in
  Alcotest.(check int) "one universal" 1 (List.length parts.Analysis.universals);
  (* Atoms with Penguin ∧ ¬Bird excluded: 8 atoms over {Bird,Fly,Penguin},
     2 excluded. *)
  let allowed = Analysis.allowed_atoms parts in
  Alcotest.(check int) "six allowed atoms" 6
    (List.length (Atoms.members parts.Analysis.universe allowed))

let test_analysis_unsupported () =
  let kb = parse "||Likes(x,y)||_{x,y} ~=_1 0.5 /\\ Bird(Tweety)" in
  let parts = Analysis.analyze kb in
  Alcotest.(check bool) "flagged" false (Analysis.fully_supported parts);
  Alcotest.(check int) "one unsupported" 1 (List.length parts.Analysis.unsupported)

let test_fact_atoms () =
  let parts = Analysis.analyze hep_kb in
  let u = parts.Analysis.universe in
  let set =
    Analysis.fact_atoms parts ~allowed:(Analysis.allowed_atoms parts) "Eric"
  in
  (* Eric is jaundiced: allowed atoms are exactly those satisfying Jaun. *)
  List.iter
    (fun a ->
      Alcotest.(check bool) "every fact atom satisfies Jaun" true
        (Atoms.atom_satisfies u a "Jaun"))
    (Atoms.members u set);
  Alcotest.(check int) "two atoms (Hep free)" 2 (List.length (Atoms.members u set))

(* ------------------------------------------------------------------ *)
(* Atoms                                                              *)
(* ------------------------------------------------------------------ *)

let test_atoms_basics () =
  let u = Atoms.universe [ "Fly"; "Bird" ] in
  Alcotest.(check int) "4 atoms" 4 (Atoms.num_atoms u);
  (* Alphabetical: Bird is bit 0, Fly bit 1. *)
  Alcotest.(check bool) "atom 1 has Bird" true (Atoms.atom_satisfies u 1 "Bird");
  Alcotest.(check bool) "atom 1 lacks Fly" false (Atoms.atom_satisfies u 1 "Fly");
  let ext = Atoms.extension_var u "x" (parse "Bird(x)" |> fun f -> f) in
  Alcotest.(check (list int)) "extension of Bird" [ 1; 3 ] (Atoms.members u ext)

let test_atoms_entailment () =
  let u = Atoms.universe [ "Bird"; "Penguin"; "Fly" ] in
  let theory = Atoms.theory u [ parse "forall x (Penguin(x) => Bird(x))" ] in
  Alcotest.(check bool) "Penguin entails Bird under theory" true
    (Atoms.entails ~theory u "x" (parse "Penguin(x)") (parse "Bird(x)"));
  Alcotest.(check bool) "Bird does not entail Penguin" false
    (Atoms.entails ~theory u "x" (parse "Bird(x)") (parse "Penguin(x)"));
  Alcotest.(check bool) "disjointness" true
    (Atoms.disjoint u "x" (parse "Penguin(x)") (parse "~Penguin(x)"));
  Alcotest.(check bool) "equivalence modulo theory" true
    (Atoms.equivalent ~theory u "x" (parse "Penguin(x)")
       (parse "Penguin(x) /\\ Bird(x)"))

let test_atom_sets () =
  (* The width-aware bitset, exercised past the 62-atom int limit. *)
  let open Atoms.Set in
  let w = 100 in
  let a = of_list w [ 0; 63; 99 ] and b = of_list w [ 63; 64 ] in
  Alcotest.(check bool) "mem high bit" true (mem a 99);
  Alcotest.(check bool) "not mem" false (mem a 64);
  Alcotest.(check (list int)) "inter" [ 63 ] (members (inter a b));
  Alcotest.(check (list int)) "union" [ 0; 63; 64; 99 ] (members (union a b));
  Alcotest.(check (list int)) "diff" [ 0; 99 ] (members (diff a b));
  Alcotest.(check int) "complement size" 97 (cardinal (complement a));
  Alcotest.(check bool) "subset" true (subset (of_list w [ 63 ]) a);
  Alcotest.(check bool) "not subset" false (subset b a);
  Alcotest.(check bool) "full has all" true (mem (full w) 99);
  Alcotest.(check bool) "empty" true (is_empty (create w));
  Alcotest.(check bool) "width mismatch" true
    (try
       ignore (inter a (create 5));
       false
     with Invalid_argument _ -> true)

let test_atoms_not_boolean () =
  let u = Atoms.universe [ "P" ] in
  Alcotest.(check bool) "quantifier rejected" false
    (Atoms.is_boolean_over u ~subject:(Syntax.Var "x") (parse "forall y (P(y))"));
  Alcotest.(check bool) "wrong subject rejected" false
    (Atoms.is_boolean_over u ~subject:(Syntax.Var "x") (parse "P(y)"))

(* ------------------------------------------------------------------ *)
(* Maxent solver on paper examples                                    *)
(* ------------------------------------------------------------------ *)

let tol = Tolerance.uniform 1e-4

let solve_belief kb query_pred const =
  let parts = Analysis.analyze ~extra_preds:[ query_pred ] kb in
  let u = parts.Analysis.universe in
  let query_set = Atoms.extension_var u "x" (Syntax.pred query_pred [ Syntax.var "x" ]) in
  let given_set =
    Analysis.fact_atoms parts ~allowed:(Analysis.allowed_atoms parts) const
  in
  match Solver.conditional (Solver.solve parts tol) ~num:query_set ~den:given_set with
  | Some v -> v
  | None -> Alcotest.fail "belief undefined"

let test_solver_black_birds () =
  (* Example 5.29: Pr(Black(Clyde)) = 0.47, not the naive 0.2. *)
  let kb = parse "||Black(x) | Bird(x)||_x ~=_1 0.2 /\\ ||Bird(x)||_x ~=_2 0.1 /\\ Animal(Clyde)" in
  check_close "0.47" 0.47 (solve_belief kb "Black" "Clyde")

let test_solver_section6 () =
  (* Section 6 worked example: Pr(P2(c)) = 0.3. *)
  let kb = parse "forall x (P1(x)) /\\ ||P1(x) /\\ P2(x)||_x <=_1 0.3 /\\ P1(C)" in
  check_close "0.3" 0.3 (solve_belief kb "P2" "C")

let test_solver_direct_inference () =
  (* Example 5.8: the hepatitis statistic transfers to Eric. *)
  check_close "0.8" 0.8 (solve_belief hep_kb "Hep" "Eric")

let test_solver_specificity () =
  (* Example 5.10: penguins do not fly, though birds do. *)
  let kb =
    parse
      "||Fly(x) | Bird(x)||_x ~=_1 1 /\\ ||Fly(x) | Penguin(x)||_x ~=_2 0 /\\ \
       forall x (Penguin(x) => Bird(x)) /\\ Penguin(Tweety)"
  in
  check_close "0" 0.0 (solve_belief kb "Fly" "Tweety")

let test_solver_inheritance () =
  (* Example 5.20: exceptional subclasses still inherit unrelated
     properties: Tweety the penguin is warm-blooded. *)
  let kb =
    parse
      "||Fly(x) | Bird(x)||_x ~=_1 1 /\\ ||Fly(x) | Penguin(x)||_x ~=_2 0 /\\ \
       forall x (Penguin(x) => Bird(x)) /\\ ||Warm(x) | Bird(x)||_x ~=_3 1 /\\ \
       Penguin(Tweety)"
  in
  check_close "1" 1.0 (solve_belief kb "Warm" "Tweety")

let test_solver_dempster () =
  (* Theorem 5.26 via maxent: two essentially-disjoint reference
     classes with α = β = 0.8 combine to δ(0.8,0.8) = 16/17 ≈ 0.941. *)
  let kb =
    parse
      "||P(x) | Psi1(x)||_x ~=_1 0.8 /\\ ||P(x) | Psi2(x)||_x ~=_2 0.8 /\\ \
       ||Psi1(x) /\\ Psi2(x)||_x <=_3 0.0001 /\\ Psi1(C) /\\ Psi2(C)"
  in
  let expected = (0.8 *. 0.8) /. ((0.8 *. 0.8) +. (0.2 *. 0.2)) in
  Alcotest.(check (float 0.02)) "Dempster" expected (solve_belief kb "P" "C")

let test_solver_infeasible () =
  (* Contradictory statistics: no proportion vector works. *)
  let kb = parse "||P(x)||_x ~=_1 0.9 /\\ ||P(x)||_x ~=_2 0.1" in
  let parts = Analysis.analyze kb in
  Alcotest.(check bool) "inconsistent" false (Solver.consistent_at parts tol);
  Alcotest.(check bool) "consistent variant" true
    (Solver.consistent_at (Analysis.analyze (parse "||P(x)||_x ~=_1 0.9")) tol)

let test_solver_poole_partition () =
  (* Section 5.5: a class equal to a finite union of subclasses, each
     exceptional (negligible), is inconsistent under the ≈1 reading. *)
  let kb =
    parse
      "forall x (Bird(x) <=> Emu(x) \\/ Penguin(x)) /\\ \
       ||Emu(x) | Bird(x)||_x ~=_1 0 /\\ ||Penguin(x) | Bird(x)||_x ~=_1 0 /\\ \
       ||Bird(x)||_x >=_2 0.1"
  in
  let parts = Analysis.analyze kb in
  Alcotest.(check bool) "Poole partition infeasible" false
    (Solver.consistent_at parts (Tolerance.uniform 1e-3))

(* ------------------------------------------------------------------ *)
(* Exact profile engine                                               *)
(* ------------------------------------------------------------------ *)

let test_profile_matches_enum () =
  (* The profile engine must agree exactly with literal enumeration on
     a unary KB (they count the same worlds). *)
  let open Rw_model in
  let kb = parse "||P(x)||_x ~=_1 0.6666667 /\\ Q(C)" in
  let query = parse "P(C)" in
  let tol = Tolerance.uniform 0.05 in
  let parts = Analysis.analyze kb in
  let vocab = Vocab.of_formulas [ kb; query ] in
  List.iter
    (fun n ->
      let num, den = Enum.count_sat2 vocab n tol (Syntax.And (query, kb)) kb in
      match Profile.pr_n parts ~query ~n ~tol with
      | Some got ->
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "agree at N=%d" n)
          (Bignat.ratio num den) got
      | None ->
        (* 2/3 is not representable at every N under this tolerance:
           both engines must then agree there are no worlds. *)
        Alcotest.(check bool)
          (Printf.sprintf "both empty at N=%d" n)
          true (Bignat.is_zero den))
    [ 3; 4; 5; 6 ]

let test_profile_matches_enum_statistical_query () =
  let open Rw_model in
  let kb = parse "||P(x) | Q(x)||_x ~=_1 1 /\\ Q(C)" in
  let query = parse "||P(x)||_x >=_2 0.5" in
  let tol = Tolerance.uniform 0.2 in
  let parts = Analysis.analyze kb in
  let vocab = Vocab.of_formulas [ kb; query ] in
  List.iter
    (fun n ->
      let num, den = Enum.count_sat2 vocab n tol (Syntax.And (query, kb)) kb in
      let expected = Bignat.ratio num den in
      match Profile.pr_n parts ~query ~n ~tol with
      | Some got ->
        Alcotest.(check (float 1e-9)) (Printf.sprintf "agree at N=%d" n) expected got
      | None -> Alcotest.fail "no worlds")
    [ 3; 4; 5 ]

let test_profile_direct_inference_trend () =
  (* Pr_N(Hep(Eric) | KB'_hep) must approach 0.8 as N grows (KB'_hep
     without the ||Hep|| <= 0.05 conjunct, which is unsatisfiable at
     small N under tight tolerances). *)
  let parts =
    Analysis.analyze (parse "Jaun(Eric) /\\ ||Hep(x) | Jaun(x)||_x ~=_1 0.8")
  in
  let query = parse "Hep(Eric)" in
  let at tau n =
    match Profile.pr_n parts ~query ~n ~tol:(Tolerance.uniform tau) with
    | Some v -> v
    | None -> Alcotest.fail "no worlds"
  in
  (* The double limit lim_{τ→0} lim_{N→∞}: at fixed τ the value settles
     within τ of 0.8; shrinking τ tightens it towards 0.8. *)
  Alcotest.(check bool) "within τ=0.05 band" true
    (Float.abs (at 0.05 60 -. 0.8) <= 0.05 +. 1e-9);
  Alcotest.(check bool) "within τ=0.02 band" true
    (Float.abs (at 0.02 60 -. 0.8) <= 0.02 +. 1e-9);
  Alcotest.(check bool) "smaller τ is at least as tight" true
    (Float.abs (at 0.02 60 -. 0.8) <= Float.abs (at 0.05 60 -. 0.8) +. 1e-9)

let test_profile_unsupported_equality () =
  let kb = parse "C = D" in
  let parts = Analysis.analyze kb in
  Alcotest.(check bool) "flagged unsupported" false (Analysis.fully_supported parts);
  Alcotest.(check bool) "raises" true
    (try
       ignore (Profile.pr_n parts ~query:(parse "true") ~n:3 ~tol);
       false
     with Profile.Unsupported _ -> true)

let test_profile_consistency () =
  let parts = Analysis.analyze (parse "forall x (P(x)) /\\ ||P(x)||_x <=_1 0.5") in
  Alcotest.(check bool) "inconsistent at small tolerance" false
    (Profile.consistent_n parts ~n:10 ~tol:(Tolerance.uniform 0.05));
  Alcotest.(check bool) "consistent at huge tolerance" true
    (Profile.consistent_n parts ~n:10 ~tol:(Tolerance.uniform 0.6))

let test_profile_cost_estimate () =
  let parts = Analysis.analyze hep_kb in
  Alcotest.(check bool) "cost positive and finite" true
    (let c = Profile.cost_estimate parts ~n:40 in
     c > 0.0 && Float.is_finite c)

(* Property: profile engine and enumeration agree on random small
   unary KBs. *)
let prop_profile_enum_agree =
  QCheck.Test.make ~name:"profile engine ≡ enumeration on unary KBs" ~count:25
    (QCheck.make
       QCheck.Gen.(
         let pct = oneofl [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
         let* alpha = pct in
         let* n = int_range 3 5 in
         let* with_fact = bool in
         return (alpha, n, with_fact)))
    (fun (alpha, n, with_fact) ->
      let open Rw_model in
      let kb_src =
        if with_fact then Printf.sprintf "||P(x) | Q(x)||_x ~=_1 %g /\\ Q(C)" alpha
        else Printf.sprintf "||P(x)||_x ~=_1 %g /\\ Q(C)" alpha
      in
      let kb = parse kb_src in
      let query = parse "P(C)" in
      let tol = Tolerance.uniform 0.07 in
      let parts = Analysis.analyze kb in
      let vocab = Vocab.of_formulas [ kb; query ] in
      let num, den = Enum.count_sat2 vocab n tol (Syntax.And (query, kb)) kb in
      if Bignat.is_zero den then Profile.pr_n parts ~query ~n ~tol = None
      else begin
        match Profile.pr_n parts ~query ~n ~tol with
        | Some got -> Float.abs (got -. Bignat.ratio num den) < 1e-9
        | None -> false
      end)

(* ------------------------------------------------------------------ *)
(* One maxent read-off on a vanishing conditioning mass               *)
(* ------------------------------------------------------------------ *)

module Compiled_kb = Rw_compile.Compiled_kb
module Trace = Rw_trace.Trace

let load_corpus_kb name =
  let dir =
    match
      List.find_opt Sys.file_exists
        [ "../examples/kb"; "examples/kb"; "../../examples/kb" ]
    with
    | Some d -> d
    | None -> Alcotest.fail "examples/kb corpus not found"
  in
  match Kb_file.validated_load (Filename.concat dir name) with
  | Ok kb -> kb
  | Error msg -> Alcotest.failf "%s failed to load: %s" name msg

(* Reference: the conditional distribution read off a re-solve that
   floors the mass of [given] at 1e-7 — the construction the engine
   once used whenever that mass fell below 1e-6. *)
let floored_distribution (parts : Analysis.parts) tol ~given =
  let u = parts.Analysis.universe in
  let dim = Atoms.num_atoms u in
  let atoms = Atoms.members u given in
  let den = Rw_numeric.Vec.create dim 0.0 in
  List.iter (fun a -> den.(a) <- -1.0) atoms;
  let r =
    Rw_numeric.Entropy_opt.solve ~dim
      (Rw_numeric.Entropy_opt.Le (den, -1e-7) :: Constraints.of_parts parts tol)
  in
  let p = r.Rw_numeric.Entropy_opt.point in
  let m = List.fold_left (fun acc a -> acc +. p.(a)) 0.0 atoms in
  List.map (fun a -> (a, p.(a) /. m)) atoms

(* On taxonomy, Penguin(Opus)'s mass at the maxent point falls to
   ~1e-8 at the small tolerances. The engine's per-tolerance belief in
   Fly(Opus) must still be exactly the conditional read off the
   memoised point, and stay within 1e-7 of the floored reference. *)
let test_vanishing_mass_readoff () =
  let kb = load_corpus_kb "taxonomy.kb" in
  let c = Compiled_kb.compile kb in
  let tr = Trace.create () in
  ignore (Randworlds.Maxent_engine.estimate ~trace:tr c (parse "Fly(Opus)"));
  let traced =
    List.filter_map
      (function
        | Trace.Fact { tag = "tolerance"; fields } -> (
          match List.assoc_opt "value" fields with
          | Some (Trace.F v) -> Some v
          | _ -> None)
        | _ -> None)
      (Trace.events tr)
  in
  Alcotest.(check int) "one belief per tolerance"
    (List.length Compiled_kb.default_schedule)
    (List.length traced);
  let parts = Analysis.analyze ~extra_preds:[ "Fly" ] kb in
  let u = parts.Analysis.universe in
  let given = Analysis.fact_atoms parts ~allowed:(Compiled_kb.allowed c u) "Opus" in
  let fly dist =
    List.fold_left
      (fun acc (a, p) ->
        if p > 0.0 && Atoms.atom_satisfies u a "Fly" then acc +. p else acc)
      0.0 dist
  in
  let vanishing =
    List.fold_left2
      (fun vanishing tol v ->
        let sol = Compiled_kb.solve c tol in
        let readoff =
          match Solver.conditional_distribution sol ~given with
          | Some d -> fly d
          | None -> Alcotest.fail "Penguin(Opus) has zero mass"
        in
        let at = Fmt.str "%a" Tolerance.pp tol in
        Alcotest.(check bool) (at ^ ": bit-identical read-off") true
          (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float readoff));
        if Solver.mass sol given > 1e-6 then vanishing
        else begin
          Alcotest.(check (float 1e-7)) (at ^ ": floored reference")
            (fly (floored_distribution parts tol ~given))
            v;
          vanishing + 1
        end)
      0 Compiled_kb.default_schedule traced
  in
  Alcotest.(check bool) "some tolerances have vanishing mass" true (vanishing > 0)

(* ------------------------------------------------------------------ *)
(* Lifting the memoised point to absent predicates                    *)
(* ------------------------------------------------------------------ *)

(* A predicate the KB never mentions is uniform and independent of the
   rest at the maxent point, so lifting the memoised point must match
   a direct solve over the extended universe — the only place that
   direct solve still runs. The absent names sort before and after the
   corpus predicates, so the projection moves bits both ways. *)
let test_lift_matches_extended_solve () =
  let files =
    List.filter
      (fun f -> Analysis.fully_supported (Analysis.analyze (load_corpus_kb f)))
      [ "black_birds.kb"; "broken_arm.kb"; "hepatitis.kb"; "late_risers.kb";
        "nixon.kb"; "taxonomy.kb"; "tay_sachs.kb"; "tweety.kb" ]
  in
  Alcotest.(check bool) "most of the corpus is unary" true (List.length files >= 6);
  List.iter
    (fun file ->
      let kb = load_corpus_kb file in
      let c = Compiled_kb.compile kb in
      List.iter
        (fun tol ->
          let at = Fmt.str "%s %a" file Tolerance.pp tol in
          match Compiled_kb.solve c tol with
          | exception Solver.Infeasible _ ->
            Alcotest.(check bool) (at ^ ": infeasible either way") false
              (Solver.consistent_at (Analysis.analyze ~extra_preds:[ "AAbsent" ] kb) tol)
          | sol ->
            Alcotest.(check bool) (at ^ ": no predicate added") true
              (Solver.lift sol sol.Solver.parts.Analysis.universe == sol);
            List.iter
              (fun extra ->
                let direct = Solver.solve (Analysis.analyze ~extra_preds:extra kb) tol in
                let u = direct.Solver.parts.Analysis.universe in
                let lifted = Solver.lift sol u in
                let at = Fmt.str "%s +%s" at (String.concat "," extra) in
                Alcotest.(check int) (at ^ ": atoms")
                  (Array.length direct.Solver.point) (Array.length lifted.Solver.point);
                Array.iteri
                  (fun a p ->
                    if Float.abs (p -. lifted.Solver.point.(a)) > 1e-12 then
                      Alcotest.failf "%s: atom %a: lifted %.17g, direct %.17g" at
                        (Atoms.pp_atom u) a lifted.Solver.point.(a) p)
                  direct.Solver.point;
                Alcotest.(check (float 1e-12)) (at ^ ": entropy")
                  direct.Solver.entropy lifted.Solver.entropy)
              [ [ "AAbsent" ]; [ "AAbsent"; "Zabsent" ] ])
        Compiled_kb.default_schedule)
    files

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("analysis.classification", `Quick, test_analysis_classification);
    ("analysis.universals", `Quick, test_analysis_universals);
    ("analysis.unsupported", `Quick, test_analysis_unsupported);
    ("analysis.fact_atoms", `Quick, test_fact_atoms);
    ("atoms.basics", `Quick, test_atoms_basics);
    ("atoms.entailment", `Quick, test_atoms_entailment);
    ("atoms.not_boolean", `Quick, test_atoms_not_boolean);
    ("atoms.sets", `Quick, test_atom_sets);
    ("solver.black_birds_0.47", `Quick, test_solver_black_birds);
    ("solver.section6_0.3", `Quick, test_solver_section6);
    ("solver.direct_inference_0.8", `Quick, test_solver_direct_inference);
    ("solver.specificity_penguin", `Quick, test_solver_specificity);
    ("solver.exceptional_inheritance", `Quick, test_solver_inheritance);
    ("solver.dempster", `Quick, test_solver_dempster);
    ("solver.infeasible", `Quick, test_solver_infeasible);
    ("solver.poole_partition", `Quick, test_solver_poole_partition);
    ("profile.matches_enum", `Quick, test_profile_matches_enum);
    ("profile.matches_enum_statistical", `Quick, test_profile_matches_enum_statistical_query);
    ("profile.direct_inference_trend", `Slow, test_profile_direct_inference_trend);
    ("profile.unsupported_equality", `Quick, test_profile_unsupported_equality);
    ("profile.consistency", `Quick, test_profile_consistency);
    ("profile.cost_estimate", `Quick, test_profile_cost_estimate);
    q prop_profile_enum_agree;
    ("solver.vanishing_mass_readoff", `Quick, test_vanishing_mass_readoff);
    ("solver.lift_matches_extended_solve", `Quick, test_lift_matches_extended_solve);
  ]
