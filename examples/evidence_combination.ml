(* The Nixon diamond and Dempster's rule (Theorem 5.26, Section 5.3):
   how random worlds combines competing reference classes, how hard
   conflicting defaults lose their limit, and how tolerance strengths
   (the relative rates at which the τ_i shrink) act as default
   priorities.

   Run with:  dune exec examples/evidence_combination.exe *)

open Rw_logic
open Randworlds

let nixon ~alpha ~beta ~i1 ~i2 =
  Parser.formula_exn
    (Printf.sprintf
       "||Pac(x) | Quaker(x)||_x ~=_%d %g /\\ ||Pac(x) | Repub(x)||_x ~=_%d %g /\\ \
        ||Quaker(x) /\\ Repub(x)||_x <=_9 0.0001 /\\ Quaker(Nixon) /\\ Repub(Nixon)"
       i1 alpha i2 beta)

let query = Parser.formula_exn "Pac(Nixon)"

let () =
  Fmt.pr "Nixon is both a Quaker (pacifist with prob α) and a Republican@.";
  Fmt.pr "(pacifist with prob β); the classes are essentially disjoint.@.@.";

  Fmt.pr "Theorem 5.26: the combination follows Dempster's rule δ(α, β):@.";
  Fmt.pr "  %6s %6s | %10s %10s@." "α" "β" "δ(α,β)" "computed";
  List.iter
    (fun (alpha, beta) ->
      let expected = Dempster.combine2 alpha beta in
      let a =
        Engine.degree_of_belief ~kb:(nixon ~alpha ~beta ~i1:1 ~i2:2) query
      in
      let got =
        match Answer.point_value a with Some v -> Fmt.str "%.4f" v | None -> "—"
      in
      Fmt.pr "  %6.2f %6.2f | %10.4f %10s@." alpha beta expected got)
    [ (0.8, 0.8); (0.7, 0.5); (0.9, 0.3); (0.2, 0.2); (1.0, 0.3) ];

  Fmt.pr
    "@.Conflicting *hard* defaults (α = 1, β = 0) with independent strengths:@.";
  let a = Engine.degree_of_belief ~kb:(nixon ~alpha:1.0 ~beta:0.0 ~i1:1 ~i2:2) query in
  Fmt.pr "  %a@." Answer.pp a;

  Fmt.pr "@.…but with *equal* strength (same ≈_1 connective) the limit is 1/2:@.";
  let a = Engine.degree_of_belief ~kb:(nixon ~alpha:1.0 ~beta:0.0 ~i1:1 ~i2:1) query in
  Fmt.pr "  %a@." Answer.pp a;

  (* Tolerance weights as priorities: drive the Quaker default's τ to 0
     faster (a *stronger* default) and the limit flips to 1; flip the
     priority and it goes to 0. We probe this with the maxent engine on
     structured tolerance vectors. *)
  Fmt.pr "@.Priorities via tolerance strength (Section 5.3):@.";
  let probe ~powers label =
    let tols =
      List.map
        (fun scale -> Tolerance.make ~scale ~powers ())
        [ 0.05; 0.025; 0.0125; 0.00625; 0.003125 ]
    in
    let a =
      Maxent_engine.estimate ~tols
        (Rw_compile.Compiled_kb.compile (nixon ~alpha:1.0 ~beta:0.0 ~i1:1 ~i2:2))
        query
    in
    Fmt.pr "  %-40s %a@." label Answer.pp a
  in
  probe ~powers:[ (1, 2.0) ] "τ₁ = τ² ≪ τ₂ (Quaker default stronger):";
  probe ~powers:[ (2, 2.0) ] "τ₂ = τ² ≪ τ₁ (Republican default stronger):"
