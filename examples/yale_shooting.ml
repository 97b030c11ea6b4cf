(* Causal and temporal information (Section 7.1): the paper records
   that random worlds "gives unintuitive results when used with the
   most straightforward representations of temporal knowledge" — the
   same criticism long made of maximum entropy (Hunter, Pearl), with
   the Yale Shooting Problem as the emblem. This example reproduces the
   failure, and shows the direction of the repair the paper cites
   (strengthening the causal rule relative to the persistence default).

   Encoding: domain individuals are *scenarios* (histories); fluents at
   each time step are unary predicates over scenarios.

     t=0: the gun is loaded, Fred is alive.
     t=1: the gun is fired.

   Naive KB: persistence defaults for both fluents, plus the causal
   effect "shooting a loaded gun kills" — all with tolerances of equal
   strength:

     ||Loaded1(s) | Loaded0(s)||_s  ≈ 1      (guns stay loaded)
     ||Alive1(s)  | Alive0(s)||_s   ≈ 1      (living things stay alive)
     ∀s (Loaded1(s) ⇒ ¬Alive1(s))            (a loaded gun, when fired, kills)

   Intuition says: the gun stays loaded, so Fred dies. But the KB is
   symmetric: a scenario can just as well preserve Alive by violating
   the Loaded-persistence default ("the gun mysteriously unloads").

   Run with:  dune exec examples/yale_shooting.exe *)

open Rw_logic
open Randworlds

let naive_kb =
  "||Loaded1(s) | Loaded0(s)||_s ~=_1 1 /\\ \
   ||Alive1(s) | Alive0(s)||_s ~=_2 1 /\\ \
   forall s (Loaded1(s) => ~Alive1(s)) /\\ \
   Loaded0(Story) /\\ Alive0(Story)"

let () =
  Fmt.pr "THE YALE SHOOTING PROBLEM, NAIVELY REPRESENTED@.@.";
  Fmt.pr "%s@.@." naive_kb;

  let kb = Parser.formula_exn naive_kb in
  let dead = Parser.formula_exn "~Alive1(Story)" in
  let a = Engine.degree_of_belief ~kb dead in
  Fmt.pr "Pr( Fred dies ) = %a@." Answer.pp a;
  Fmt.pr
    "— the intuitive answer is 1, but the two persistence defaults\n\
     conflict through the causal rule, exactly like the Nixon diamond:\n\
     with equal default strengths random worlds splits the difference.@.@.";

  (* The τ-priority probe: which default is 'stronger' decides the
     outcome — the repair direction of [BGHK94a]/Hunter is to make the
     causal/persistence structure explicit rather than leaving it to
     symmetric defaults. *)
  Fmt.pr "Tolerance priorities flip the verdict (Section 5.3 machinery):@.";
  let probe label powers =
    let tols =
      List.map
        (fun scale -> Tolerance.make ~scale ~powers ())
        [ 0.05; 0.025; 0.0125; 0.00625; 0.003125 ]
    in
    let a = Maxent_engine.estimate ~tols (Rw_compile.Compiled_kb.compile kb) dead in
    Fmt.pr "  %-52s %a@." label Answer.pp a
  in
  probe "equal strengths (the naive reading):" [];
  probe "gun persistence stronger (τ₁ = τ²):" [ (1, 2.0) ];
  probe "life persistence stronger (τ₂ = τ²):" [ (2, 2.0) ];

  Fmt.pr
    "@.With the gun-persistence default strengthened — the causally\n\
     sensible reading — Fred dies with degree of belief 1; weighting\n\
     life-persistence instead revives the anomalous model. The naive\n\
     symmetric representation cannot choose between them: that is the\n\
     Section 7.1 criticism, reproduced.@."
