(* Learning and acceptance (Section 7.3): random worlds does not learn
   from samples — and the random-propensities variant, which does,
   learns too often. Both sides of the paper's discussion, computed.

   Run with:  dune exec examples/learning.exe *)

open Rw_logic
open Rw_unary

let parse = Parser.formula_exn

let observed_fliers m =
  parse (String.concat " /\\ " (List.init m (fun i -> Printf.sprintf "Fly(C%d)" i)))

let () =
  Fmt.pr "OBSERVING m FLYING BIRDS, THEN ASKING ABOUT A NEW ONE@.@.";
  Fmt.pr "%4s %22s %22s %14s@." "m" "random worlds (N→∞)" "random propensities"
    "Laplace m+1/m+2";
  List.iter
    (fun m ->
      let kb = observed_fliers m in
      let query = parse "Fly(Cnew)" in
      (* Random worlds: extrapolate the uniform-prior finite-N values
         (they carry an O(1/N) placement bias; the limit is 1/2). *)
      let parts = Analysis.analyze kb in
      let rw =
        let at n =
          Option.get (Profile.pr_n parts ~query ~n ~tol:(Tolerance.uniform 0.05))
        in
        let intercept, _, _ =
          Randworlds.Limits.linear_intercept
            [ 1.0 /. 20.0; 1.0 /. 40.0; 1.0 /. 80.0 ]
            [ at 20; at 40; at 80 ]
        in
        intercept
      in
      let prop =
        match Propensity.estimate ~ns:[ 20; 30; 40 ] ~kb query with
        | Some v -> v
        | None -> Float.nan
      in
      Fmt.pr "%4d %22.4f %22.4f %14.4f@." m rw prop
        (float_of_int (m + 1) /. float_of_int (m + 2)))
    [ 1; 3; 8 ];
  Fmt.pr
    "@.Random worlds treats individuals as independent: the sample is\n\
     ignored (Pr → 1/2). Random propensities recovers Laplace's rule of\n\
     succession.@.@.";

  Fmt.pr "…BUT PROPENSITIES LEARN TOO OFTEN (the paper's criticism)@.@.";
  let kb = parse "forall x (Giraffe(x) => Tall(x))" in
  let query = parse "Tall(C)" in
  let rw =
    match
      Randworlds.Answer.point_value
        (Randworlds.Maxent_engine.estimate (Rw_compile.Compiled_kb.compile kb) query)
    with
    | Some v -> v
    | None -> Float.nan
  in
  let prop =
    match Propensity.estimate ~ns:[ 20; 30; 40 ] ~kb query with
    | Some v -> v
    | None -> Float.nan
  in
  Fmt.pr "  KB = \"all giraffes are tall\" (no sampling information at all)@.";
  Fmt.pr "  Pr(Tall(C)) — random worlds:      %.4f  (uniform over allowed atoms)@." rw;
  Fmt.pr "  Pr(Tall(C)) — random propensities: %.4f  (inflated by a mere implication)@."
    prop
