(* Tests for rw_logic: syntax operations, parser, pretty-printer. *)

open Rw_logic
open Syntax

let formula_eq = Alcotest.testable Pretty.pp_formula Syntax.equal

let parse s =
  match Parser.formula s with
  | Ok f -> f
  | Error msg -> Alcotest.failf "parse %S failed: %s" s msg

let parse_err s =
  match Parser.formula s with
  | Ok f -> Alcotest.failf "expected parse of %S to fail, got %s" s (Pretty.to_string f)
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

let test_parse_atoms () =
  Alcotest.check formula_eq "nullary predicate" (Pred ("P", [])) (parse "P");
  Alcotest.check formula_eq "unary predicate" (Pred ("Hep", [ Var "x" ])) (parse "Hep(x)");
  Alcotest.check formula_eq "constant argument"
    (Pred ("Jaun", [ Fn ("Eric", []) ]))
    (parse "Jaun(Eric)");
  Alcotest.check formula_eq "binary predicate"
    (Pred ("Likes", [ Fn ("Clyde", []); Fn ("Fred", []) ]))
    (parse "Likes(Clyde, Fred)");
  Alcotest.check formula_eq "function application"
    (Pred ("RisesLate", [ Var "x"; Fn ("Next_day", [ Var "y" ]) ]))
    (parse "RisesLate(x, Next_day(y))");
  Alcotest.check formula_eq "true" True (parse "true");
  Alcotest.check formula_eq "false" False (parse "false")

let test_parse_equality () =
  Alcotest.check formula_eq "equality"
    (Eq (Fn ("Ray", []), Fn ("Reiter", [])))
    (parse "Ray = Reiter");
  Alcotest.check formula_eq "inequality"
    (Not (Eq (Var "x", Fn ("Fred", []))))
    (parse "x != Fred")

let test_parse_connectives () =
  Alcotest.check formula_eq "and assoc"
    (And (And (Pred ("A", []), Pred ("B", [])), Pred ("C", [])))
    (parse "A /\\ B /\\ C");
  Alcotest.check formula_eq "or"
    (Or (Pred ("A", []), Pred ("B", [])))
    (parse "A \\/ B");
  Alcotest.check formula_eq "precedence: and binds tighter"
    (Or (And (Pred ("A", []), Pred ("B", [])), Pred ("C", [])))
    (parse "A /\\ B \\/ C");
  Alcotest.check formula_eq "implies right assoc"
    (Implies (Pred ("A", []), Implies (Pred ("B", []), Pred ("C", []))))
    (parse "A => B => C");
  Alcotest.check formula_eq "iff"
    (Iff (Pred ("A", []), Pred ("B", [])))
    (parse "A <=> B");
  Alcotest.check formula_eq "negation"
    (Not (Pred ("A", [ Var "x" ])))
    (parse "~A(x)");
  Alcotest.check formula_eq "parens override"
    (And (Pred ("A", []), Or (Pred ("B", []), Pred ("C", []))))
    (parse "A /\\ (B \\/ C)")

let test_parse_quantifiers () =
  Alcotest.check formula_eq "forall"
    (Forall ("x", Implies (Pred ("Penguin", [ Var "x" ]), Pred ("Bird", [ Var "x" ]))))
    (parse "forall x (Penguin(x) => Bird(x))");
  Alcotest.check formula_eq "exists"
    (Exists ("y", And (Pred ("Child", [ Var "x"; Var "y" ]), Pred ("Tall", [ Var "y" ]))))
    (parse "exists y (Child(x,y) /\\ Tall(y))");
  Alcotest.check formula_eq "multi-var quantifier"
    (Forall ("x", Forall ("y", Pred ("R", [ Var "x"; Var "y" ]))))
    (parse "forall x y (R(x,y))")

let test_parse_proportions () =
  Alcotest.check formula_eq "simple proportion"
    (Compare (Prop (Pred ("Penguin", [ Var "x" ]), [ "x" ]), Approx_eq 1, Num 0.0))
    (parse "||Penguin(x)||_x ~=_1 0");
  Alcotest.check formula_eq "conditional proportion"
    (Compare
       ( Cond (Pred ("Hep", [ Var "x" ]), Pred ("Jaun", [ Var "x" ]), [ "x" ]),
         Approx_eq 1,
         Num 0.8 ))
    (parse "||Hep(x) | Jaun(x)||_x ~=_1 0.8");
  Alcotest.check formula_eq "multi-variable subscript"
    (Compare
       ( Cond
           ( Pred ("Likes", [ Var "x"; Var "y" ]),
             And (Pred ("Elephant", [ Var "x" ]), Pred ("Zookeeper", [ Var "y" ])),
             [ "x"; "y" ] ),
         Approx_eq 1,
         Num 1.0 ))
    (parse "||Likes(x,y) | Elephant(x) /\\ Zookeeper(y)||_{x,y} ~=_1 1");
  Alcotest.check formula_eq "default tolerance index is 1"
    (parse "||A(x)||_x ~=_1 0.5")
    (parse "||A(x)||_x ~= 0.5")

let test_parse_comparison_chain () =
  (* α <=_1 z <=_2 β  becomes a conjunction of the two comparisons. *)
  let chained = parse "0.7 <=_1 ||Chirps(x) | Bird(x)||_x <=_2 0.8" in
  let z = Cond (Pred ("Chirps", [ Var "x" ]), Pred ("Bird", [ Var "x" ]), [ "x" ]) in
  Alcotest.check formula_eq "chain"
    (And (Compare (Num 0.7, Approx_le 1, z), Compare (z, Approx_le 2, Num 0.8)))
    chained

let test_parse_ge_flip () =
  Alcotest.check formula_eq ">= flips to <="
    (Compare (Num 0.2, Approx_le 3, Prop (Pred ("A", [ Var "x" ]), [ "x" ])))
    (parse "||A(x)||_x >=_3 0.2")

let test_parse_arith () =
  Alcotest.check formula_eq "proportion arithmetic"
    (Compare
       ( Add
           ( Prop (Pred ("A", [ Var "x" ]), [ "x" ]),
             Mul (Num 2.0, Prop (Pred ("B", [ Var "x" ]), [ "x" ])) ),
         Approx_le 1,
         Num 0.5 ))
    (parse "||A(x)||_x + 2 * ||B(x)||_x <=_1 0.5")

let test_parse_nested_defaults () =
  (* Example 4.6: typically, people who normally go to bed late
     normally rise late. *)
  let src =
    "|| ||RisesLate(x,y) | Day(y)||_y ~=_1 1 | ||ToBedLate(x,y') | Day(y')||_{y'} \
     ~=_2 1 ||_x ~=_3 1"
  in
  let f = parse src in
  (match f with
  | Compare (Cond (inner1, inner2, [ "x" ]), Approx_eq 3, Num 1.0) ->
    (match inner1 with
    | Compare (Cond (_, _, [ "y" ]), Approx_eq 1, Num 1.0) -> ()
    | _ -> Alcotest.fail "inner body not a nested default");
    (match inner2 with
    | Compare (Cond (_, _, [ "y'" ]), Approx_eq 2, Num 1.0) -> ()
    | _ -> Alcotest.fail "inner condition not a nested default")
  | _ -> Alcotest.fail "outer structure wrong");
  (* And it round-trips. *)
  Alcotest.check formula_eq "nested roundtrip" f (parse (Pretty.to_string f))

let test_parse_errors () =
  parse_err "";
  parse_err "A(x";
  parse_err "x";
  (* bare variable is not a formula *)
  parse_err "||A(x)||";
  (* missing subscript *)
  parse_err "A(x) /\\";
  parse_err "A(x) B(x)";
  (* trailing garbage *)
  parse_err "forall (A)";
  (* missing variable *)
  parse_err "0.5 ~=_1"

(* ------------------------------------------------------------------ *)
(* Free variables, substitution                                       *)
(* ------------------------------------------------------------------ *)

let test_free_vars () =
  Alcotest.(check (list string)) "open formula" [ "x" ] (free_vars (parse "Hep(x)"));
  Alcotest.(check (list string)) "quantifier binds" []
    (free_vars (parse "forall x (Hep(x))"));
  Alcotest.(check (list string)) "subscript binds" []
    (free_vars (parse "||Hep(x)||_x ~=_1 0.5"));
  Alcotest.(check (list string)) "subscript binds only its vars" [ "y" ]
    (free_vars (parse "||Child(x,y)||_x ~=_1 0.5"));
  Alcotest.(check bool) "closed" true (is_closed (parse "Jaun(Eric)"));
  Alcotest.(check bool) "not closed" false (is_closed (parse "Jaun(x)"))

let test_subst_basic () =
  let f = parse "Hep(x) /\\ Jaun(x)" in
  Alcotest.check formula_eq "substitute constant" (parse "Hep(Eric) /\\ Jaun(Eric)")
    (subst [ ("x", Fn ("Eric", [])) ] f);
  (* No effect on bound occurrences. *)
  let g = parse "forall x (Hep(x))" in
  Alcotest.check formula_eq "bound untouched" g (subst [ ("x", Fn ("Eric", [])) ] g);
  (* Proportion subscripts bind. *)
  let h = parse "||Hep(x)||_x ~=_1 0.5" in
  Alcotest.check formula_eq "subscript untouched" h (subst [ ("x", Fn ("Eric", [])) ] h)

let test_subst_capture_avoidance () =
  (* Substituting y ↦ x under a binder for x must rename the binder. *)
  let f = Forall ("x", Pred ("R", [ Var "x"; Var "y" ])) in
  let g = subst [ ("y", Var "x") ] f in
  (match g with
  | Forall (x', Pred ("R", [ Var v1; Var v2 ])) ->
    Alcotest.(check bool) "binder renamed" true (x' <> "x");
    Alcotest.(check string) "bound occurrence follows binder" x' v1;
    Alcotest.(check string) "substituted variable free" "x" v2
  | _ -> Alcotest.fail "unexpected shape");
  (* Same discipline for proportion subscripts. *)
  let h =
    Compare (Prop (Pred ("R", [ Var "x"; Var "y" ]), [ "x" ]), Approx_eq 1, Num 0.5)
  in
  let h' = subst [ ("y", Var "x") ] h in
  (match h' with
  | Compare (Prop (Pred ("R", [ Var v1; Var v2 ]), [ sub ]), Approx_eq 1, Num _) ->
    Alcotest.(check bool) "subscript renamed" true (sub <> "x");
    Alcotest.(check string) "bound occurrence follows subscript" sub v1;
    Alcotest.(check string) "free occurrence substituted" "x" v2
  | _ -> Alcotest.fail "unexpected proportion shape")

let test_instantiate () =
  let f = parse "Likes(x,y)" in
  Alcotest.check formula_eq "vector instantiation" (parse "Likes(Clyde, Eric)")
    (instantiate f [ "x"; "y" ] [ Fn ("Clyde", []); Fn ("Eric", []) ]);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Syntax.instantiate: length mismatch") (fun () ->
      ignore (instantiate f [ "x" ] []))

let test_exists_unique () =
  let f = exists_unique "x" (Pred ("Winner", [ Var "x" ])) in
  (match f with
  | Exists (x, And (Pred ("Winner", [ Var x1 ]), Forall (x', Implies (Pred ("Winner", [ Var x2 ]), Eq (Var x3, Var x4))))) ->
    Alcotest.(check string) "outer var" x x1;
    Alcotest.(check string) "inner var bound" x' x2;
    Alcotest.(check string) "eq lhs" x' x3;
    Alcotest.(check string) "eq rhs" x x4
  | _ -> Alcotest.fail "unexpected shape")

(* ------------------------------------------------------------------ *)
(* Vocabulary extraction                                              *)
(* ------------------------------------------------------------------ *)

let test_symbols () =
  let f = parse "Jaun(Eric) /\\ ||Hep(x) | Jaun(x)||_x ~=_2 0.8" in
  let preds, funcs = symbols f in
  Alcotest.(check (list (pair string int))) "preds" [ ("Hep", 1); ("Jaun", 1) ] preds;
  Alcotest.(check (list (pair string int))) "funcs" [ ("Eric", 0) ] funcs;
  Alcotest.(check (list string)) "constants" [ "Eric" ] (constants f);
  Alcotest.(check (list int)) "tolerance indices" [ 2 ] (tolerance_indices f);
  Alcotest.(check bool) "mentions Eric" true (mentions_constant "Eric" f);
  Alcotest.(check bool) "no Tweety" false (mentions_constant "Tweety" f)

let test_unary_detection () =
  Alcotest.(check bool) "unary kb" true
    (is_unary_vocab (parse "||Fly(x) | Bird(x)||_x ~=_1 1 /\\ Bird(Tweety)"));
  Alcotest.(check bool) "binary kb" false
    (is_unary_vocab (parse "||Likes(x,y)||_{x,y} ~=_1 1"));
  Alcotest.(check bool) "function kb" false
    (is_unary_vocab (parse "Tall(Father(Eric))"));
  Alcotest.(check int) "max arity" 2 (max_pred_arity (parse "Likes(Clyde,Fred)"))

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                 *)
(* ------------------------------------------------------------------ *)

let test_builders () =
  Alcotest.check formula_eq "conj" (parse "A /\\ B /\\ C")
    (conj [ Pred ("A", []); Pred ("B", []); Pred ("C", []) ]);
  Alcotest.check formula_eq "conj empty" True (conj []);
  Alcotest.check formula_eq "disj" (parse "A \\/ B") (disj [ Pred ("A", []); Pred ("B", []) ]);
  Alcotest.check formula_eq "disj empty" False (disj []);
  Alcotest.check formula_eq "default builder"
    (parse "||Fly(x) | Bird(x)||_x ~=_2 1")
    (default ~i:2 (pred "Fly" [ var "x" ]) (pred "Bird" [ var "x" ]) [ "x" ]);
  Alcotest.check formula_eq "neg default builder"
    (parse "||Fly(x) | Penguin(x)||_x ~=_3 0")
    (neg_default ~i:3 (pred "Fly" [ var "x" ]) (pred "Penguin" [ var "x" ]) [ "x" ]);
  Alcotest.check formula_eq "interval builder"
    (parse "0.7 <=_1 ||Chirps(x) | Bird(x)||_x /\\ ||Chirps(x) | Bird(x)||_x <=_2 0.8")
    (in_interval ~il:1 ~ih:2
       (Cond (pred "Chirps" [ var "x" ], pred "Bird" [ var "x" ], [ "x" ]))
       0.7 0.8)

(* ------------------------------------------------------------------ *)
(* Alpha/AC matching                                                  *)
(* ------------------------------------------------------------------ *)

let test_unify_basic () =
  let t s1 s2 expected =
    Alcotest.(check bool)
      (Printf.sprintf "%s ~ %s" s1 s2)
      expected
      (Unify.alpha_ac_equal (parse s1) (parse s2))
  in
  t "A /\\ B" "B /\\ A" true;
  t "A /\\ (B /\\ C)" "(C /\\ A) /\\ B" true;
  t "A \\/ B" "B \\/ A" true;
  t "A /\\ B" "A \\/ B" false;
  t "forall x (A(x))" "forall y (A(y))" true;
  t "forall x (R(x,C))" "forall y (R(y,C))" true;
  t "forall x (R(x,C))" "forall y (R(C,y))" false;
  t "C = D" "D = C" true;
  t "A <=> B" "B <=> A" true;
  t "A => B" "B => A" false;
  (* Subscript variables bind, like quantifiers. *)
  t "||A(x)||_x ~=_1 1" "||A(y)||_y ~=_1 1" true;
  t "||A(x) | B(x)||_x ~=_1 1" "||B(y) | A(y)||_y ~=_1 1" false;
  (* ≈ is symmetric; tolerance indices must match. *)
  t "||A(x)||_x ~=_1 0.5" "0.5 ~=_1 ||A(y)||_y" true;
  t "||A(x)||_x ~=_1 0.5" "||A(x)||_x ~=_2 0.5" false;
  (* ⪯ is *not* symmetric. *)
  t "||A(x)||_x <=_1 0.5" "0.5 <=_1 ||A(x)||_x" false

let test_unify_bound_free_distinction () =
  (* A bound variable must not match a free one. *)
  Alcotest.(check bool) "bound vs free" false
    (Unify.alpha_ac_equal (parse "forall x (R(x,y))") (parse "forall x (R(x,x))"))

(* ------------------------------------------------------------------ *)
(* Round-trip properties                                              *)
(* ------------------------------------------------------------------ *)

(* Generator of random formulas over a small vocabulary. *)
let gen_formula =
  let open QCheck.Gen in
  let var_names = [ "x"; "y"; "z" ] in
  let const_names = [ "Eric"; "Tweety" ] in
  let gen_term =
    oneof
      [
        map (fun v -> Var v) (oneofl var_names);
        map (fun c -> Fn (c, [])) (oneofl const_names);
      ]
  in
  let gen_atom =
    oneof
      [
        map (fun t -> Pred ("A", [ t ])) gen_term;
        map2 (fun t1 t2 -> Pred ("R", [ t1; t2 ])) gen_term gen_term;
        map2 (fun t1 t2 -> Eq (t1, t2)) gen_term gen_term;
        return True;
        return False;
      ]
  in
  (* A generator is a plain [Random.State.t -> 'a] function in qcheck
     0.25; dispatching on the branch *after* sampling keeps generator
     construction lazy (an eager [frequency] list would rebuild every
     branch recursively and blow up exponentially). *)
  let rec gen_f n st =
    if n <= 0 then gen_atom st
    else
      match int_range 0 11 st with
      | 0 | 1 -> gen_atom st
      | 2 | 3 ->
        let a = gen_f (n / 2) st in
        And (a, gen_f (n / 2) st)
      | 4 ->
        let a = gen_f (n / 2) st in
        Or (a, gen_f (n / 2) st)
      | 5 ->
        let a = gen_f (n / 2) st in
        Implies (a, gen_f (n / 2) st)
      | 6 ->
        let a = gen_f (n / 2) st in
        Iff (a, gen_f (n / 2) st)
      | 7 -> Not (gen_f (n - 1) st)
      | 8 -> Forall (oneofl var_names st, gen_f (n - 1) st)
      | 9 -> Exists (oneofl var_names st, gen_f (n - 1) st)
      | 10 ->
        let a = gen_f (n / 2) st in
        Compare (Prop (a, [ "x" ]), Approx_eq 1, Num (float_bound_inclusive 1.0 st))
      | _ ->
        let a = gen_f (n / 2) st in
        let b = gen_f (n / 2) st in
        Compare (Cond (a, b, [ "x" ]), Approx_le 2, Num (float_bound_inclusive 1.0 st))
  in
  sized (fun n -> gen_f (min n 12))

let arbitrary_formula =
  QCheck.make ~print:Pretty.to_string gen_formula

let prop_unify_reflexive =
  QCheck.Test.make ~name:"alpha_ac_equal is reflexive" ~count:200
    arbitrary_formula (fun f -> Unify.alpha_ac_equal f f)

let prop_unify_conjunct_shuffle =
  QCheck.Test.make ~name:"conjunct order is irrelevant to alpha_ac_equal"
    ~count:200 arbitrary_formula (fun f ->
      match f with
      | And (a, b) -> Unify.alpha_ac_equal f (And (b, a))
      | _ -> Unify.alpha_ac_equal f f)

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"pretty-print / parse round-trip" ~count:500
    arbitrary_formula (fun f ->
      match Parser.formula (Pretty.to_string f) with
      | Ok f' -> Syntax.equal f f'
      | Error msg -> QCheck.Test.fail_reportf "reparse failed: %s" msg)

let prop_subst_identity =
  QCheck.Test.make ~name:"identity substitution is a no-op" ~count:200
    arbitrary_formula (fun f -> Syntax.equal f (subst [ ("x", Var "x") ] f))

let prop_free_vars_after_closing =
  QCheck.Test.make ~name:"closing off free vars yields a sentence" ~count:200
    arbitrary_formula (fun f ->
      let closed =
        List.fold_left (fun acc v -> Forall (v, acc)) f (free_vars f)
      in
      is_closed closed)

(* The tolerance fingerprint feeds the service's options digest, and so
   every answer-cache and durable-store key: these strings must never
   change, or stores written before the change stop hitting. *)
let test_tolerance_fingerprint_pinned () =
  Alcotest.(check (list string))
    "default schedule"
    [
      "0x1.47ae147ae147bp-6[w][p]";
      "0x1.47ae147ae147bp-7[w][p]";
      "0x1.47ae147ae147bp-8[w][p]";
      "0x1.47ae147ae147bp-9[w][p]";
      "0x1.47ae147ae147bp-10[w][p]";
      "0x1.47ae147ae147bp-11[w][p]";
    ]
    (List.map Tolerance.fingerprint
       (Tolerance.schedule ~factor:0.5 ~steps:6 (Tolerance.uniform 0.02)));
  Alcotest.(check string)
    "weights and powers, index-sorted"
    "0x1.999999999999ap-4[w1:0x1p-1,2:0x1.8p+1][p2:0x1p+1]"
    (Tolerance.fingerprint
       (Tolerance.make ~scale:0.1
          ~weights:[ (2, 3.0); (1, 0.5) ]
          ~powers:[ (2, 2.0) ] ()))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("parse.atoms", `Quick, test_parse_atoms);
    ("parse.equality", `Quick, test_parse_equality);
    ("parse.connectives", `Quick, test_parse_connectives);
    ("parse.quantifiers", `Quick, test_parse_quantifiers);
    ("parse.proportions", `Quick, test_parse_proportions);
    ("parse.comparison_chain", `Quick, test_parse_comparison_chain);
    ("parse.ge_flip", `Quick, test_parse_ge_flip);
    ("parse.arith", `Quick, test_parse_arith);
    ("parse.nested_defaults", `Quick, test_parse_nested_defaults);
    ("parse.errors", `Quick, test_parse_errors);
    ("syntax.free_vars", `Quick, test_free_vars);
    ("syntax.subst_basic", `Quick, test_subst_basic);
    ("syntax.subst_capture", `Quick, test_subst_capture_avoidance);
    ("syntax.instantiate", `Quick, test_instantiate);
    ("syntax.exists_unique", `Quick, test_exists_unique);
    ("syntax.symbols", `Quick, test_symbols);
    ("syntax.unary_detection", `Quick, test_unary_detection);
    ("syntax.builders", `Quick, test_builders);
    ("unify.basic", `Quick, test_unify_basic);
    ("unify.bound_free", `Quick, test_unify_bound_free_distinction);
    q prop_unify_reflexive;
    q prop_unify_conjunct_shuffle;
    q prop_print_parse_roundtrip;
    q prop_subst_identity;
    q prop_free_vars_after_closing;
      ("tolerance.fingerprint_pinned", `Quick, test_tolerance_fingerprint_pinned);
  ]
