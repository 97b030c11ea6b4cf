(* The benchmark harness: regenerates every experiment of the
   reproduction (the paper's worked examples and theorem instances —
   its "tables and figures") and then measures engine performance with
   Bechamel.

   Run with:  dune exec bench/main.exe
   Skip perf: dune exec bench/main.exe -- --no-perf *)

open Rw_logic
open Randworlds

let parse s = Parser.formula_exn s

let section title =
  Fmt.pr "@.==========================================================@.";
  Fmt.pr "%s@." title;
  Fmt.pr "==========================================================@."

(* ------------------------------------------------------------------ *)
(* Table 1: the KB zoo — every worked example, paper vs measured      *)
(* ------------------------------------------------------------------ *)

let matches expected (a : Answer.t) =
  match (expected, a.Answer.result) with
  | Rw_kbzoo.Kbzoo.Exactly v, _ -> (
    match Answer.point_value a with
    | Some got -> Float.abs (got -. v) < 0.01
    | None -> false)
  | Inside i, Answer.Within j -> Rw_prelude.Interval.subset j i
  | Inside i, Answer.Point v -> Rw_prelude.Interval.mem ~eps:1e-6 v i
  | Less_than v, _ -> (
    match Answer.point_value a with Some got -> got < v | None -> false)
  | NoLimit, Answer.No_limit _ -> true
  | Inconsistent_kb, Answer.Inconsistent -> true
  | _ -> false

let table_zoo () =
  section "Table 1 — the paper's worked examples (paper vs measured)";
  Fmt.pr "%-5s %-15s %-22s %-28s %-6s@." "id" "source" "expected" "measured [engine]" "match";
  let ok = ref 0 and total = ref 0 in
  List.iter
    (fun (e : Rw_kbzoo.Kbzoo.entry) ->
      let a = Engine.degree_of_belief ~kb:e.kb e.query in
      let hit = matches e.expected a in
      incr total;
      if hit then incr ok;
      Fmt.pr "%-5s %-15s %-22s %-28s %-6s@." e.id e.source
        (Fmt.str "%a" Rw_kbzoo.Kbzoo.pp_expectation e.expected)
        (Fmt.str "%a" Answer.pp a)
        (if hit then "yes" else "NO"))
    (Rw_kbzoo.Kbzoo.all ());
  Fmt.pr "-- %d/%d reproduced@." !ok !total

(* ------------------------------------------------------------------ *)
(* Table 2: the Dempster grid (Theorem 5.26)                          *)
(* ------------------------------------------------------------------ *)

let nixon ~alpha ~beta ~i1 ~i2 =
  parse
    (Printf.sprintf
       "||Pac(x) | Quaker(x)||_x ~=_%d %g /\\ ||Pac(x) | Repub(x)||_x ~=_%d %g /\\ \
        ||Quaker(x) /\\ Repub(x)||_x <=_9 0.0001 /\\ Quaker(Nixon) /\\ Repub(Nixon)"
       i1 alpha i2 beta)

let table_dempster () =
  section "Table 2 — evidence combination grid: δ(α,β) vs random worlds";
  Fmt.pr "%6s %6s | %10s %12s %8s@." "α" "β" "δ(α,β)" "measured" "err";
  List.iter
    (fun (alpha, beta) ->
      let expected = Dempster.combine2 alpha beta in
      let a = Engine.degree_of_belief ~kb:(nixon ~alpha ~beta ~i1:1 ~i2:2) (parse "Pac(Nixon)") in
      match Answer.point_value a with
      | Some got ->
        Fmt.pr "%6.2f %6.2f | %10.4f %12.4f %8.1e@." alpha beta expected got
          (Float.abs (got -. expected))
      | None -> Fmt.pr "%6.2f %6.2f | %10.4f %12s@." alpha beta expected "—")
    [
      (0.9, 0.9); (0.8, 0.8); (0.7, 0.5); (0.9, 0.3); (0.5, 0.5); (0.2, 0.2);
      (0.3, 0.7); (1.0, 0.3); (1.0, 0.7);
    ]

(* ------------------------------------------------------------------ *)
(* Figure 1: convergence of Pr_N to the asymptotic value              *)
(* ------------------------------------------------------------------ *)

let figure_convergence () =
  section
    "Figure 1 — exact Pr_N(Hep(Eric)) converging to the τ→0, N→∞ limit 0.8";
  let kb = parse "Jaun(Eric) /\\ ||Hep(x) | Jaun(x)||_x ~=_1 0.8" in
  let query = parse "Hep(Eric)" in
  Fmt.pr "%6s" "N";
  let taus = [ 0.05; 0.02; 0.01 ] in
  List.iter (fun tau -> Fmt.pr " %12s" (Fmt.str "τ=%g" tau)) taus;
  Fmt.pr "@.";
  List.iter
    (fun n ->
      Fmt.pr "%6d" n;
      List.iter
        (fun tau ->
          match Unary_engine.pr_n ~kb ~query ~n ~tol:(Tolerance.uniform tau) with
          | Some v -> Fmt.pr " %12.6f" v
          | None -> Fmt.pr " %12s" "—")
        taus;
      Fmt.pr "@.")
    [ 10; 20; 40; 80; 120 ];
  let a = Maxent_engine.estimate (Rw_compile.Compiled_kb.compile kb) query in
  Fmt.pr "%6s %a   (maximum-entropy asymptote)@." "N→∞" Answer.pp a

(* ------------------------------------------------------------------ *)
(* Table 3: random worlds vs the baselines                            *)
(* ------------------------------------------------------------------ *)

let table_baselines () =
  section "Table 3 — who solves which default-reasoning benchmark";
  let open Rw_epsilon in
  let v s = Prop.PVar s in
  let nt a = Prop.PNot a in
  let ( &&& ) a b = Prop.PAnd (a, b) in
  let rules =
    [
      Defaults.rule (v "bird") (v "fly");
      Defaults.rule (v "penguin") (nt (v "fly"));
      Defaults.rule (v "penguin") (v "bird");
      Defaults.rule (v "bird") (v "warm");
      Defaults.rule (v "yellow") (v "easy");
    ]
  in
  let fly_core =
    "||Fly(x) | Bird(x)||_x ~=_1 1 /\\ ||Fly(x) | Penguin(x)||_x ~=_2 0 /\\ \
     forall x (Penguin(x) => Bird(x)) /\\ ||Warm(x) | Bird(x)||_x ~=_3 1 /\\ \
     ||Easy(x) | Yellow(x)||_x ~=_4 1"
  in
  let rw kb_extra phi =
    Randworlds.Defaults.entails ~kb:(parse (fly_core ^ kb_extra)) (parse phi)
  in
  let yn b = if b then "yes" else "no" in
  Fmt.pr "%-38s %-8s %-8s %-8s %-8s@." "benchmark" "ε-ent" "Z" "GMP-ME" "rand-w";
  let row name eps z me rwv = Fmt.pr "%-38s %-8s %-8s %-8s %-8s@." name (yn eps) (yn z) (yn me) (yn rwv) in
  row "specificity (penguin ⇒ ¬fly)"
    (Defaults.p_entails rules (v "penguin", nt (v "fly")))
    (Defaults.z_entails rules (v "penguin", nt (v "fly")))
    (Me.me_plausible rules (v "penguin", nt (v "fly")))
    (rw " /\\ Penguin(Tweety)" "~Fly(Tweety)");
  row "irrelevance (yellow penguin ⇒ ¬fly)"
    (Defaults.p_entails rules (v "penguin" &&& v "yellow", nt (v "fly")))
    (Defaults.z_entails rules (v "penguin" &&& v "yellow", nt (v "fly")))
    (Me.me_plausible rules (v "penguin" &&& v "yellow", nt (v "fly")))
    (rw " /\\ Penguin(Tweety) /\\ Yellow(Tweety)" "~Fly(Tweety)");
  row "inheritance (penguin ⇒ warm)"
    (Defaults.p_entails rules (v "penguin", v "warm"))
    (Defaults.z_entails rules (v "penguin", v "warm"))
    (Me.me_plausible rules (v "penguin", v "warm"))
    (rw " /\\ Penguin(Tweety)" "Warm(Tweety)");
  row "drowning (yellow penguin ⇒ easy)"
    (Defaults.p_entails rules (v "penguin" &&& v "yellow", v "easy"))
    (Defaults.z_entails rules (v "penguin" &&& v "yellow", v "easy"))
    (Me.me_plausible rules (v "penguin" &&& v "yellow", v "easy"))
    (rw " /\\ Penguin(Tweety) /\\ Yellow(Tweety)" "Easy(Tweety)");

  Fmt.pr "@.Reference classes vs random worlds on competing evidence:@.";
  let kb =
    parse
      "||Heart(x) | Chol(x)||_x ~=_1 0.15 /\\ ||Heart(x) | Smoker(x)||_x ~=_2 0.09 /\\ \
       ||Chol(x) /\\ Smoker(x)||_x <=_3 0.0001 /\\ Chol(Fred) /\\ Smoker(Fred)"
  in
  let o = Rw_refclass.Refclass.infer ~kb ~query_pred:"Heart" ~individual:"Fred" () in
  Fmt.pr "  reference-class: %a (%s)@." Rw_prelude.Interval.pp o.value o.reason;
  let a = Engine.degree_of_belief ~kb (parse "Heart(Fred)") in
  Fmt.pr "  random worlds:   %a  (Dempster: δ(0.15, 0.09) = %.4f)@." Answer.pp a
    (Dempster.combine2 0.15 0.09)

(* ------------------------------------------------------------------ *)
(* Table 4: tolerance priorities (ablation, Section 5.3)              *)
(* ------------------------------------------------------------------ *)

let table_priorities () =
  section "Table 4 — conflicting hard defaults under tolerance priorities";
  let kb = nixon ~alpha:1.0 ~beta:0.0 ~i1:1 ~i2:2 in
  let query = parse "Pac(Nixon)" in
  let probe label powers =
    let tols =
      List.map
        (fun scale -> Tolerance.make ~scale ~powers ())
        [ 0.05; 0.025; 0.0125; 0.00625; 0.003125 ]
    in
    let a =
      Maxent_engine.estimate ~tols (Rw_compile.Compiled_kb.compile kb) query
    in
    Fmt.pr "  %-44s %a@." label (Fmt.of_to_string (Fmt.str "%a" Answer.pp)) a
  in
  Fmt.pr "  %-44s %a@." "syntactic verdict (rules engine):" Answer.pp
    (Rules_engine.infer (Rw_compile.Compiled_kb.compile kb) query);
  probe "equal strengths (τ₁ = τ₂):" [];
  probe "Quaker default stronger (τ₁ = τ²):" [ (1, 2.0) ];
  probe "Republican default stronger (τ₂ = τ²):" [ (2, 2.0) ];
  Fmt.pr "  → the limit depends on how τ̄ → 0: no robust degree of belief.@."

(* ------------------------------------------------------------------ *)
(* Table 5: representation dependence (Section 7.2)                   *)
(* ------------------------------------------------------------------ *)

let table_representation () =
  section "Table 5 — representation dependence (Section 7.2)";
  let show label kb q =
    let a = Engine.degree_of_belief ~kb:(parse kb) (parse q) in
    Fmt.pr "  %-52s %a@." label Answer.pp a
  in
  show "Pr(White(c)) over vocabulary {White}:" "White(C) \\/ ~White(C)" "White(C)";
  show "Pr(White(c)) after refining ¬White into Red/Blue:"
    "forall x ((White(x) \\/ Red(x) \\/ Blue(x)) /\\ ~(White(x) /\\ Red(x)) /\\ \
     ~(White(x) /\\ Blue(x)) /\\ ~(Red(x) /\\ Blue(x)))"
    "White(C)";
  show "Pr(Fly(Tweety)), {Bird, Fly} encoding:"
    "||Fly(x) | Bird(x)||_x ~=_1 0.5 /\\ Bird(Tweety)" "Fly(Tweety)";
  show "Pr(FlyingBird(Tweety)), {Bird, FlyingBird}:"
    "||FlyingBird(x) | Bird(x)||_x ~=_1 0.5 /\\ Bird(Tweety) /\\ forall x \
     (FlyingBird(x) => Bird(x))"
    "FlyingBird(Tweety)";
  show "Pr(Bird(Opus)), {Bird, Fly} encoding:"
    "||Fly(x) | Bird(x)||_x ~=_1 0.5 /\\ Bird(Tweety)" "Bird(Opus)";
  show "Pr(Bird(Opus)), {Bird, FlyingBird} encoding:"
    "||FlyingBird(x) | Bird(x)||_x ~=_1 0.5 /\\ Bird(Tweety) /\\ forall x \
     (FlyingBird(x) => Bird(x))"
    "Bird(Opus)";
  Fmt.pr "  → the robust query (Fly ≙ FlyingBird: 0.5) survives reencoding;@.";
  Fmt.pr "    the underdetermined one (Bird(Opus)) is language dependent.@."

(* ------------------------------------------------------------------ *)
(* Table 6: lottery paradox and unique names (Section 5.5)            *)
(* ------------------------------------------------------------------ *)

let table_lottery () =
  section "Table 6 — the lottery paradox and unique names (enum engine)";
  let tol = Tolerance.uniform 0.1 in
  let vocab = Vocab.make ~preds:[ ("Winner", 1) ] ~funcs:[ ("C", 0) ] in
  let kb = Syntax.exists_unique "x" (parse "Winner(x)") in
  Fmt.pr "  lottery, known N:        ";
  List.iter
    (fun n ->
      match Enum_engine.pr_n ~vocab ~n ~tol ~kb (parse "Winner(C)") with
      | Some p -> Fmt.pr "N=%d: %.3f  " n p
      | None -> ())
    [ 2; 4; 8 ];
  Fmt.pr "(= 1/N)@.";
  (match Enum_engine.pr_n ~vocab ~n:8 ~tol ~kb (parse "exists x (Winner(x))") with
  | Some p -> Fmt.pr "  Pr(someone wins):        %.3f@." p
  | None -> ());
  let vocab3 = Vocab.make ~preds:[] ~funcs:[ ("C1", 0); ("C2", 0); ("C3", 0) ] in
  Fmt.pr "  unique names, Pr(C1=C2): ";
  List.iter
    (fun n ->
      match Enum_engine.pr_n ~vocab:vocab3 ~n ~tol ~kb:Syntax.True (parse "C1 = C2") with
      | Some p -> Fmt.pr "N=%d: %.3f  " n p
      | None -> ())
    [ 2; 4; 8 ];
  Fmt.pr "(= 1/N → 0)@.";
  Fmt.pr "  forced collision → 1/3:  ";
  let kbd = parse "(C1 = C2) \\/ (C2 = C3) \\/ (C1 = C3)" in
  List.iter
    (fun n ->
      match Enum_engine.pr_n ~vocab:vocab3 ~n ~tol ~kb:kbd (parse "C1 = C2") with
      | Some p -> Fmt.pr "N=%d: %.3f  " n p
      | None -> ())
    [ 4; 8; 16 ];
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* Table 7: Poole's partition & sampling failure                      *)
(* ------------------------------------------------------------------ *)

let table_limits_of_method () =
  section "Table 7 — the method's own limits, reproduced";
  (* Poole's partition (Section 5.5): inconsistent under ≈1 reading. *)
  let poole =
    parse
      "forall x (Bird(x) <=> Emu(x) \\/ Penguin(x)) /\\ \
       ||Emu(x) | Bird(x)||_x ~=_1 0 /\\ ||Penguin(x) | Bird(x)||_x ~=_1 0 /\\ \
       ||Bird(x)||_x >=_2 0.1"
  in
  let parts = Rw_unary.Analysis.analyze poole in
  Fmt.pr "  Poole's exceptional partition consistent?   %b (expected: false)@."
    (Rw_unary.Solver.consistent_at parts (Tolerance.uniform 1e-3));
  (* Sampling failure (Section 7.3). *)
  let a =
    Engine.degree_of_belief
      ~kb:(parse "||Fly(x) | Bird(x) /\\ S(x)||_x ~=_1 0.9 /\\ Bird(Tweety) /\\ ~S(Tweety)")
      (parse "Fly(Tweety)")
  in
  Fmt.pr "  Sample statistic transfers outside S?       Pr = %a (expected 0.5: no)@."
    Answer.pp a

(* ------------------------------------------------------------------ *)
(* Table 9: the Monte-Carlo engine — agreement and reach              *)
(* ------------------------------------------------------------------ *)

let table_mc () =
  section "Table 9 — Monte-Carlo engine: agreement with enum, then beyond it";
  let tol = Tolerance.uniform 0.1 in
  let mc_cell ~vocab ~n ~kb query =
    match Mc_engine.pr_n ~vocab ~n ~tol ~kb query with
    | Rw_mc.Estimator.Estimate { mean; ci; stats } ->
      ( Fmt.str "%.4f ∈ %a" mean Rw_prelude.Interval.pp ci,
        Some (ci, stats) )
    | Rw_mc.Estimator.Starved stats ->
      (Fmt.str "starved (%a)" Rw_mc.Estimator.pp_stats stats, None)
  in
  (* Where enumeration is exact, sampling must agree within its own
     interval — the statistical cross-check, run at bench scale. *)
  Fmt.pr "  exact-vs-sampled (same N, τ=0.1):@.";
  Fmt.pr "  %-34s %3s %10s   %-28s %-6s@." "kb" "N" "enum" "mc (95% CI)" "agree";
  let hep_kb = parse "Jaun(Eric) /\\ ||Hep(x) | Jaun(x)||_x ~=_1 0.8" in
  let vocab3 = Vocab.make ~preds:[] ~funcs:[ ("C1", 0); ("C2", 0); ("C3", 0) ] in
  let collision = parse "(C1 = C2) \\/ (C2 = C3) \\/ (C1 = C3)" in
  let lottery_vocab = Vocab.make ~preds:[ ("Winner", 1) ] ~funcs:[ ("C", 0) ] in
  let lottery_kb = Syntax.exists_unique "x" (parse "Winner(x)") in
  List.iter
    (fun (label, vocab, n, kb, query) ->
      match Enum_engine.pr_n ~vocab ~n ~tol ~kb query with
      | None -> Fmt.pr "  %-34s %3d %10s@." label n "(no worlds)"
      | Some exact ->
        let cell, est = mc_cell ~vocab ~n ~kb query in
        let agree =
          match est with
          | Some (ci, _) ->
            if Rw_prelude.Interval.mem ~eps:1e-9 exact ci then "yes" else "NO"
          | None -> "NO"
        in
        Fmt.pr "  %-34s %3d %10.4f   %-28s %-6s@." label n exact cell agree)
    [
      ( "hepatitis",
        Vocab.of_formulas [ hep_kb ],
        5,
        hep_kb,
        parse "Hep(Eric)" );
      ("forced collision", vocab3, 8, collision, parse "C1 = C2");
      ("lottery ∃!x Winner", lottery_vocab, 8, lottery_kb, parse "Winner(C)");
      ("unique names", vocab3, 8, Syntax.True, parse "C1 = C2");
    ];
  (* Beyond the enumeration guard: N = 20, 50, 100 are far past
     max_log10_worlds for these vocabularies, yet sampling still
     converges on the paper's limiting values. *)
  Fmt.pr "@.  beyond enumeration (mc only, τ=0.1):@.";
  Fmt.pr "  %-34s %4s   %-30s %8s %9s %6s@." "kb (limit)" "N" "mc (95% CI)"
    "samples" "kb-rate" "strat";
  List.iter
    (fun (label, vocab, kb, query) ->
      List.iter
        (fun n ->
          let cell, est = mc_cell ~vocab ~n ~kb query in
          match est with
          | Some (_, s) ->
            Fmt.pr "  %-34s %4d   %-30s %8d %9.2e %6s@." label n cell
              s.Rw_mc.Estimator.samples s.Rw_mc.Estimator.hit_rate
              (if s.Rw_mc.Estimator.stratified then "yes" else "no")
          | None -> Fmt.pr "  %-34s %4d   %-30s@." label n cell)
        [ 20; 50; 100 ])
    [
      ("forced collision → 1/3", vocab3, collision, parse "C1 = C2");
      ("unique names → 0", vocab3, Syntax.True, parse "C1 = C2");
    ];
  (* The hepatitis KB needs the double limit: Pr_N^τ ≈ 0.8 − O(τ), so
     shrink τ with N and compare against the exact unary count at the
     same grid point. The sharpest point is where uniform rejection
     starves and the maxent-tilted proposal takes over. *)
  Fmt.pr "@.  hepatitis → 0.8 along a (N↑, τ↓) diagonal, vs exact unary:@.";
  Fmt.pr "  %4s %6s %8s   %-30s %9s %6s@." "N" "τ" "exact" "mc (95% CI)"
    "kb-rate" "strat";
  let hep_query = parse "Hep(Eric)" in
  let hep_vocab = Vocab.of_formulas [ hep_kb ] in
  List.iter
    (fun (n, tau) ->
      let tol = Tolerance.uniform tau in
      let exact =
        match Unary_engine.pr_n ~kb:hep_kb ~query:hep_query ~n ~tol with
        | Some v -> Fmt.str "%8.4f" v
        | None -> Fmt.str "%8s" "—"
      in
      match Mc_engine.pr_n ~vocab:hep_vocab ~n ~tol ~kb:hep_kb hep_query with
      | Rw_mc.Estimator.Estimate { mean; ci; stats } ->
        Fmt.pr "  %4d %6g %s   %-30s %9.2e %6s@." n tau exact
          (Fmt.str "%.4f ∈ %a" mean Rw_prelude.Interval.pp ci)
          stats.Rw_mc.Estimator.hit_rate
          (if stats.Rw_mc.Estimator.stratified then "yes" else "no")
      | Rw_mc.Estimator.Starved stats ->
        Fmt.pr "  %4d %6g %s   starved (%a)@." n tau exact
          Rw_mc.Estimator.pp_stats stats)
    [ (20, 0.1); (50, 0.05); (100, 0.025) ]

(* ------------------------------------------------------------------ *)
(* Figure 2: engine cost scaling (Section 7.4)                        *)
(* ------------------------------------------------------------------ *)

let figure_scaling () =
  section
    "Figure 2 — engine cost vs domain size N (Section 7.4's computational story)";
  let kb = parse "Jaun(Eric) /\\ ||Hep(x) | Jaun(x)||_x ~=_1 0.8" in
  let query = parse "Hep(Eric)" in
  let tol = Tolerance.uniform 0.05 in
  let vocab = Vocab.of_formulas [ kb; query ] in
  let time f =
    let t0 = Sys.time () in
    let (_ : float option) = f () in
    Sys.time () -. t0
  in
  Fmt.pr "  %-8s %14s %14s@." "N" "enum (s)" "unary (s)";
  List.iter
    (fun n ->
      let enum_t =
        if Rw_model.Enum.log10_world_count vocab n <= 7.0 then
          Fmt.str "%14.4f" (time (fun () -> Enum_engine.pr_n ~vocab ~n ~tol ~kb query))
        else Fmt.str "%14s" "(> 10^7 worlds)"
      in
      let unary_t =
        Fmt.str "%14.4f" (time (fun () -> Unary_engine.pr_n ~kb ~query ~n ~tol))
      in
      Fmt.pr "  %-8d %s %s@." n enum_t unary_t)
    [ 3; 4; 5; 6; 20; 40; 80; 160 ];
  let t0 = Sys.time () in
  let (_ : Answer.t) =
    Maxent_engine.estimate (Rw_compile.Compiled_kb.compile kb) query
  in
  Fmt.pr "  %-8s %14s %14.4f   (whole τ-schedule, N-independent)@." "N→∞" "—"
    (Sys.time () -. t0);
  Fmt.pr
    "  enumeration is exponential in N; exact unary counting is polynomial\n\
    \  (profiles × assignments); the maxent asymptote does not depend on N.@."

(* ------------------------------------------------------------------ *)
(* Table 8: learning — random worlds vs random propensities (§7.3)    *)
(* ------------------------------------------------------------------ *)

let table_learning () =
  section "Table 8 — learning ablation: uniform prior vs random propensities";
  let open Rw_unary in
  Fmt.pr "  observing m flying birds, then asking about a new one:@.";
  Fmt.pr "  %4s %14s %14s %14s@." "m" "rand-worlds" "propensities" "Laplace";
  List.iter
    (fun m ->
      let kb =
        parse (String.concat " /\\ " (List.init m (fun i -> Printf.sprintf "Fly(C%d)" i)))
      in
      let query = parse "Fly(Cnew)" in
      let parts = Analysis.analyze kb in
      let rw =
        let at n =
          Option.get (Profile.pr_n parts ~query ~n ~tol:(Tolerance.uniform 0.05))
        in
        let i, _, _ =
          Limits.linear_intercept
            [ 1.0 /. 20.0; 1.0 /. 40.0; 1.0 /. 80.0 ]
            [ at 20; at 40; at 80 ]
        in
        i
      in
      let prop =
        match Propensity.estimate ~ns:[ 20; 30; 40 ] ~kb query with
        | Some v -> v
        | None -> Float.nan
      in
      Fmt.pr "  %4d %14.4f %14.4f %14.4f@." m rw prop
        (float_of_int (m + 1) /. float_of_int (m + 2)))
    [ 1; 3; 8 ];
  let kb = parse "forall x (Giraffe(x) => Tall(x))" in
  let rw =
    match
      Answer.point_value
        (Maxent_engine.estimate (Rw_compile.Compiled_kb.compile kb)
           (parse "Tall(C)"))
    with
    | Some v -> v
    | None -> Float.nan
  in
  let prop =
    match Propensity.estimate ~ns:[ 20; 30; 40 ] ~kb (parse "Tall(C)") with
    | Some v -> v
    | None -> Float.nan
  in
  Fmt.pr "  'all giraffes are tall' only:  rand-worlds %.4f, propensities %.4f@."
    rw prop;
  Fmt.pr "  → propensities learn from samples (Laplace), and over-learn from@.";
  Fmt.pr "    bare universals — both sides of the Section 7.3 discussion.@."

(* ------------------------------------------------------------------ *)
(* Table 10: the query service — cache hit-rate and repeat speedup    *)
(* ------------------------------------------------------------------ *)

(* Two syntactic variants of a query that canonicalize to the same
   digest: a double negation, and a commuted/decorated form. The mixed
   workload re-asks every zoo query in both variants — the cache
   should collapse all three to one engine dispatch. *)
let variant_commuted (q : Syntax.formula) =
  match q with
  | Syntax.And (a, b) -> Syntax.And (b, a)
  | Syntax.Or (a, b) -> Syntax.Or (b, a)
  | Syntax.Compare (z1, (Syntax.Approx_eq _ as c), z2) -> Syntax.Compare (z2, c, z1)
  | q -> Syntax.And (q, Syntax.True)

let table_service () =
  section "Table 10 — query service: answer cache over the KB zoo";
  Fmt.pr
    "  workload: every zoo query asked 3× (verbatim, ~~q, commuted) through \
     one service@.";
  let svc =
    Rw_service.Service.create
      ~config:
        {
          Rw_service.Service.default_config with
          Rw_service.Service.cache_capacity = 256;
        }
      ()
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let total_direct = ref 0.0 and total_service = ref 0.0 in
  let mismatches = ref 0 in
  Fmt.pr "  %-5s %12s %12s %8s@." "id" "direct (ms)" "service (ms)" "agree";
  List.iter
    (fun (e : Rw_kbzoo.Kbzoo.entry) ->
      let variants = [ e.query; Syntax.Not (Syntax.Not e.query); variant_commuted e.query ] in
      (* Direct: the one-shot path, a full dispatch per variant. *)
      let direct_answers, direct_t =
        time (fun () ->
            List.map (fun q -> Engine.degree_of_belief ~kb:e.kb q) variants)
      in
      Rw_service.Service.load_kb svc e.kb;
      let service_answers, service_t =
        time (fun () ->
            List.map
              (fun q ->
                match Rw_service.Service.query svc q with
                | Ok (a, _) -> a
                | Error msg -> failwith msg)
              variants)
      in
      (* All three service answers come from one cache entry, so they
         must all match the direct dispatch of the verbatim query.
         (Direct dispatch of a syntactic variant may legitimately land
         on a different engine — that is the cost the cache removes.) *)
      let d0 = List.hd direct_answers in
      let agree =
        List.for_all
          (fun (s : Answer.t) ->
            d0.Answer.result = s.Answer.result
            && d0.Answer.engine = s.Answer.engine)
          service_answers
      in
      if not agree then incr mismatches;
      total_direct := !total_direct +. direct_t;
      total_service := !total_service +. service_t;
      Fmt.pr "  %-5s %12.3f %12.3f %8s@." e.id (direct_t *. 1000.0)
        (service_t *. 1000.0)
        (if agree then "yes" else "NO"))
    (Rw_kbzoo.Kbzoo.all ());
  let stats = Rw_service.Service.stats svc in
  let cache = stats.Rw_service.Service.cache in
  let lookups = cache.Rw_service.Lru.hits + cache.Rw_service.Lru.misses in
  Fmt.pr "  %-5s %12.3f %12.3f@." "total" (!total_direct *. 1000.0)
    (!total_service *. 1000.0);
  Fmt.pr
    "-- hit-rate %d/%d = %.0f%%, repeat-query speedup %.1fx, %d verdict \
     mismatches@."
    cache.Rw_service.Lru.hits lookups
    (100.0 *. float_of_int cache.Rw_service.Lru.hits /. float_of_int (max 1 lookups))
    (!total_direct /. Float.max 1e-9 !total_service)
    !mismatches

(* ------------------------------------------------------------------ *)
(* Table 13: the durable answer store                                 *)
(* ------------------------------------------------------------------ *)

(* What persistence buys and what it costs: a cold session (every
   query a full engine dispatch plus a write-through) against a
   warm-restarted one (fresh process: recovery scan, cold LRU, every
   query a store hit), at pool widths 1, 2 and 4; then the per-hit
   latency of each cache tier on one resident KB. *)
let table_store () =
  section
    "Table 13 — durable answer store: cold vs warm restart, hit latency by \
     tier";
  Fmt.pr
    "  workload: every zoo query asked 3 ways (verbatim, ~~q, commuted), \
     batch per entry@.";
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let with_store path f =
    match Rw_store.Store.open_ path with
    | Error msg -> failwith msg
    | Ok (st, report) ->
      Fun.protect
        ~finally:(fun () -> Rw_store.Store.close st)
        (fun () -> f st report)
  in
  let service ?store ?pool () =
    Rw_service.Service.create
      ~config:
        {
          Rw_service.Service.default_config with
          Rw_service.Service.cache_capacity = 256;
        }
      ?store ?pool ()
  in
  let run_workload svc =
    List.iter
      (fun (e : Rw_kbzoo.Kbzoo.entry) ->
        Rw_service.Service.load_kb svc e.kb;
        List.iter
          (function Ok _ -> () | Error msg -> failwith msg)
          (Rw_service.Service.batch svc
             [
               e.query;
               Syntax.Not (Syntax.Not e.query);
               variant_commuted e.query;
             ]))
      (Rw_kbzoo.Kbzoo.all ())
  in
  Fmt.pr "  %-28s %12s %12s %9s %10s@." "workload" "cold (ms)" "warm (ms)"
    "speedup" "recovered";
  (* Zoo sweep, sequential: cold = engine dispatch + write-through per
     distinct digest; warm restart = recovery scan + cold LRU, every
     answer a store hit. *)
  let path = Filename.temp_file "rw_bench_store" ".rws" in
  let (), cold_t =
    time (fun () ->
        with_store path (fun st _ -> run_workload (service ~store:st ())))
  in
  let recovered = ref 0 in
  let (), warm_t =
    time (fun () ->
        with_store path (fun st report ->
            recovered := report.Rw_store.Store.recovered;
            run_workload (service ~store:st ())))
  in
  Fmt.pr "  %-28s %12.1f %12.1f %8.1fx %10d@." "zoo x3 variants, jobs 1"
    (cold_t *. 1000.0) (warm_t *. 1000.0)
    (cold_t /. Float.max 1e-9 warm_t)
    !recovered;
  Sys.remove path;
  (* One batch of distinct queries through the domain pool: the
     parallel write-through (cold) and the parallel store-hit path
     (warm restart) at widths 1, 2 and 4. Each timed session makes its
     own pool, as a fresh process would, so worker start-up is
     counted. Distinct digests, so domains never dogpile on one cache
     entry. *)
  let batch_n = 64 in
  let batch_kb = parse "Jaun(Eric) /\\ ||Hep(x) | Jaun(x)||_x ~=_1 0.8" in
  let batch_qs =
    List.init batch_n (fun i -> parse (Printf.sprintf "Hep(C%d)" i))
  in
  let run_batch ~jobs f =
    Rw_pool.Pool.run ~jobs (fun pool ->
        let svc = f pool in
        Rw_service.Service.load_kb svc batch_kb;
        List.iter
          (function Ok _ -> () | Error msg -> failwith msg)
          (Rw_service.Service.batch svc batch_qs))
  in
  List.iter
    (fun jobs ->
      let path = Filename.temp_file "rw_bench_store" ".rws" in
      let (), cold_t =
        time (fun () ->
            with_store path (fun st _ ->
                run_batch ~jobs (fun pool -> service ~store:st ~pool ())))
      in
      let recovered = ref 0 in
      let (), warm_t =
        time (fun () ->
            with_store path (fun st report ->
                recovered := report.Rw_store.Store.recovered;
                run_batch ~jobs (fun pool -> service ~store:st ~pool ())))
      in
      Fmt.pr "  %-28s %12.1f %12.1f %8.1fx %10d@."
        (Printf.sprintf "%d-query batch, jobs %d" batch_n jobs)
        (cold_t *. 1000.0) (warm_t *. 1000.0)
        (cold_t /. Float.max 1e-9 warm_t)
        !recovered;
      Sys.remove path)
    [ 1; 2; 4 ];
  (* Why the wider rows lose, free of the service: 64 tasks of float
     arithmetic that never allocate (so never collect) against 64 that
     allocate, at each width on a pool whose workers are already
     running. A minor collection stops every domain, so once domains
     outnumber the cores that run them, each collection waits for the
     descheduled ones. Medians of 9. *)
  let spin () =
    let x = ref 0.0 in
    for i = 1 to 30_000 do
      x := !x +. sqrt (float_of_int i)
    done;
    ignore (Sys.opaque_identity !x)
  in
  let alloc () =
    ignore (Sys.opaque_identity (List.init 3_000 float_of_int))
  in
  let probe f jobs =
    let runs =
      List.init 9 (fun _ ->
          Rw_pool.Pool.run ~jobs (fun p ->
              ignore (Rw_pool.Pool.map p f (List.init 8 ignore));
              let g0 = (Gc.quick_stat ()).Gc.minor_collections in
              let (), dt =
                time (fun () -> ignore (Rw_pool.Pool.map p f (List.init 64 ignore)))
              in
              (dt, (Gc.quick_stat ()).Gc.minor_collections - g0)))
      |> List.sort compare
    in
    List.nth runs 4
  in
  List.iter
    (fun (name, f) ->
      Fmt.pr "  64 %-5s tasks:%s@." name
        (String.concat ""
           (List.map
              (fun jobs ->
                let dt, gcs = probe f jobs in
                Fmt.str "  jobs %d %.2f ms (%d minor GCs)" jobs (dt *. 1000.0)
                  gcs)
              [ 1; 2; 4 ])))
    [ ("spin", spin); ("alloc", alloc) ];
  (* Per-hit latency by tier: N distinct queries against one resident
     KB, asked once per tier state. LRU-only vs store-backed separates
     the hashtable probe from the positional read + payload decode. *)
  let n = batch_n in
  let hep_kb = batch_kb in
  let qs = batch_qs in
  let ask svc q =
    match Rw_service.Service.query svc q with
    | Ok _ -> ()
    | Error msg -> failwith msg
  in
  let path = Filename.temp_file "rw_bench_store" ".rws" in
  let lru_t =
    with_store path (fun st _ ->
        let svc = service ~store:st () in
        Rw_service.Service.load_kb svc hep_kb;
        List.iter (ask svc) qs;
        (* populate both tiers *)
        snd (time (fun () -> List.iter (ask svc) qs)))
  in
  let store_t =
    with_store path (fun st _ ->
        let svc = service ~store:st () in
        Rw_service.Service.load_kb svc hep_kb;
        (* cold LRU over a full store: every ask probes the log *)
        snd (time (fun () -> List.iter (ask svc) qs)))
  in
  let engine_t =
    let svc = service () in
    Rw_service.Service.load_kb svc hep_kb;
    snd (time (fun () -> List.iter (ask svc) qs))
  in
  Sys.remove path;
  Fmt.pr
    "-- hit latency (n=%d): lru %.1f µs/q, store %.1f µs/q, engine dispatch \
     %.1f µs/q@."
    n
    (lru_t *. 1e6 /. float_of_int n)
    (store_t *. 1e6 /. float_of_int n)
    (engine_t *. 1e6 /. float_of_int n)

(* ------------------------------------------------------------------ *)
(* Table 14: compiled knowledge bases                                 *)
(* ------------------------------------------------------------------ *)

(* What keeping the compiled-KB artifact resident buys on the canonical
   serve workload: many distinct queries against one resident KB.
   Every query is a distinct canonical digest, so the answer tiers
   never hit and each item is a full dispatch — the only difference
   between the columns is whether the dispatch reuses the resident
   artifact (its filled maxent solves and profile tables) or compiles a
   fresh one per query ("plain", [compiled_capacity = 0]) and so
   re-solves everything it needs. Verdicts are cross-checked
   item-by-item: the reuse must be invisible in the answers. *)
let table_compile () =
  section
    "Table 14 — compiled KBs: same-KB batches, resident artifact vs fresh per query";
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let kb = parse "Jaun(Eric) /\\ ||Hep(x) | Jaun(x)||_x ~=_1 0.8" in
  let run ~compiled_capacity qs =
    let svc =
      Rw_service.Service.create
        ~config:
          {
            Rw_service.Service.default_config with
            Rw_service.Service.compiled_capacity;
          }
        ()
    in
    Rw_service.Service.load_kb svc kb;
    time (fun () ->
        List.map
          (fun q ->
            match Rw_service.Service.query svc q with
            | Ok ((a : Answer.t), _) -> a.Answer.result
            | Error msg -> failwith msg)
          qs)
  in
  let mismatches a b =
    List.fold_left2 (fun n x y -> if x = y then n else n + 1) 0 a b
  in
  Fmt.pr "  %-34s %12s %12s %9s %11s@." "workload" "plain (ms)" "compiled (ms)"
    "speedup" "mismatches";
  let row label qs =
    let plain, plain_t = run ~compiled_capacity:0 qs in
    let fast, fast_t =
      run
        ~compiled_capacity:
          Rw_service.Service.default_config
            .Rw_service.Service.compiled_capacity qs
    in
    let n = List.length qs in
    Fmt.pr "  %-34s %12.1f %12.1f %8.1fx %11d@." label (plain_t *. 1000.0)
      (fast_t *. 1000.0)
      (plain_t /. Float.max 1e-9 fast_t)
      (mismatches plain fast);
    Fmt.pr "    per query: %.0f µs -> %.0f µs@."
      (plain_t *. 1e6 /. float_of_int n)
      (fast_t *. 1e6 /. float_of_int n)
  in
  (* The headline batch: 1000 distinct maxent-routed queries (unknown
     constants C0..C999 defeat the answer LRU by construction). *)
  row "1000 distinct queries, maxent"
    (List.init 1000 (fun i -> parse (Printf.sprintf "Hep(C%d)" i)));
  (* The unary engine's profile tables: force the counting engine on
     200 distinct queries (bypassing dispatch, which would route these
     to maxent), with a fresh artifact per query or one shared
     artifact whose memoised tables fill once. *)
  let unary_qs = List.init 200 (fun i -> parse (Printf.sprintf "Hep(C%d)" i)) in
  let artifact = Rw_compile.Compiled_kb.compile kb in
  let run_unary compiled =
    time (fun () ->
        List.map
          (fun q ->
            let a = Engine.run ?compiled Engine.Unary ~kb q in
            a.Answer.result)
          unary_qs)
  in
  let plain_u, plain_ut = run_unary None in
  let fast_u, fast_ut = run_unary (Some artifact) in
  Fmt.pr "  %-34s %12.1f %12.1f %8.1fx %11d@." "200 distinct queries, unary"
    (plain_ut *. 1000.0) (fast_ut *. 1000.0)
    (plain_ut /. Float.max 1e-9 fast_ut)
    (mismatches plain_u fast_u);
  Fmt.pr "    per query: %.0f µs -> %.0f µs@."
    (plain_ut *. 1e6 /. 200.0)
    (fast_ut *. 1e6 /. 200.0);
  (* The artifact itself: what one compile (the syntactic pass, no
     solve) costs up front, and the profile tables the shared run
     filled. *)
  let s = Rw_compile.Compiled_kb.stats artifact in
  Fmt.pr
    "-- one-time compile %.2f ms: %d conjuncts (%d statistical), %s atoms, \
     %d profile tables filled@."
    s.Rw_compile.Compiled_kb.compile_ms s.Rw_compile.Compiled_kb.conjunct_count
    s.Rw_compile.Compiled_kb.stat_count
    (match s.Rw_compile.Compiled_kb.atoms with
    | Some n -> string_of_int n
    | None -> "-")
    s.Rw_compile.Compiled_kb.tables

(* ------------------------------------------------------------------ *)
(* Table 15: belief-change sessions                                   *)
(* ------------------------------------------------------------------ *)

(* What delta-aware invalidation buys an accumulating agent: a session
   holding 50 cached rules-definitive answers takes one piece of
   evidence disjoint from all of them, then re-asks everything. The
   session path revalidates — the compiled artifact is carried across
   the digest change (evidence-only delta) and every re-query is an
   LRU hit under the new digest. The baseline is what the same agent
   had to do before sessions existed: reload the combined KB (a full
   swap — caches reclaimed, artifact recompiled) and recompute every
   answer. Verdicts are cross-checked bit-for-bit between the paths;
   the reuse must be invisible in the answers. *)
let table_session () =
  section "Table 15 — belief-change sessions: re-query after new evidence";
  let n = 50 in
  let kb =
    parse
      (String.concat " /\\ "
         ("||Hep(x) | Jaun(x)||_x ~=_1 0.8"
         :: List.init n (fun i -> Printf.sprintf "Jaun(E%d)" i)))
  in
  let queries = List.init n (fun i -> parse (Printf.sprintf "Hep(E%d)" i)) in
  let delta = parse "Jaun(Fred)" in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let ask svc q =
    match Rw_service.Service.query svc q with
    | Ok ((a : Answer.t), _) -> a.Answer.result
    | Error msg -> failwith msg
  in
  let warm () =
    let svc = Rw_service.Service.create () in
    Rw_service.Service.load_kb svc kb;
    List.iter (fun q -> ignore (ask svc q)) queries;
    svc
  in
  (* Session path: one disjoint assert, then re-ask everything. *)
  let svc_s = warm () in
  let outcome, update_t =
    time (fun () ->
        match
          Rw_service.Service.update svc_s Rw_service.Service.Assert delta
        with
        | Ok o -> o
        | Error msg -> failwith msg)
  in
  let results_s, requery_s = time (fun () -> List.map (ask svc_s) queries) in
  (* Swap path: the pre-session workflow — reload the combined KB
     (dropping every cache the digest change invalidates), recompute. *)
  let svc_w = warm () in
  let (), reload_t =
    time (fun () -> Rw_service.Service.load_kb svc_w (Syntax.And (kb, delta)))
  in
  let results_w, requery_w = time (fun () -> List.map (ask svc_w) queries) in
  let mism =
    List.fold_left2
      (fun m a b -> if a = b then m else m + 1)
      0 results_s results_w
  in
  Fmt.pr "  %-40s %13s %14s@." "path" "mutation (ms)" "re-query (ms)";
  Fmt.pr "  %-40s %13.2f %14.2f@."
    (Printf.sprintf "session assert (revalidated %d, %s)"
       outcome.Rw_service.Service.revalidated
       outcome.Rw_service.Service.artifact)
    (update_t *. 1000.0) (requery_s *. 1000.0);
  Fmt.pr "  %-40s %13.2f %14.2f@." "full KB reload (reclaim + recompute)"
    (reload_t *. 1000.0) (requery_w *. 1000.0);
  Fmt.pr
    "-- %d re-queries: revalidated %.1fx faster than post-reload recompute \
     (end to end %.1fx), %d verdict mismatches@."
    n
    (requery_w /. Float.max 1e-9 requery_s)
    ((reload_t +. requery_w) /. Float.max 1e-9 (update_t +. requery_s))
    mism

(* ------------------------------------------------------------------ *)
(* Table 11: domain-pool scaling                                      *)
(* ------------------------------------------------------------------ *)

(* The parallel contract measured: throughput scales with --jobs while
   the answers stay bit-identical, because the MC engine splits its
   generator per chunk (not per domain) and merges in chunk order. The
   MC workload pins the sample count (target half-width 0 disables
   early stopping) so every row does exactly the same work. *)
let table_parallel () =
  section "Table 11 — domain-pool scaling: MC sampling and batch throughput";
  let job_counts = [ 1; 2; 4; 8 ] in
  let hep_kb = parse "Jaun(Eric) /\\ ||Hep(x) | Jaun(x)||_x ~=_1 0.8" in
  let hep_query = parse "Hep(Eric)" in
  let vocab = Vocab.of_formulas [ hep_kb; hep_query ] in
  let tol = Tolerance.uniform 0.2 in
  let cfg =
    {
      Rw_mc.Estimator.default_config with
      Rw_mc.Estimator.max_samples = 262_144;
      target_halfwidth = 0.0;
    }
  in
  let run_mc pool =
    let t0 = Unix.gettimeofday () in
    let o =
      Rw_mc.Estimator.estimate ~config:cfg ?pool ~seed:42 ~vocab ~n:32 ~tol
        ~kb:hep_kb hep_query
    in
    (o, Unix.gettimeofday () -. t0)
  in
  Fmt.pr "  mc sampling, fixed %d-sample workload (N=32, τ=0.2, seed 42):@."
    cfg.Rw_mc.Estimator.max_samples;
  Fmt.pr "  %4s %9s %12s %8s   %-24s@." "jobs" "time (s)" "samples/s"
    "speedup" "estimate";
  let mc_base = ref 0.0 in
  let mc_results =
    List.map
      (fun jobs ->
        let o, dt = Rw_pool.Pool.run ~jobs (fun p -> run_mc (Some p)) in
        if jobs = 1 then mc_base := dt;
        let cell =
          match o with
          | Rw_mc.Estimator.Estimate { mean; ci; _ } ->
            Fmt.str "%.4f ∈ %a" mean Rw_prelude.Interval.pp ci
          | Rw_mc.Estimator.Starved _ -> "starved"
        in
        Fmt.pr "  %4d %9.2f %12.0f %7.1fx   %-24s@." jobs dt
          (float_of_int cfg.Rw_mc.Estimator.max_samples /. dt)
          (!mc_base /. dt) cell;
        match o with
        | Rw_mc.Estimator.Estimate { mean; ci; _ } -> Some (mean, ci)
        | Rw_mc.Estimator.Starved _ -> None)
      job_counts
  in
  (* Batch: distinct MC-routed queries (the binary predicate pushes
     each one past the unary/enum engines) against one resident KB,
     cache off so every item is a real dispatch. *)
  let srcs =
    List.init 16 (fun i -> Printf.sprintf "Hep(Eric) /\\ R%d(Eric, Eric)" i)
  in
  let run_batch jobs =
    Rw_pool.Pool.run ~jobs @@ fun pool ->
    let svc =
      Rw_service.Service.create
        ~config:
          {
            Rw_service.Service.default_config with
            Rw_service.Service.cache_capacity = 0;
            engine_options =
              {
                Engine.default_options with
                Engine.mc_samples = Some 10_000;
              };
          }
        ~pool ()
    in
    Rw_service.Service.load_kb svc hep_kb;
    let t0 = Unix.gettimeofday () in
    let results = Rw_service.Service.batch_srcs svc srcs in
    let dt = Unix.gettimeofday () -. t0 in
    let answers =
      List.map
        (fun (r, _ms) ->
          match r with
          | Ok ((a : Answer.t), _) -> Some a.Answer.result
          | Error _ -> None)
        results
    in
    (answers, dt)
  in
  Fmt.pr "@.  service batch, %d mc-routed queries, cache off:@."
    (List.length srcs);
  Fmt.pr "  %4s %9s %12s %8s@." "jobs" "time (s)" "queries/s" "speedup";
  let batch_base = ref 0.0 in
  let batch_results =
    List.map
      (fun jobs ->
        let answers, dt = run_batch jobs in
        if jobs = 1 then batch_base := dt;
        Fmt.pr "  %4d %9.2f %12.1f %7.1fx@." jobs dt
          (float_of_int (List.length srcs) /. dt)
          (!batch_base /. dt);
        answers)
      job_counts
  in
  let all_equal = function
    | [] -> true
    | x :: rest -> List.for_all (fun y -> y = x) rest
  in
  Fmt.pr "-- determinism across jobs: mc estimates %s, batch answers %s@."
    (if all_equal mc_results then "bit-identical" else "DIVERGED")
    (if all_equal batch_results then "bit-identical" else "DIVERGED")

(* ------------------------------------------------------------------ *)
(* Table 12: explanation traces — dispatch cost, explain off vs on    *)
(* ------------------------------------------------------------------ *)

(* The trace sink is a [Trace.t option] threaded as an optional
   argument: with --explain off the dispatcher carries [None] and each
   emission site is one match on it, so the off path must price at
   measurement noise. A live trace costs in proportion to the number
   of decision points (a few dozen facts per query), never the
   engine's own work. Both claims measured over the full KB zoo,
   best-of-R sweep totals, with the off/off spread as the noise
   floor. *)
let table_explain () =
  section "Table 12 — explanation traces: dispatch cost, explain off vs on";
  let entries = Rw_kbzoo.Kbzoo.all () in
  let sweep ~traced () =
    List.fold_left
      (fun events (e : Rw_kbzoo.Kbzoo.entry) ->
        let trace = if traced then Some (Rw_trace.Trace.create ()) else None in
        ignore (Engine.degree_of_belief ?trace ~kb:e.kb e.query);
        match trace with
        | Some tr -> events + List.length (Rw_trace.Trace.events tr)
        | None -> events)
      0 entries
  in
  let rounds = 5 in
  let best label f =
    let best_t = ref infinity and last = ref 0 in
    for _ = 1 to rounds do
      let t0 = Unix.gettimeofday () in
      last := f ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best_t then best_t := dt
    done;
    Fmt.pr "  %-30s %10.1f ms  (best of %d)@." label (!best_t *. 1000.0)
      rounds;
    (!best_t, !last)
  in
  ignore (sweep ~traced:false ());
  (* warm-up sweep *)
  let off1, _ = best "explain off (trace = None)" (sweep ~traced:false) in
  let off2, _ = best "explain off, repeated" (sweep ~traced:false) in
  let on, events = best "explain on (fresh trace)" (sweep ~traced:true) in
  let off = Float.min off1 off2 in
  let pct a b = 100.0 *. (a -. b) /. b in
  Fmt.pr
    "-- %d zoo queries, %d trace events when on (%.1f/query)@.\
     -- off/off spread %+.2f%% (noise floor), explain-on overhead %+.2f%%@."
    (List.length entries) events
    (float_of_int events /. float_of_int (List.length entries))
    (pct (Float.max off1 off2) off)
    (pct on off)

(* ------------------------------------------------------------------ *)
(* Performance benchmarks (Bechamel)                                  *)
(* ------------------------------------------------------------------ *)

let perf_tests () =
  let open Bechamel in
  let hep_kb = parse "Jaun(Eric) /\\ ||Hep(x) | Jaun(x)||_x ~=_1 0.8" in
  let hep_query = parse "Hep(Eric)" in
  let penguin_kb =
    parse
      "||Fly(x) | Bird(x)||_x ~=_1 1 /\\ ||Fly(x) | Penguin(x)||_x ~=_2 0 /\\ \
       forall x (Penguin(x) => Bird(x)) /\\ Penguin(Tweety)"
  in
  let penguin_query = parse "Fly(Tweety)" in
  let parts = Rw_unary.Analysis.analyze hep_kb in
  let vocab = Vocab.of_formulas [ hep_kb; hep_query ] in
  let tol = Tolerance.uniform 0.05 in
  Test.make_grouped ~name:"randworlds"
    [
      Test.make ~name:"parse-formula"
        (Staged.stage (fun () ->
             ignore (parse "||Hep(x) | Jaun(x)||_x ~=_1 0.8 /\\ Jaun(Eric)")));
      Test.make ~name:"rules-engine"
        (Staged.stage (fun () ->
             ignore
               (Rules_engine.infer (Rw_compile.Compiled_kb.compile hep_kb)
                  hep_query)));
      Test.make ~name:"maxent-solve-penguin"
        (Staged.stage (fun () ->
             ignore
               (Rw_unary.Solver.solve
                  (Rw_unary.Analysis.analyze penguin_kb)
                  (Tolerance.uniform 0.01))));
      Test.make ~name:"maxent-estimate-penguin"
        (Staged.stage (fun () ->
             ignore
               (Maxent_engine.estimate
                  (Rw_compile.Compiled_kb.compile penguin_kb)
                  penguin_query)));
      Test.make ~name:"profile-prn-N20"
        (Staged.stage (fun () ->
             ignore (Rw_unary.Profile.pr_n parts ~query:hep_query ~n:20 ~tol)));
      Test.make ~name:"enum-prn-N4"
        (Staged.stage (fun () ->
             ignore (Enum_engine.pr_n ~vocab ~n:4 ~tol ~kb:hep_kb hep_query)));
      Test.make ~name:"mc-prn-N50-2k-samples"
        (Staged.stage
           (let cfg =
              {
                Rw_mc.Estimator.default_config with
                Rw_mc.Estimator.max_samples = 2_000;
                min_hits = 10;
              }
            in
            fun () ->
              ignore
                (Mc_engine.pr_n ~config:cfg ~vocab ~n:50 ~tol ~kb:hep_kb
                   hep_query)));
      Test.make ~name:"dempster-combine"
        (Staged.stage (fun () -> ignore (Dempster.combine [ 0.8; 0.7; 0.9 ])));
      Test.make ~name:"dispatcher-E01"
        (Staged.stage (fun () ->
             ignore (Engine.degree_of_belief ~kb:hep_kb hep_query)));
    ]

let run_perf () =
  section "Performance — Bechamel micro-benchmarks (monotonic clock)";
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances (perf_tests ()) in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  (* Print one row per test: nanoseconds per run. *)
  let clock = Hashtbl.find results (Toolkit.Instance.monotonic_clock |> Measure.label) in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) clock [] in
  Fmt.pr "%-40s %16s@." "benchmark" "time/run";
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] ->
        let pretty =
          if est > 1e9 then Fmt.str "%.3f s" (est /. 1e9)
          else if est > 1e6 then Fmt.str "%.3f ms" (est /. 1e6)
          else if est > 1e3 then Fmt.str "%.3f µs" (est /. 1e3)
          else Fmt.str "%.0f ns" est
        in
        Fmt.pr "%-40s %16s@." name pretty
      | _ -> Fmt.pr "%-40s %16s@." name "—")
    (List.sort Stdlib.compare rows)

(* ------------------------------------------------------------------ *)

let () =
  let no_perf = Array.exists (fun a -> a = "--no-perf") Sys.argv in
  (* Iterating on one table? --only-explain runs just Table 12. *)
  if Array.exists (fun a -> a = "--only-explain") Sys.argv then (
    table_explain ();
    Fmt.pr "@.done.@.";
    exit 0);
  if Array.exists (fun a -> a = "--only-store") Sys.argv then (
    table_store ();
    Fmt.pr "@.done.@.";
    exit 0);
  if Array.exists (fun a -> a = "--only-compile") Sys.argv then (
    table_compile ();
    Fmt.pr "@.done.@.";
    exit 0);
  if Array.exists (fun a -> a = "--only-session") Sys.argv then (
    table_session ();
    Fmt.pr "@.done.@.";
    exit 0);
  table_zoo ();
  table_dempster ();
  figure_convergence ();
  table_baselines ();
  table_priorities ();
  table_representation ();
  table_lottery ();
  table_limits_of_method ();
  table_learning ();
  table_mc ();
  table_service ();
  table_parallel ();
  table_explain ();
  table_store ();
  table_compile ();
  table_session ();
  figure_scaling ();
  if not no_perf then run_perf ();
  Fmt.pr "@.done.@."
