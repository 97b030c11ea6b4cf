(** The syntactic rule engine: direct application of the paper's
    theorems when their hypotheses hold.

    - {b Rule A} (Theorem 5.6 / Corollary 5.7): exact reference class.
      If the KB splits as [ψ(c̄) ∧ KB′] with the query constants
      appearing nowhere in [KB′], and [KB′] contains a statistic for
      [||φ(x̄) | ψ(x̄)||], that statistic is the degree of belief.
      Purely syntactic (matching modulo alpha/AC), so it applies to
      arbitrary-arity predicates, quantified classes, and nested
      defaults.
    - {b Rule B} (Theorem 5.16): unique minimal reference class with
      irrelevant extra information, for unary boolean classes.
    - {b Rule C} (Theorem 5.23): Kyburg's strength rule along a chain
      of reference classes.
    - {b Rule D} (Theorem 5.26): Dempster's rule of combination for
      essentially-disjoint reference classes.

    Each rule returns a sound interval (or point); the engine
    intersects everything it can prove. A failed hypothesis check makes
    a rule silently inapplicable — never an unsound answer. *)

open Rw_prelude
open Rw_logic
open Syntax
module Trace = Rw_trace.Trace

(* ------------------------------------------------------------------ *)
(* Helpers                                                            *)
(* ------------------------------------------------------------------ *)

(* Replace constant symbols by variables. *)
let rec const_to_var_term mapping = function
  | Var x -> Var x
  | Fn (c, []) as t -> (
    match List.assoc_opt c mapping with Some x -> Var x | None -> t)
  | Fn (f, args) -> Fn (f, List.map (const_to_var_term mapping) args)

let rec const_to_var mapping f =
  match f with
  | True | False -> f
  | Pred (p, args) -> Pred (p, List.map (const_to_var_term mapping) args)
  | Eq (t1, t2) -> Eq (const_to_var_term mapping t1, const_to_var_term mapping t2)
  | Not g -> Not (const_to_var mapping g)
  | And (g, h) -> And (const_to_var mapping g, const_to_var mapping h)
  | Or (g, h) -> Or (const_to_var mapping g, const_to_var mapping h)
  | Implies (g, h) -> Implies (const_to_var mapping g, const_to_var mapping h)
  | Iff (g, h) -> Iff (const_to_var mapping g, const_to_var mapping h)
  | Forall (x, g) -> Forall (x, const_to_var mapping g)
  | Exists (x, g) -> Exists (x, const_to_var mapping g)
  | Compare (z1, c, z2) ->
    Compare (const_to_var_prop mapping z1, c, const_to_var_prop mapping z2)

and const_to_var_prop mapping = function
  | Num x -> Num x
  | Prop (f, xs) -> Prop (const_to_var mapping f, xs)
  | Cond (f, g, xs) -> Cond (const_to_var mapping f, const_to_var mapping g, xs)
  | Add (z1, z2) -> Add (const_to_var_prop mapping z1, const_to_var_prop mapping z2)
  | Mul (z1, z2) -> Mul (const_to_var_prop mapping z1, const_to_var_prop mapping z2)

(* Fresh variable names for abstracted constants, avoiding everything
   in sight. *)
let abstraction_mapping avoid consts =
  let avoid = ref avoid in
  List.map
    (fun c ->
      let x = Syntax.fresh_var !avoid ("x" ^ String.lowercase_ascii c) in
      avoid := Syntax.Sset.add x !avoid;
      (c, x))
    consts

(* The statistical-conjunct machinery lives in {!Rw_compile.Stat} so a
   compiled KB can pre-index it once per KB; re-exported here (with the
   record fields) to keep the rule code reading naturally. *)
module Cstat = Rw_compile.Stat

type stat = Cstat.t = {
  target : formula;  (** φ of [||φ | ψ||] *)
  ref_class : formula;  (** ψ *)
  subscript : string list;
  bounds : Interval.t;
  tol_index : int;
}

let complement_stat = Cstat.complement
let with_complements = Cstat.with_complements
let merge_stats = Cstat.merge

(* ------------------------------------------------------------------ *)
(* Eventual-inconsistency pre-checks                                  *)
(* ------------------------------------------------------------------ *)

(* Every theorem below presupposes an (eventually) consistent KB —
   Pr_N(φ | KB) has a vacuous denominator otherwise, and matching a
   statistic against an inconsistent KB yields confident nonsense
   (e.g. answering 0 from ||P(x)|P(x)|| ≈ 0 ∧ P(D), a KB with no
   worlds once τ < 1). Two cheap sound checks run first; either one
   firing makes the whole inference [Inconsistent]. Both are
   query-independent, so they live in {!Rw_compile.Compiled_kb} and
   the artifact carries their results as booleans. *)

(* ------------------------------------------------------------------ *)
(* Rule A: Theorem 5.6                                                *)
(* ------------------------------------------------------------------ *)

(* Non-empty subsets of a list, smaller lists later (prefer abstracting
   all query constants first — the most specific reading). *)
let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
    let tails = subsets rest in
    List.map (fun tl -> x :: tl) tails @ tails

(* [indexed] pairs each KB conjunct with its pre-recognised statistical
   reading (a compiled KB's {!Rw_compile.Compiled_kb.stat_index}), so
   the candidate statistics come from a partition of the index instead
   of re-parsing every conjunct per query. *)
let rule_a ~trace ~indexed ~query =
  let query_consts = Syntax.constants query in
  if query_consts = [] then None
  else begin
    let avoid =
      List.fold_left
        (fun acc (f, _) -> Syntax.Sset.union acc (Syntax.all_vars_formula f))
        (Syntax.all_vars_formula query) indexed
    in
    let candidates =
      List.filter (fun s -> s <> []) (subsets query_consts)
    in
    let try_subset cs =
      let mentions (f, _) =
        List.exists (fun c -> Syntax.mentions_constant c f) cs
      in
      let psi_pairs, kb' = List.partition mentions indexed in
      if psi_pairs = [] then None
      else begin
        let mapping = abstraction_mapping avoid cs in
        let xs = List.map snd mapping in
        let phi_x = const_to_var mapping query in
        let psi_x = const_to_var mapping (conj (List.map fst psi_pairs)) in
        (* Hypotheses: the abstracted constants appear nowhere else. *)
        if
          List.exists
            (fun (f, _) ->
              List.exists (fun c -> Syntax.mentions_constant c f) cs)
            kb'
        then None
        else begin
          let pattern = Cond (phi_x, psi_x, xs) in
          let stats = with_complements (List.filter_map snd kb') in
          let matching =
            List.filter
              (fun s ->
                Unify.prop_alpha_ac_equal pattern
                  (Cond (s.target, s.ref_class, s.subscript)))
              stats
          in
          match merge_stats matching with
          | s :: _ ->
            (match trace with
            | None -> ()
            | Some tr ->
              Trace.fact tr "theorem"
                [
                  ("id", Trace.S "5.6");
                  ("name", Trace.S "exact reference class");
                  ("statistic", Trace.S (Pretty.proportion_to_string pattern));
                  ( "abstracted-constants",
                    Trace.S (String.concat "," cs) );
                  ( "precondition",
                    Trace.S
                      "the query constants occur nowhere in the rest of the KB"
                  );
                  ("bounds", Trace.S (Fmt.str "%a" Interval.pp s.bounds));
                ]);
            Some s.bounds
          | [] -> None
        end
      end
    in
    List.fold_left
      (fun acc cs -> match acc with Some _ -> acc | None -> try_subset cs)
      None candidates
  end

(* ------------------------------------------------------------------ *)
(* Unary scaffolding shared by rules B, C, D                          *)
(* ------------------------------------------------------------------ *)

type unary_context = {
  universe : Atoms.universe;
  theory : Atoms.Set.t;  (** atoms allowed by the universal facts *)
  known : formula;  (** everything the KB says about the query constant,
                        abstracted to the variable ["x"] *)
  stats : stat list;  (** statistics whose target matches the query *)
  query_var : string;
}

(* Build the unary context for a single-constant query, enforcing
   Theorem 5.16's condition (c): the query's predicate symbols occur in
   the KB only as targets of the matched statistics. Like {!rule_a},
   consumes the pre-indexed conjunct list. *)
let unary_context ~indexed ~query =
  let kb_conjuncts = List.map fst indexed in
  match Syntax.constants query with
  | [ c ] -> begin
    let all_preds = List.concat_map Syntax.unary_preds (query :: kb_conjuncts) in
    (* Everything must be unary & equality-free for the atom reasoner. *)
    let ok_fragment =
      List.for_all
        (fun f -> Syntax.is_unary_vocab f && not (Syntax.mentions_equality f))
        (query :: kb_conjuncts)
    in
    if (not ok_fragment) || List.length (Listx.sort_uniq_strings all_preds) > Atoms.max_preds
    then None
    else begin
      let universe = Atoms.universe all_preds in
      let x = "x_rw" in
      let mapping = [ (c, x) ] in
      let phi_x = const_to_var mapping query in
      if not (Atoms.is_boolean_over universe ~subject:(Var x) phi_x) then None
      else begin
        let query_preds =
          let ps, _ = Syntax.symbols query in
          List.map fst ps
        in
        let matches_query s =
          Unify.prop_alpha_ac_equal
            (Prop (s.target, s.subscript))
            (Prop (phi_x, [ x ]))
        in
        let stats, rest =
          List.partition_map
            (fun (f, st) ->
              match st with
              | Some s
                when (not (Syntax.mentions_constant c f))
                     && (matches_query s || matches_query (complement_stat s)) ->
                Left (if matches_query s then s else complement_stat s)
              | _ -> Right f)
            indexed
        in
        if stats = [] then None
        else begin
          (* Condition (c): the query's symbols appear nowhere in the
             remaining conjuncts nor in any reference class. *)
          let clean f =
            let ps, _ = Syntax.symbols f in
            not (List.exists (fun (p, _) -> List.mem p query_preds) ps)
          in
          if not (List.for_all clean rest && List.for_all (fun s -> clean s.ref_class) stats)
          then None
          else begin
            let universals, others =
              List.partition_map
                (fun f ->
                  match f with
                  | Forall (y, body) when Atoms.is_boolean_over universe ~subject:(Var y) body ->
                    Left (Forall (y, body))
                  | _ -> Right f)
                rest
            in
            (* Boolean facts about c feed the entailment checks; other
               conjuncts (statistics about unrelated predicates,
               overlap-smallness assertions, …) are permitted by the
               theorem — they already passed the condition-(c) symbol
               check — and are simply not used for entailment, which is
               conservative. Conjuncts that mention c in a non-boolean
               way would make "everything known about c" ambiguous, so
               those do fail the hypotheses. *)
            let fact_formulas =
              List.filter_map
                (fun f ->
                  if
                    Syntax.constants f = [ c ]
                    && Atoms.is_boolean_over universe ~subject:(Fn (c, [])) f
                  then Some (const_to_var mapping f)
                  else None)
                others
            in
            let mentions_c_non_boolean =
              List.exists
                (fun f ->
                  Syntax.mentions_constant c f
                  && not
                       (Syntax.constants f = [ c ]
                       && Atoms.is_boolean_over universe ~subject:(Fn (c, [])) f))
                others
            in
            if mentions_c_non_boolean then None
            else begin
              let known = conj fact_formulas in
              (* Reference classes must be boolean over the subscript. *)
              let stats_ok =
                List.for_all
                  (fun s ->
                    match s.subscript with
                    | [ y ] -> Atoms.is_boolean_over universe ~subject:(Var y) s.ref_class
                    | _ -> false)
                  stats
              in
              if not stats_ok then None
              else begin
                let theory = Atoms.theory universe universals in
                (* Rename each stat's class to the canonical variable. *)
                let stats =
                  List.map
                    (fun s ->
                      match s.subscript with
                      | [ y ] ->
                        { s with
                          ref_class = subst [ (y, Var x) ] s.ref_class;
                          target = subst [ (y, Var x) ] s.target;
                          subscript = [ x ];
                        }
                      | _ -> s)
                    stats
                in
                Some { universe; theory; known; stats = merge_stats stats; query_var = x }
              end
            end
          end
        end
      end
    end
  end
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Rule B: Theorem 5.16 (minimal class, irrelevance)                  *)
(* ------------------------------------------------------------------ *)

let rule_b ~trace ctx =
  let { universe = u; theory; known; stats; query_var = x } = ctx in
  (* ψ0 must be entailed by the known facts and minimal among all
     reference classes. *)
  let is_minimal s0 =
    Atoms.entails ~theory u x known s0.ref_class
    && List.for_all
         (fun s ->
           Unify.alpha_ac_equal s.ref_class s0.ref_class
           || Atoms.entails ~theory u x s0.ref_class s.ref_class
           || Atoms.disjoint ~theory u x s0.ref_class s.ref_class)
         stats
  in
  (match trace with
  | None -> ()
  | Some tr ->
    List.iter
      (fun s ->
        Trace.fact tr "ref-class"
          [
            ("class", Trace.S (Pretty.to_string s.ref_class));
            ("bounds", Trace.S (Fmt.str "%a" Interval.pp s.bounds));
            ("role", Trace.S "candidate");
          ])
      stats);
  match List.find_opt is_minimal stats with
  | Some s0 ->
    (match trace with
    | None -> ()
    | Some tr ->
      Trace.fact tr "ref-class"
        [
          ("class", Trace.S (Pretty.to_string s0.ref_class));
          ("role", Trace.S "winner");
          ( "reason",
            Trace.S
              "most specific: entailed by everything known about the \
               individual, and every competing class is a superset or \
               disjoint" );
        ];
      Trace.fact tr "theorem"
        [
          ("id", Trace.S "5.16");
          ("name", Trace.S "minimal reference class");
          ("known", Trace.S (Pretty.to_string known));
          ("class", Trace.S (Pretty.to_string s0.ref_class));
          ("bounds", Trace.S (Fmt.str "%a" Interval.pp s0.bounds));
        ]);
    Some s0.bounds
  | None -> None

(* ------------------------------------------------------------------ *)
(* Rule C: Theorem 5.23 (strength rule on a chain)                    *)
(* ------------------------------------------------------------------ *)

let rule_c ~trace ctx =
  let { universe = u; theory; known; stats; query_var = x } = ctx in
  (* Sort classes by extension inclusion; they must form a chain with
     the known facts inside the smallest. *)
  let exts =
    List.map (fun s -> (Atoms.Set.inter (Atoms.extension_var u x s.ref_class) theory, s)) stats
  in
  (* Order classes by extension size; a chain must then be nested. *)
  let sorted =
    List.sort
      (fun (e1, _) (e2, _) ->
        Stdlib.compare
          (List.length (Atoms.members u e1))
          (List.length (Atoms.members u e2)))
      exts
  in
  let rec is_chain = function
    | (e1, _) :: ((e2, _) :: _ as rest) -> Atoms.Set.subset e1 e2 && is_chain rest
    | _ -> true
  in
  match sorted with
  | [] | [ _ ] -> None
  | (e1, _) :: _ as chain when is_chain chain ->
    let known_ext = Atoms.Set.inter (Atoms.extension_var u x known) theory in
    if not (Atoms.Set.subset known_ext e1) then None
    else begin
      (* The strictly tightest interval, if one exists. *)
      let tightest (_, s0) =
        List.for_all
          (fun (_, s) ->
            s == s0
            || (Interval.lo s.bounds < Interval.lo s0.bounds
               && Interval.hi s0.bounds < Interval.hi s.bounds))
          chain
      in
      match List.find_opt tightest chain with
      | Some (_, s0) ->
        (match trace with
        | None -> ()
        | Some tr ->
          List.iter
            (fun (_, s) ->
              Trace.fact tr "ref-class"
                [
                  ("class", Trace.S (Pretty.to_string s.ref_class));
                  ("bounds", Trace.S (Fmt.str "%a" Interval.pp s.bounds));
                  ("role", Trace.S "link");
                ])
            chain;
          Trace.fact tr "theorem"
            [
              ("id", Trace.S "5.23");
              ("name", Trace.S "strength rule");
              ( "precondition",
                Trace.S
                  "the reference classes form a nested chain containing \
                   everything known about the individual" );
              ("class", Trace.S (Pretty.to_string s0.ref_class));
              ("bounds", Trace.S (Fmt.str "%a" Interval.pp s0.bounds));
            ]);
        Some s0.bounds
      | None -> None
    end
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Rule D: Theorem 5.26 (Dempster combination)                        *)
(* ------------------------------------------------------------------ *)

(* Recognise a smallness conjunct asserting the overlap of two classes
   is negligible: ||ψi ∧ ψj||_x ≈ 0, ⪯ small, or ∃!x (ψi ∧ ψj). *)
let overlap_negligible ~kb_conjuncts x psi_i psi_j =
  let overlap = And (psi_i, psi_j) in
  List.exists
    (fun f ->
      match f with
      | Compare (Prop (g, [ y ]), Approx_eq _, Num v)
      | Compare (Prop (g, [ y ]), Approx_le _, Num v) ->
        v <= 0.01 && Unify.alpha_ac_equal (subst [ (y, Var x) ] g) overlap
      | Exists (y, And (body, Forall (_, Implies (_, Eq _)))) ->
        (* the ∃! encoding from [Syntax.exists_unique] *)
        Unify.alpha_ac_equal (subst [ (y, Var x) ] body) overlap
      | _ -> false)
    kb_conjuncts

let rule_d ~trace ~kb_conjuncts ctx =
  let { universe = u; theory; known; stats; query_var = x } = ctx in
  if List.length stats < 2 then None
  else begin
    (* Every class must cover the individual, carry a point statistic,
       and be pairwise essentially disjoint. *)
    let ok_class s =
      Interval.is_point s.bounds && Atoms.entails ~theory u x known s.ref_class
    in
    let rec pairwise = function
      | s :: rest ->
        List.for_all
          (fun t -> overlap_negligible ~kb_conjuncts x s.ref_class t.ref_class)
          rest
        && pairwise rest
      | [] -> true
    in
    if List.for_all ok_class stats && pairwise stats then begin
      let alphas = List.map (fun s -> Interval.lo s.bounds) stats in
      (match trace with
      | None -> ()
      | Some tr ->
        Trace.fact tr "theorem"
          [
            ("id", Trace.S "5.26");
            ("name", Trace.S "Dempster combination");
            ( "classes",
              Trace.S
                (String.concat " ; "
                   (List.map (fun s -> Pretty.to_string s.ref_class) stats)) );
            ( "precondition",
              Trace.S
                "each class covers the individual with a point statistic, \
                 and every pair is essentially disjoint" );
            ( "strengths",
              Trace.S
                (String.concat ","
                   (List.map (fun a -> Printf.sprintf "%g" a) alphas)) );
          ]);
      match Dempster.combine alphas with
      | v -> Some (`Point v)
      | exception Dempster.Conflicting_certainties ->
        (* Conflicting hard defaults: with a shared tolerance the limit
           is 1/2 (Section 5.3); with independent tolerances there is
           no limit. *)
        let indices = List.map (fun s -> s.tol_index) stats in
        if List.length (List.sort_uniq Stdlib.compare indices) = 1 then
          Some (`Point 0.5)
        else Some `No_limit
    end
    else None
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

(** [infer ?trace compiled query] applies every rule whose hypotheses
    hold and intersects the sound conclusions. The artifact supplies
    the pre-split conjuncts, the statistical index, and the
    pre-evaluated inconsistency checks. *)
let infer ?trace compiled query =
  Trace.span trace "rules" @@ fun () ->
  let module C = Rw_compile.Compiled_kb in
  let indexed = C.stat_index compiled in
  let kb_conjuncts = List.map fst indexed in
  if C.ground_inconsistent compiled then begin
    (match trace with
    | None -> ()
    | Some tr ->
      Trace.fact tr "inconsistency"
        [ ("reason", Trace.S "complementary pair of ground literals") ]);
    Answer.make
      ~notes:[ "ground facts contain a complementary literal pair" ]
      ~engine:"rules" Answer.Inconsistent
  end
  else if C.degenerate_inconsistent compiled then begin
    (match trace with
    | None -> ()
    | Some tr ->
      Trace.fact tr "inconsistency"
        [
          ( "reason",
            Trace.S
              "self-conditional statistic forces its class empty, but a \
               ground fact populates it" );
        ]);
    Answer.make
      ~notes:
        [ "self-conditional statistic forces its class empty, but a \
           ground fact populates it" ]
      ~engine:"rules" Answer.Inconsistent
  end
  else begin
  let answers = ref [] in
  let note = ref [] in
  try
  (match rule_a ~trace ~indexed ~query with
  | Some bounds ->
    answers := bounds :: !answers;
    note := "Theorem 5.6 (exact reference class)" :: !note
  | None -> ());
  (match unary_context ~indexed ~query with
  | None -> ()
  | Some ctx ->
    (match rule_b ~trace ctx with
    | Some bounds ->
      answers := bounds :: !answers;
      note := "Theorem 5.16 (minimal class)" :: !note
    | None -> ());
    (match rule_c ~trace ctx with
    | Some bounds ->
      answers := bounds :: !answers;
      note := "Theorem 5.23 (strength rule)" :: !note
    | None -> ());
    (match rule_d ~trace ~kb_conjuncts ctx with
    | Some (`Point v) ->
      answers := Interval.point v :: !answers;
      note := "Theorem 5.26 (Dempster combination)" :: !note
    | Some `No_limit -> raise Exit
    | None -> ()));
  match List.fold_left
          (fun acc b ->
            match acc with
            | None -> Some b
            | Some a -> (
              match Interval.inter a b with Some i -> Some i | None -> Some a))
          None !answers
  with
  | Some i when Interval.is_point i ->
    Answer.make ~notes:!note ~engine:"rules" (Answer.Point (Interval.lo i))
  | Some i -> Answer.make ~notes:!note ~engine:"rules" (Answer.Within i)
  | None ->
    Answer.make ~engine:"rules"
      (Answer.Not_applicable "no theorem's hypotheses matched")
  with Exit ->
    Answer.make
      ~notes:("Theorem 5.26: conflicting hard defaults" :: !note)
      ~engine:"rules"
      (Answer.No_limit "conflicting defaults with independent tolerances")
  end
