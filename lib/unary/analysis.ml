(** Structural analysis of unary knowledge bases.

    The fast engines (maximum-entropy asymptotics and exact multinomial
    counting) apply to knowledge bases over a *unary* vocabulary whose
    conjuncts fall into three shapes:

    - universal facts [∀x β(x)] with [β] a boolean combination of unary
      predicates — these carve out the allowed atoms;
    - closed statistical conjuncts (proportion comparisons);
    - facts about named individuals, [β(c)] with [β] boolean.

    This module splits a KB into those parts (reporting anything it
    cannot classify), which both engines and the syntactic rule engine
    consume. *)

open Rw_logic
open Syntax

type parts = {
  universe : Atoms.universe;  (** atom universe over the KB+query predicates *)
  universals : (string * formula) list;  (** [(x, β)] for each [∀x β(x)] *)
  statisticals : formula list;  (** closed [Compare] conjuncts *)
  const_facts : (string * formula) list;
      (** [(c, β(c))] conjuncts, one entry per conjunct *)
  unsupported : formula list;  (** conjuncts outside the fragment *)
}

(** [split_conjuncts f] flattens a conjunction tree. *)
let rec split_conjuncts = function
  | And (f, g) -> split_conjuncts f @ split_conjuncts g
  | True -> []
  | f -> [ f ]

(* The single constant occurring in f, if exactly one. *)
let single_constant f =
  match Syntax.constants f with [ c ] -> Some c | _ -> None

(** [analyze ?extra_preds kb] classifies the conjuncts of [kb]. The
    atom universe covers all unary predicates of [kb] plus
    [extra_preds] (pass the query's predicates so that both formulas
    live in one universe). *)
let analyze ?(extra_preds = []) kb =
  let universe = Atoms.universe (Syntax.unary_preds kb @ extra_preds) in
  let classify acc conjunct =
    match conjunct with
    | Forall (x, body) when Atoms.is_boolean_over universe ~subject:(Var x) body ->
      { acc with universals = (x, body) :: acc.universals }
    | Compare _
      when Syntax.is_closed conjunct
           && Syntax.is_unary_vocab conjunct
           && not (Syntax.mentions_equality conjunct) ->
      { acc with statisticals = conjunct :: acc.statisticals }
    | f -> (
      match single_constant f with
      | Some c when Atoms.is_boolean_over universe ~subject:(Fn (c, [])) f ->
        { acc with const_facts = (c, f) :: acc.const_facts }
      | _ -> { acc with unsupported = f :: acc.unsupported })
  in
  let empty =
    { universe; universals = []; statisticals = []; const_facts = []; unsupported = [] }
  in
  let parts = List.fold_left classify empty (split_conjuncts kb) in
  {
    parts with
    universals = List.rev parts.universals;
    statisticals = List.rev parts.statisticals;
    const_facts = List.rev parts.const_facts;
    unsupported = List.rev parts.unsupported;
  }

(** [widen parts preds] — the analysis over the universe that adds
    [preds]. [classify] requires every leaf's predicate to be in the
    universe ({!Atoms.is_boolean_over}), and a KB's own predicates
    always are, so added predicates cannot change a conjunct's class. *)
let widen parts preds =
  let known = Atoms.predicates parts.universe in
  if List.for_all (fun p -> List.mem p known) preds then parts
  else { parts with universe = Atoms.universe (known @ preds) }

(** [fully_supported parts] — no conjunct fell outside the fragment. *)
let fully_supported parts = parts.unsupported = []

(** [allowed_atoms parts] is the bitset of atoms compatible with the
    universal facts. *)
let allowed_atoms parts =
  Atoms.theory parts.universe
    (List.map (fun (x, body) -> Forall (x, body)) parts.universals)

(** [constants parts] lists the named individuals the KB mentions. *)
let constants parts =
  Rw_prelude.Listx.sort_uniq_strings (List.map fst parts.const_facts)

(** [fact_atoms parts ~allowed c] is the bitset of atoms of [allowed]
    consistent with everything the KB says about constant [c]. *)
let fact_atoms parts ~allowed c =
  let subject = Fn (c, []) in
  List.fold_left
    (fun acc (c', f) ->
      if c' = c then Atoms.Set.inter acc (Atoms.extension parts.universe ~subject f) else acc)
    allowed parts.const_facts

(** [statistical_formula parts] re-conjoins the universal and
    statistical conjuncts — the part of the KB that speaks about
    proportions rather than individuals. *)
let statistical_formula parts =
  conj
    (List.map (fun (x, body) -> Forall (x, body)) parts.universals
    @ parts.statisticals)

(** [facts_formula parts] re-conjoins the facts about individuals. *)
let facts_formula parts = conj (List.map snd parts.const_facts)
