(** Structural analysis of unary knowledge bases.

    The fast engines (maximum-entropy asymptotics and exact multinomial
    counting) apply to KBs over a unary vocabulary whose conjuncts are:
    universal facts [∀x β(x)] with boolean [β]; closed statistical
    conjuncts; and boolean facts about named individuals [β(c)]. This
    module splits a KB into those parts, reporting anything it cannot
    classify; engines and the rule engine both consume the result. *)

open Rw_logic

type parts = {
  universe : Atoms.universe;  (** atoms over the KB+query predicates *)
  universals : (string * Syntax.formula) list;  (** [(x, β)] per [∀x β(x)] *)
  statisticals : Syntax.formula list;  (** closed [Compare] conjuncts *)
  const_facts : (string * Syntax.formula) list;
      (** [(c, β(c))], one entry per conjunct *)
  unsupported : Syntax.formula list;  (** conjuncts outside the fragment *)
}

val split_conjuncts : Syntax.formula -> Syntax.formula list
(** Flatten a conjunction tree ([True] vanishes). *)

val analyze : ?extra_preds:string list -> Syntax.formula -> parts
(** Classify the conjuncts. The atom universe covers all unary
    predicates of the KB plus [extra_preds] (pass the query's
    predicates so both formulas share one universe). *)

val widen : parts -> string list -> parts
(** [widen parts preds] is [analyze ~extra_preds:preds kb] for the
    [kb] [parts] analyses: classification never reads a predicate the
    KB lacks, so only the universe changes. [parts] itself when
    [preds] adds none. *)

val fully_supported : parts -> bool
(** No conjunct fell outside the fragment. *)

val allowed_atoms : parts -> Atoms.Set.t
(** Atoms compatible with the universal facts. *)

val constants : parts -> string list
(** Named individuals the KB mentions, sorted. *)

val fact_atoms : parts -> allowed:Atoms.Set.t -> string -> Atoms.Set.t
(** Atoms of [allowed] (the {!allowed_atoms}) consistent with
    everything the KB says about a constant. *)

val statistical_formula : parts -> Syntax.formula
(** Re-conjoined universal + statistical conjuncts. *)

val facts_formula : parts -> Syntax.formula
(** Re-conjoined facts about individuals. *)
