(** The top-level degree-of-belief engine: dispatch across the four
    computation strategies, most exact/cheapest first.

    1. {b rules} — syntactic theorems (sound intervals, any arity);
    2. {b independence decomposition} — Theorem 5.27 splits queries
       over disjoint sub-vocabularies into products;
    3. {b maxent} — asymptotic values for unary KBs;
    4. {b unary} — exact finite-[N] counting with extrapolation;
    5. {b enum} — literal world enumeration at small [N];
    6. {b mc} — Monte-Carlo world sampling with confidence intervals,
       engaged when the enumeration guard is blown (and as an
       independent statistical cross-check where enum applies).

    A rule-engine interval is refined by the maxent point when the two
    agree; disagreement keeps the provably-sound interval. *)

open Rw_logic

type options = {
  tols : Tolerance.t list option;  (** tolerance schedule override *)
  unary_sizes : int list option;  (** domain sizes for the unary engine *)
  enum_sizes : int list option;  (** domain sizes for enumeration *)
  mc_seed : int;  (** PRNG seed for the Monte-Carlo engine *)
  mc_samples : int option;  (** Monte-Carlo sample budget override *)
  mc_ci_width : float option;  (** Monte-Carlo target CI half-width *)
  mc_sizes : int list option;  (** domain sizes for the Monte-Carlo engine *)
  mc_cross_check : bool;
      (** statistically cross-check exact enum points by sampling *)
}

val default_options : options

val independence_split :
  kb:Syntax.formula ->
  Syntax.formula ->
  (Syntax.formula * Syntax.formula) list option
(** Theorem 5.27: split query and KB into components over disjoint
    sub-vocabularies sharing at most the single query constant.
    Returns [(query_part, kb_part)] pairs, or [None] when no split
    exists. Exposed for tests. *)

val infer :
  ?options:options ->
  ?pool:Rw_pool.Pool.t ->
  ?compiled:Rw_compile.Compiled_kb.t ->
  ?trace:Rw_trace.Trace.t ->
  kb:Syntax.formula ->
  Syntax.formula ->
  Answer.t
(** Full dispatch. [?trace] records a "dispatch" span containing every
    engine consulted, the refinement and independence-split decisions,
    and a final "engine-selected" fact naming the engine whose answer
    is returned ({!Rw_trace.Trace.selected_engine} reads it back).

    [?pool] is the borrowed pool Monte-Carlo sampling fans out on
    (sequential without one); answers are the same either way.

    Every engine reads the KB through one {!Rw_compile.Compiled_kb.t}:
    [?compiled] when it structurally matches [kb] (a session's shared
    artifact, whose filled solve and table cells are reused), otherwise
    a fresh compile made for this call — the syntactic pass only, so
    single-shot calls pay next to nothing for it. Sub-KBs of an
    independence split are compiled the same way. The trace gains a
    "compiled-kb" fact (digest, compile time, reused vs fresh maxent
    point). *)

val degree_of_belief :
  ?options:options ->
  ?pool:Rw_pool.Pool.t ->
  ?compiled:Rw_compile.Compiled_kb.t ->
  ?trace:Rw_trace.Trace.t ->
  kb:Syntax.formula ->
  Syntax.formula ->
  Answer.t
(** The headline API: [Pr_∞(query | kb)] by the best applicable
    engine, credited to that engine in {!Instr}. [?pool], [?trace] and
    [?compiled] as in {!infer}; tracing off (the default) costs
    nothing on the hot path. *)

(** {2 Per-engine access}

    The differential fuzzer (and [rw query --engine]) interrogate the
    engines individually rather than through {!infer}'s dispatch. *)

type id = Rules | Maxent | Unary | Enum | Mc

val all_ids : id list
(** Dispatch order: most exact/cheapest first. *)

val id_name : id -> string
val id_of_string : string -> id option

val applicable :
  ?options:options -> id -> kb:Syntax.formula -> Syntax.formula -> bool
(** Cheap syntactic test: is [id] {e expected} to speak on this input?
    An applicable engine may still answer [Not_applicable] (e.g. a
    blown enumeration guard at larger [N]); an inapplicable one never
    owes an answer. The fuzz oracles only compare engines that pass
    this predicate. *)

val run :
  ?options:options ->
  ?pool:Rw_pool.Pool.t ->
  ?compiled:Rw_compile.Compiled_kb.t ->
  ?trace:Rw_trace.Trace.t ->
  id ->
  kb:Syntax.formula ->
  Syntax.formula ->
  Answer.t
(** One engine's raw answer, bypassing dispatch. Total: out-of-fragment
    exceptions ([Rw_unary.Profile.Unsupported],
    [Rw_model.Enum.Too_many_worlds], [Invalid_argument]) are mapped to
    [Answer.Not_applicable]. [?trace] records the engine's own facts
    plus an "engine-selected" fact marking the forced choice.
    [?pool] and [?compiled] as in {!infer}. *)
