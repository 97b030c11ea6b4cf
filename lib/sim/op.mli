(** The simulator's operation alphabet: generation, one-line
    serialization, and parsing.

    One op is one step against the live system — the full service
    surface plus the control ops ([fault], [restart]) that change how
    later ops execute. The serialized form is one line per
    op ([render]/[parse] round-trip), which is what makes a failing
    sequence a text file in [test/sim_corpus/] instead of a seed you
    have to re-run 300 steps to reach.

    Generation is {e stateful by design}: ops are drawn one at a time
    against the simulator's current shadow KB (a retract should
    usually target a conjunct that is actually present), and a fault
    op enqueues the short driver sequence that reaches its injection
    point (arm [{"store.sync"}] → [persist]; arm
    [{"store.append.torn"}] → a query to tear on, then a restart to
    recover). Determinism is unaffected: every draw comes from the
    registry's named streams. *)

open Rw_logic

type t =
  | Load_kb of Syntax.formula list
      (** install a fresh KB (conjunct list), swapping out the old one *)
  | Query of Syntax.formula  (** one plain query *)
  | Explain of Syntax.formula  (** one traced query *)
  | Batch of Syntax.formula list
      (** a batch, on the run's pool from the pinned threshold up *)
  | Assert_ of Syntax.formula  (** session update: assert conjuncts *)
  | Retract of Syntax.formula  (** session update: retract conjuncts *)
  | Expire of Syntax.formula
      (** a query under a zero budget — the forced-degrade path *)
  | Evict  (** flush both memory tiers ({!Rw_service.Service.evict_all}) *)
  | Persist  (** fsync the durable store *)
  | Compact  (** compact the durable store *)
  | Fault of string  (** arm one {!Fault} catalog point for the next op *)
  | Restart
      (** drop the service, close and re-open the store (crash
          recovery), re-install the shadow KB *)

val render : t -> string
(** One line, no newlines; [parse (render op)] = [Ok op] up to
    formula pretty-printing (the parser round-trip the fuzzer's
    [parser] oracle pins). *)

val parse : string -> (t, string) result
(** Parse one rendered line. The [Error] string is display-ready. *)

(** {2 Generation} *)

type gen
(** Generator state: the registry streams plus the pending driver
    queue a fault op enqueues. *)

val generator : registry:Rng_registry.t -> max_size:int -> faults:bool -> gen
(** [max_size] bounds generated KB sizes (as in {!Rw_fuzz.Gen.case});
    [faults] enables the fault plane (roughly one armed point every
    eight steps). *)

val next : gen -> shadow:Syntax.formula list -> t
(** Draw the next op. [shadow] is the simulator's current KB conjunct
    list — retracts target a resident conjunct when one exists. The
    first drawn op is always a [Load_kb]. *)
