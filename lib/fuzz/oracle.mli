(** The metamorphic / differential oracle suite.

    Each oracle states a property every correct implementation must
    satisfy — no reference implementation needed, the engines check
    each other:

    - {b agreement}: the asymptotic engines' definitive answers are
      mutually consistent (points close, points inside intervals,
      intervals overlapping) — enum's small-[N] extrapolations are
      exempt, since forced constant coincidences at [N ≤ 3] distort
      them beyond any fixed band — and the two exact finite-[N]
      engines (unary counting vs literal enumeration) agree to float
      precision at equal [(N, τ̄)];
    - {b duality}: [Pr(φ|KB) + Pr(¬φ|KB) = 1] whenever one engine
      gives both a point;
    - {b canonical}: alpha-renamed and AC-reshuffled variants of the
      same sentence get identical cache digests and answers equal to
      the optimizer's order sensitivity (1e-4);
    - {b cache}: a cache hit returns the very verdict that was cached,
      and the service's answer matches direct engine dispatch;
    - {b convergence}: the exact finite-[N] sequence settles — its
      last step is no larger than its middle one;
    - {b parser}: pretty-printed output reparses to an equivalent
      formula, and mutated output is rejected with [Error], never an
      exception;
    - {b explain}: tracing the dispatch does not change the verdict,
      the trace's last engine-selected fact names the engine that
      signed the answer, and the [--explain-json] encoding survives a
      JSON round trip with that consistency intact;
    - {b compiled}: dispatching on a warm KB artifact
      ({!Rw_compile.Compiled_kb}) — one that has already answered the
      negated query — returns the bit-identical verdict and interval
      of a dispatch on a fresh artifact, signed by the same engine;
    - {b update}: a belief-change session ({!Rw_service.Service.update})
      fed a seeded mix of asserts, retracts and canonical no-ops —
      over vocabulary both fresh and overlapping the resident KB —
      answers every re-query bit-identically to a cold dispatch on the
      accumulated KB, with the same signing engine, and its session
      log / stats count exactly the mutations applied. *)

open Randworlds

type violation = {
  oracle : string;  (** which property failed *)
  detail : string;  (** display-ready description *)
}

val pp_violation : Format.formatter -> violation -> unit

val names : string list
(** All oracle names, in run order — the vocabulary of [--oracle]. *)

val fuzz_options : Engine.options
(** Engine options tuned for fuzzing throughput: smaller Monte-Carlo
    budgets and finite-[N] grids than the interactive defaults, no
    enum/mc cross-check (the fuzzer {e is} the cross-check). *)

val parser_totality_of_string : what:string -> string -> violation list
(** The parser-totality half of the [parser] oracle on one raw string:
    [Parser.formula] must return, [Parser.formula_exn] may raise only
    [Parse_failure]. Used directly by corpus replay for strings that
    no well-formed AST can produce. *)

val check :
  ?only:string list ->
  options:Engine.options ->
  Gen.case ->
  violation list
(** Run the selected oracles (default: all) on one case. Total: an
    engine exception is itself reported as a violation rather than
    escaping. Deterministic — randomized sub-checks (parser mutations)
    derive their stream from the case seed. *)
