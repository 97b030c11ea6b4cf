(** Compiled knowledge bases — see the interface for the design. *)

open Rw_logic
open Rw_unary
open Syntax

(* ------------------------------------------------------------------ *)
(* Query-independent inconsistency pre-checks                         *)
(* ------------------------------------------------------------------ *)

(* Every rules-engine theorem presupposes an (eventually) consistent
   KB; these two sound checks depend only on the KB, so they are
   evaluated once per compile and stored as booleans. *)

let is_ground f = Syntax.Sset.is_empty (Syntax.all_vars_formula f)

(* A complementary pair of ground literals, or a ground [t ≠ t],
   admits no worlds at any domain size. *)
let ground_contradiction kb_conjuncts =
  let lits =
    List.filter_map
      (fun f ->
        match f with
        | Pred _ when is_ground f -> Some (true, f)
        | Not (Pred _ as a) when is_ground a -> Some (false, a)
        | _ -> None)
      kb_conjuncts
  in
  List.exists
    (fun (sign, a) ->
      List.exists (fun (sign', a') -> sign <> sign' && a = a') lits)
    lits
  || List.exists
       (function Not (Eq (t, t')) -> t = t' | _ -> false)
       kb_conjuncts

(* A self-conditional statistic [||φ | ψ|| ⪯ v] with φ ≡ ψ and v < 1 is
   satisfiable only by worlds where ψ is empty; a further ground fact
   ψ(c) then leaves no worlds beyond the first few tolerance steps. *)
let degenerate_self_conditional indexed =
  let kb_conjuncts = List.map fst indexed in
  let stats = Stat.with_complements (List.filter_map snd indexed) in
  let consts =
    Rw_prelude.Listx.sort_uniq_strings
      (List.concat_map Syntax.constants kb_conjuncts)
  in
  List.exists
    (fun (s : Stat.t) ->
      Rw_prelude.Interval.hi s.Stat.bounds < 1.0 -. 1e-9
      && (Unify.alpha_ac_equal s.Stat.target s.Stat.ref_class
         || Canonical.equivalent s.Stat.target s.Stat.ref_class)
      &&
      match s.Stat.subscript with
      | [ x ] ->
        List.exists
          (fun c ->
            let psi_c = subst [ (x, Fn (c, [])) ] s.Stat.ref_class in
            List.exists (fun g -> Unify.alpha_ac_equal g psi_c) kb_conjuncts)
          consts
      | _ -> false)
    stats

(* ------------------------------------------------------------------ *)
(* The artifact                                                       *)
(* ------------------------------------------------------------------ *)

type memo = {
  m : Mutex.t;
      (** orders solver/table memo fills across pool domains; held for
          the duration of a solve so concurrent queries compile each
          (KB, τ̄) cell exactly once *)
  solutions : (string, (Solver.solution, exn) result) Hashtbl.t;
  tables : (string, Profile.table option) Hashtbl.t;
}

type t = {
  digest : string option Atomic.t;
      (** the canonical digest, computed on first read; an [Atomic]
          rather than a [Lazy] because one artifact is read from many
          domains at once *)
  kb : Syntax.formula;
  vocab : Vocab.t;
  conjuncts : Syntax.formula list;
  stat_index : (Syntax.formula * Stat.t option) list;
  ground_inconsistent : bool;
  degenerate_inconsistent : bool;
  parts : Analysis.parts;  (** the KB's analysis over its own predicates *)
  allowed : (Atoms.Set.t, exn) result;  (** or the [Not_boolean] it raised *)
  memo : memo;
  disjuncts : t list option Atomic.t;  (** set once, like [digest] *)
  compile_ms : float;
  uses : int Atomic.t;
  solve_hits : int Atomic.t;
  solve_misses : int Atomic.t;
  table_hits : int Atomic.t;
  table_misses : int Atomic.t;
}

(* The maxent engine's default τ̄-schedule lives here (the engine
   aliases it) so {!entropy_profile} describes exactly the tolerances
   the engine will ask for. *)
let default_schedule =
  Tolerance.schedule ~factor:0.5 ~steps:6 (Tolerance.uniform 0.02)

(* One memoised maxent solve: the cell fills on first use. Expected
   exceptions (infeasible KB at this tolerance, non-linear or
   non-boolean fragment) are outcomes too: they are cached and
   re-raised, so a memo hit raises exactly where a direct solve would.
   Anything else (budget expiry, stack overflow) propagates uncached
   and leaves the cell empty for the next request. *)
let solve_memo t tol =
  let key = Tolerance.fingerprint tol in
  Mutex.protect t.memo.m (fun () ->
      match Hashtbl.find_opt t.memo.solutions key with
      | Some r ->
        Atomic.incr t.solve_hits;
        r
      | None ->
        Atomic.incr t.solve_misses;
        let r =
          match Solver.solve t.parts tol with
          | s -> Ok s
          | exception
              (( Solver.Infeasible _ | Constraints.Unsupported _
               | Atoms.Not_boolean _ ) as e) ->
            Error e
        in
        Hashtbl.replace t.memo.solutions key r;
        r)

let solve t tol = match solve_memo t tol with Ok s -> s | Error e -> raise e

let profile_table t ~n ~tol =
  let key = Printf.sprintf "%d|%s" n (Tolerance.fingerprint tol) in
  Mutex.protect t.memo.m (fun () ->
      match Hashtbl.find_opt t.memo.tables key with
      | Some tbl ->
        Atomic.incr t.table_hits;
        tbl
      | None ->
        Atomic.incr t.table_misses;
        let tbl = Profile.stat_table t.parts ~n ~tol in
        Hashtbl.replace t.memo.tables key tbl;
        tbl)

let analysis t = t.parts

(* Lifted like {!Solver.lift}: no universal fact reads an added
   predicate. *)
let allowed t universe =
  let own = t.parts.Analysis.universe in
  match t.allowed with
  | Error e -> raise e
  | Ok set when Atoms.num_preds universe = Atoms.num_preds own -> set
  | Ok set ->
    let proj = Atoms.project universe ~onto:own in
    let n = Atoms.num_atoms universe in
    Atoms.Set.of_list n
      (List.filter (fun a -> Atoms.Set.mem set (proj a)) (List.init n Fun.id))

(* ------------------------------------------------------------------ *)
(* Compilation                                                        *)
(* ------------------------------------------------------------------ *)

let now_ms () = Rw_pool.Budget.now () *. 1000.0

(* The syntactic pass plus the unary analysis. No solve runs here:
   each τ̄ cell of the memo fills on first use, so a single-shot
   dispatch pays only for the solves it asks for. The canonical digest
   is left for its first reader. *)
let compile kb =
  let t0 = now_ms () in
  let conjuncts = Analysis.split_conjuncts kb in
  let stat_index = List.map (fun f -> (f, Stat.of_conjunct f)) conjuncts in
  let parts = Analysis.analyze kb in
  let t =
    {
      digest = Atomic.make None;
      kb;
      vocab = Vocab.of_formula kb;
      conjuncts;
      stat_index;
      ground_inconsistent = ground_contradiction conjuncts;
      degenerate_inconsistent = degenerate_self_conditional stat_index;
      parts;
      allowed =
        (match Analysis.allowed_atoms parts with
        | set -> Ok set
        | exception (Atoms.Not_boolean _ as e) -> Error e);
      memo =
        { m = Mutex.create (); solutions = Hashtbl.create 8; tables = Hashtbl.create 8 };
      disjuncts = Atomic.make None;
      compile_ms = 0.0;
      uses = Atomic.make 0;
      solve_hits = Atomic.make 0;
      solve_misses = Atomic.make 0;
      table_hits = Atomic.make 0;
      table_misses = Atomic.make 0;
    }
  in
  { t with compile_ms = now_ms () -. t0 }

(* ------------------------------------------------------------------ *)
(* Incremental update                                                 *)
(* ------------------------------------------------------------------ *)

(* The entropy-maximising solve reads only the optimisation problem —
   atom universe, universal constraints, statistical constraints
   ({!Constraints.of_parts} never looks at [const_facts]) — and the
   profile tables likewise count proportions, not individuals. So a
   delta that only adds, removes or rewords {e evidence} (ground
   boolean facts about constants, over the existing predicates) poses
   the identical problem and the memo contents stay exact. *)
let same_solve_problem (a : Analysis.parts) (b : Analysis.parts) =
  Atoms.predicates a.Analysis.universe = Atoms.predicates b.Analysis.universe
  && a.Analysis.universals = b.Analysis.universals
  && a.Analysis.statisticals = b.Analysis.statisticals

let update old kb =
  let t0 = now_ms () in
  let t = compile kb in
  if
    Analysis.fully_supported old.parts
    && Analysis.fully_supported t.parts
    && same_solve_problem old.parts t.parts
  then
    (* The compile pass is redone; the unary analysis adopts the new
       constant facts; the solved cells and profile tables are carried
       over verbatim. *)
    let solutions, tables =
      Mutex.protect old.memo.m (fun () ->
          (Hashtbl.copy old.memo.solutions, Hashtbl.copy old.memo.tables))
    in
    ( {
        t with
        memo = { t.memo with solutions; tables };
        (* Seed [uses] from the predecessor: nobody re-paid a solve, so
           the first consumer of the carried artifact reports "reused",
           not "fresh-solve". *)
        uses = Atomic.make (max 1 (Atomic.get old.uses));
        compile_ms = now_ms () -. t0;
      },
      true )
  else (t, false)

(* ------------------------------------------------------------------ *)
(* Accessors and observability                                        *)
(* ------------------------------------------------------------------ *)

(* Set once: racing first readers compute the same string, and the
   first store wins. *)
let digest t =
  match Atomic.get t.digest with
  | Some d -> d
  | None ->
    ignore (Atomic.compare_and_set t.digest None (Some (Canonical.digest t.kb)));
    Option.get (Atomic.get t.digest)

let kb t = t.kb

(* Racing first readers may each compile the disjuncts, but only the
   first store is handed out, so every query shares one set of memos. *)
let disjuncts t =
  match Atomic.get t.disjuncts with
  | Some ds -> ds
  | None ->
    let ds =
      match Syntax.disjuncts t.kb with
      | [] | [ _ ] -> []
      | ds -> List.map compile ds
    in
    ignore (Atomic.compare_and_set t.disjuncts None (Some ds));
    Option.get (Atomic.get t.disjuncts)

(* Canonical digests identify KBs up to alpha/AC renaming, so two
   structurally different formulas can share one digest. Consumers gate
   on structural identity (physical fast path) before reusing. *)
let matches t kb = t.kb == kb || t.kb = kb
let vocab t = t.vocab
let stat_index t = t.stat_index
let ground_inconsistent t = t.ground_inconsistent
let degenerate_inconsistent t = t.degenerate_inconsistent
let compile_ms t = t.compile_ms
let use t = Atomic.fetch_and_add t.uses 1
(* Entropy at each point of the default schedule, solving (and so
   filling) any cell not yet solved — the artifact's entropy profile,
   for [rw compile] inspection and tests. *)
let entropy_profile t =
  if not (Analysis.fully_supported t.parts) then []
  else
    List.map
      (fun tol ->
        match solve_memo t tol with
        | Ok s -> (tol, Some s.Solver.entropy)
        | Error _ -> (tol, None))
      default_schedule

type stats = {
  digest : string;
  conjunct_count : int;
  stat_count : int;
  atoms : int option;
  constants : int;
  presolved : int;
  infeasible : int;
  tables : int;
  solve_hits : int;
  solve_misses : int;
  table_hits : int;
  table_misses : int;
  compile_ms : float;
  uses : int;
}

let stats t =
  let presolved, infeasible, tables =
    Mutex.protect t.memo.m (fun () ->
        let ok, bad =
          Hashtbl.fold
            (fun _ r (ok, bad) ->
              match r with Ok _ -> (ok + 1, bad) | Error _ -> (ok, bad + 1))
            t.memo.solutions (0, 0)
        in
        (ok, bad, Hashtbl.length t.memo.tables))
  in
  let unary = Analysis.fully_supported t.parts in
  {
    digest = digest t;
    conjunct_count = List.length t.conjuncts;
    stat_count = List.length (List.filter_map snd t.stat_index);
    atoms =
      (if unary then Some (Atoms.num_atoms t.parts.Analysis.universe) else None);
    constants = (if unary then List.length (Analysis.constants t.parts) else 0);
    presolved;
    infeasible;
    tables;
    solve_hits = Atomic.get t.solve_hits;
    solve_misses = Atomic.get t.solve_misses;
    table_hits = Atomic.get t.table_hits;
    table_misses = Atomic.get t.table_misses;
    compile_ms = t.compile_ms;
    uses = Atomic.get t.uses;
  }
