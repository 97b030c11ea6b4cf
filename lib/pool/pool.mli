(** A fixed-width domain work pool, one per process.

    Worker domains share a [Mutex]/[Condition] task queue — the
    parallelism substrate for the Monte-Carlo sampler, the service's
    batch evaluator, the serve listener and the fuzz driver. Workers
    start on first demand: {!map} starts [jobs - 1] (its caller runs
    tasks too), {!async} starts [jobs] (its submitter only waits).
    Nothing here knows about the clients; the contract is just:

    - {!map} preserves order: the result list lines up with the input
      list however the tasks were scheduled;
    - exceptions propagate: if a task raises, {!map} finishes the
      remaining tasks (no half-abandoned work) and re-raises the
      lowest-indexed task's exception, with its backtrace, on the
      caller;
    - budgets follow the work: a {!Budget} deadline installed on the
      submitting domain is inherited by every task;
    - nesting is refused, not deadlocked: {!map} or {!create} from
      inside a task raises {!Nested}. Code that may run both ways
      (the MC engine under a parallel batch) tests {!on_worker} and
      falls back to its sequential path.

    At [jobs = 1], {!map} spawns no domains at all — it degenerates to
    an in-order sequential map — so callers need no separate code path
    for the sequential case. *)

type t

exception Nested
(** Raised by {!create} and {!map} when called from inside a pool
    task: a task blocking on a second fan-out over the same worker set
    is a deadlock, so it is refused eagerly instead. *)

val create : jobs:int -> t
(** A pool of width [jobs] ([jobs >= 1]; raises [Invalid_argument]
    otherwise, {!Nested} from inside a task). Spawns no domain yet. *)

val shutdown : t -> unit
(** Stop accepting work, wake every idle worker, and join them all.
    Idempotent; no worker starts afterwards. *)

val run : jobs:int -> (t -> 'a) -> 'a
(** [run ~jobs f] is [create]/[f]/[shutdown] with the shutdown
    guaranteed on exceptions. *)

val jobs : t -> int

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map. The calling domain executes tasks
    too (it never just blocks while work is queued), then waits for
    stragglers. See the module docstring for the exception and budget
    contract. *)

val on_worker : unit -> bool
(** Is the current code running inside a pool task (on any domain —
    the coordinator executes tasks as well)? The guard nested
    parallelism keys off. *)

(** {2 Futures}

    {!map} assumes the submitting domain participates in the work —
    wrong for the serve listener, where many sys-threads (one per
    connection, all sharing the main domain and its DLS/signal state)
    each need their request to run on a worker {e domain} while they
    only block. {!async}/{!await} is that submission path: the task
    queue is shared with {!map}, the submitter never executes tasks,
    and completion is signalled per-future. *)

type 'a future

val async : t -> (unit -> 'a) -> 'a future
(** Enqueue [f] for the worker domains and return immediately. The
    submitting thread's {!Budget} deadline (if any) is inherited by
    the task, as with {!map}. Raises [Invalid_argument] if the pool
    has been shut down. Safe to call from any sys-thread. *)

val await : 'a future -> 'a
(** Block until the future's task has run; return its value or
    re-raise its exception with the original backtrace. Must not be
    called from inside a pool task (a worker blocking on queued work
    can deadlock the pool). *)
