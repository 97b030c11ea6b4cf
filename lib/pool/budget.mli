(** Cooperative request budgets: the one budget mechanism of the
    service.

    A budget is an absolute deadline stored in domain-local state and
    polled explicitly ({!check}) from the engines' inner loops — the
    maxent solver's iterations, the profile counter, world
    enumeration and Monte-Carlo sampling. Expiry is noticed at the
    next poll and raises {!Expired}, which unwinds to whoever
    installed the deadline. Nothing is preemptive: code that never
    polls runs to completion regardless of the deadline.

    Deadlines are read from the monotonic clock, so a wall-clock step
    (NTP, a manual [date]) can neither fire nor postpone a budget.

    Deadlines nest by narrowing: an inner [with_deadline] can only
    shorten the time left, never extend an enclosing budget.

    {!Pool.map} and {!Pool.async} propagate the submitting domain's
    deadline into every task they run, so a budget installed on the
    coordinating domain bounds the whole fan-out, and the same budget
    holds whichever domain ends up running the work. *)

exception Expired
(** Raised by {!check} once the current deadline has passed. Code
    with catch-all handlers between a poll and the deadline's
    installer must re-raise it. *)

val check : unit -> unit
(** Poll the current domain's deadline; raises {!Expired} when it has
    passed. Near-free when no deadline is installed (one domain-local
    read); with one installed, the clock is consulted every 64th call
    so the poll can sit in per-sample / per-world loops. *)

val with_deadline : seconds:float -> (unit -> 'a) -> 'a
(** [with_deadline ~seconds f] runs [f] with the current domain's
    deadline set to [now + seconds] — narrowed against any enclosing
    deadline — and restores the previous deadline on the way out,
    whether [f] returns or raises. [f] only observes the deadline
    through {!check}: cooperative, not preemptive. *)

val current : unit -> float option
(** The current domain's absolute deadline, in seconds on the
    monotonic clock (an arbitrary origin, comparable only with other
    deadlines of this process), if any — what {!Pool} captures at
    task submission to inherit budgets across domains. *)

val with_inherited : float option -> (unit -> 'a) -> 'a
(** [with_inherited d f] installs absolute deadline [d] (narrowed
    against any existing one) for the duration of [f]; [None] is a
    no-op. The worker-side half of deadline propagation. *)
