(** The exact unary engine: [Pr_N^τ̄] by multinomial aggregation over
    atom-count profiles, then the double limit along an (N, τ̄)
    schedule. Exact at each grid point like enumeration, but reaching
    domain sizes in the tens-to-hundreds. Fragment: unary predicates +
    constants, no equality. *)

open Rw_logic

val default_sizes : int list

val pr_n :
  kb:Syntax.formula ->
  query:Syntax.formula ->
  n:int ->
  tol:Tolerance.t ->
  float option
(** Exact finite-[N] degree of belief.
    @raise Rw_unary.Profile.Unsupported outside the fragment. *)

val series :
  kb:Syntax.formula ->
  query:Syntax.formula ->
  ns:int list ->
  tol:Tolerance.t ->
  (int * float) list

val estimate :
  ?ns:int list ->
  ?tols:Tolerance.t list ->
  ?trace:Rw_trace.Trace.t ->
  Rw_compile.Compiled_kb.t ->
  Syntax.formula ->
  Answer.t
(** The double limit over a grid, with Aitken extrapolation of the
    inner [N → ∞] limit at each tolerance. Declines (rather than
    raising) outside the fragment or when the atom space is too large
    for exact counting. [?trace] records the kept size grid and
    tolerance floor, dropped tolerance steps, the per-tolerance inner
    limit with the method that produced it (richardson / bracket /
    noise-hull / …), and the final limit verdict. The artifact's
    memoised stat-satisfying profile tables stand in for the
    per-(N, τ̄) composition sweep; results are bit-identical. *)
