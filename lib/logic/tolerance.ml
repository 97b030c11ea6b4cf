(** Tolerance vectors [τ̄ = ⟨τ_1, τ_2, …⟩] (Section 4.1).

    Each approximate connective [≈_i] / [⪯_i] is interpreted "within
    [τ_i]". The random-worlds method takes the limit [τ̄ → 0̄] *after*
    [N → ∞]; computationally we evaluate at a decreasing schedule of
    tolerance vectors and extrapolate.

    The relative order of magnitude of the [τ_i] encodes default
    priorities (Section 5.3): with [τ_1 ≪ τ_2] the default measured by
    [≈_1] is "stronger" than the one measured by [≈_2]. We support this
    by giving each index a positive [weight]: the vector at scale [ε]
    assigns [τ_i = weight_i · ε^power_i]. Equal weights and powers
    recover the symmetric case. *)

type t = {
  scale : float;  (** the master [ε] being driven to 0 *)
  weights : (int * float) list;  (** per-index multiplier (default 1) *)
  powers : (int * float) list;  (** per-index exponent (default 1) *)
}

(** [uniform eps] is the symmetric tolerance vector [τ_i = eps]. *)
let uniform scale =
  if scale <= 0.0 then invalid_arg "Tolerance.uniform: scale must be positive"
  else { scale; weights = []; powers = [] }

(** [make ~scale ?weights ?powers ()] builds a structured vector:
    [τ_i = w_i · scale^p_i]. A power [> 1] makes [τ_i] vanish faster
    than the others — a *stronger* default (it is "closer to all"). *)
let make ~scale ?(weights = []) ?(powers = []) () =
  if scale <= 0.0 then invalid_arg "Tolerance.make: scale must be positive"
  else begin
    List.iter
      (fun (_, w) -> if w <= 0.0 then invalid_arg "Tolerance.make: weight <= 0")
      weights;
    List.iter
      (fun (_, p) -> if p <= 0.0 then invalid_arg "Tolerance.make: power <= 0")
      powers;
    { scale; weights; powers }
  end

(** [get t i] is [τ_i]. *)
let get t i =
  let w = match List.assoc_opt i t.weights with Some w -> w | None -> 1.0 in
  let p = match List.assoc_opt i t.powers with Some p -> p | None -> 1.0 in
  w *. (t.scale ** p)

(** [shrink t factor] multiplies the master scale by [factor < 1] —
    one step of the [τ̄ → 0̄] limit. *)
let shrink t factor =
  if factor <= 0.0 || factor >= 1.0 then
    invalid_arg "Tolerance.shrink: factor must be in (0,1)"
  else { t with scale = t.scale *. factor }

(** [schedule ?start ?factor ~steps t0] is the decreasing sequence of
    vectors used to estimate [lim_{τ̄→0}]. *)
let schedule ?(factor = 0.5) ~steps t0 =
  let rec go t k acc =
    if k = 0 then List.rev acc else go (shrink t factor) (k - 1) (t :: acc)
  in
  go t0 steps []

(** [fingerprint t] renders every field deterministically, with hex
    floats so distinct scales never collide through decimal rounding. *)
let fingerprint t =
  let pairs ps =
    String.concat ","
      (List.map
         (fun (i, v) -> Printf.sprintf "%d:%h" i v)
         (List.sort Stdlib.compare ps))
  in
  Printf.sprintf "%h[w%s][p%s]" t.scale (pairs t.weights) (pairs t.powers)

let pp ppf t =
  if t.weights = [] && t.powers = [] then Fmt.pf ppf "τ=%g" t.scale
  else
    Fmt.pf ppf "τ=%g (weights %a, powers %a)" t.scale
      Fmt.(list ~sep:(any ",") (pair ~sep:(any ":") int float))
      t.weights
      Fmt.(list ~sep:(any ",") (pair ~sep:(any ":") int float))
      t.powers
