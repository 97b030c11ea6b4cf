(** Small dense vector operations over float arrays.

    The maximum-entropy engine works in the space of atom proportions —
    vectors of dimension [2^k] for [k] unary predicates. [k] is tiny in
    every knowledge base in the paper, so plain float arrays are the
    right representation. *)

type t = float array

let create n x : t = Array.make n x
let dim (v : t) = Array.length v
let copy (v : t) : t = Array.copy v

let map f (v : t) : t = Array.map f v
let mapi f (v : t) : t = Array.mapi f v

let map2 f (a : t) (b : t) : t =
  if dim a <> dim b then invalid_arg "Vec.map2: dimension mismatch"
  else Array.init (dim a) (fun i -> f a.(i) b.(i))

let add a b = map2 ( +. ) a b
let sub a b = map2 ( -. ) a b
let scale c (v : t) = map (fun x -> c *. x) v

(** [axpy a x y] is [a·x + y]. *)
let axpy a x y = add (scale a x) y

let dot (a : t) (b : t) =
  if dim a <> dim b then invalid_arg "Vec.dot: dimension mismatch"
  else begin
    let acc = ref 0.0 in
    for i = 0 to dim a - 1 do
      acc := !acc +. (a.(i) *. b.(i))
    done;
    !acc
  end

let sum (v : t) = Array.fold_left ( +. ) 0.0 v

let norm_inf (v : t) = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0.0 v

let norm2 (v : t) = Float.sqrt (dot v v)

(** [linf_dist a b] is the L∞ distance. *)
let linf_dist a b = norm_inf (sub a b)

(** [entropy p] is [-Σ p_i ln p_i] with the [0 ln 0 = 0] convention. *)
let entropy (p : t) =
  let acc = ref 0.0 in
  for i = 0 to dim p - 1 do
    if p.(i) > 0.0 then acc := !acc -. (p.(i) *. Float.log p.(i))
  done;
  !acc

let pp ppf (v : t) =
  Fmt.pf ppf "[%a]" Fmt.(array ~sep:(any "; ") (fun ppf -> Fmt.pf ppf "%.4g")) v
