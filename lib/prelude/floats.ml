(** Floating-point helpers shared across the random-worlds code base.

    Degrees of belief and proportions live in [[0, 1]]; the helpers here
    centralise the approximate comparisons used when validating computed
    values against paper-stated ones, so every module uses the same
    tolerance discipline. *)

(** Default absolute tolerance for comparing degrees of belief. *)
let default_eps = 1e-9

(** [approx_equal ?eps a b] is true when [a] and [b] differ by at most
    [eps] (absolute). *)
let approx_equal ?(eps = default_eps) a b = Float.abs (a -. b) <= eps

(** [clamp ~lo ~hi x] restricts [x] to the closed interval [[lo, hi]]. *)
let clamp ~lo ~hi x =
  if x < lo then lo else if x > hi then hi else x

(** [clamp01 x] restricts [x] to [[0, 1]] — the home of every proportion
    and degree of belief in this library. *)
let clamp01 x = clamp ~lo:0.0 ~hi:1.0 x

(** [is_finite x] is true when [x] is neither infinite nor NaN. *)
let is_finite x = Float.is_finite x

(** [mean xs] is the arithmetic mean of a non-empty list. *)
let mean = function
  | [] -> invalid_arg "Floats.mean: empty list"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(** [sum xs] sums a float list with left association. *)
let sum xs = List.fold_left ( +. ) 0.0 xs

(** [max_abs_diff xs ys] is the L∞ distance between two equal-length
    lists. Raises [Invalid_argument] on length mismatch. *)
let max_abs_diff xs ys =
  let rec go acc xs ys =
    match (xs, ys) with
    | [], [] -> acc
    | x :: xs, y :: ys -> go (Float.max acc (Float.abs (x -. y))) xs ys
    | _ -> invalid_arg "Floats.max_abs_diff: length mismatch"
  in
  go 0.0 xs ys

(** The shortest ["%.*g"] rendering of [x] that reads back as [x]. *)
let shortest_repr x =
  let rec go p =
    let s = Printf.sprintf "%.*g" p x in
    if p >= 17 || float_of_string s = x then s else go (p + 1)
  in
  go 1

(** Pretty-print a probability with enough digits to distinguish the
    values appearing in the paper (e.g. 0.47, 0.9411…). *)
let pp_prob ppf x = Fmt.pf ppf "%.6g" x
