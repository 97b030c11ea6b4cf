(* Order statistics for latency samples. A tail percentile is only
   reported when at least [min_beyond] samples lie beyond it, so a
   p99 over 300 samples (three beyond) is refused rather than read as
   a stable number. *)

let min_beyond = 10

type t = { n : int; median : float; tail_pct : float; tail : float }

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile on a sorted array. *)
let rank a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.rank: no samples";
  let i = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
  a.(max 0 (min (n - 1) i))

let beyond n p = n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))

let percentile xs p =
  let a = sorted xs in
  if beyond (Array.length a) p < min_beyond then
    Error
      (Printf.sprintf "p%g needs %d samples beyond it, have %d of %d" p
         min_beyond
         (max 0 (beyond (Array.length a) p))
         (Array.length a))
  else Ok (rank a p)

let median xs =
  match xs with [] -> nan | _ -> rank (sorted xs) 50.0

(* The highest of the usual tail percentiles that still has
   [min_beyond] samples past it. *)
let summarize xs =
  let a = sorted xs in
  let n = Array.length a in
  let tail =
    List.find_opt
      (fun p -> beyond n p >= min_beyond)
      [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]
  in
  match tail with
  | None when n = 0 -> Error "no samples"
  | None -> Error (Printf.sprintf "%d samples: too few for any tail" n)
  | Some p -> Ok { n; median = rank a 50.0; tail_pct = p; tail = rank a p }
