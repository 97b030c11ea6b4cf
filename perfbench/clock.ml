(* Every benchmark timing reads CLOCK_MONOTONIC, so a wall-clock step
   during a run cannot produce a negative or inflated interval. *)

let now_ns () = Monotonic_clock.now ()

let now () = Int64.to_float (now_ns ()) *. 1e-9

let ms_since t0 = (now () -. t0) *. 1000.0
