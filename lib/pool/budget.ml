(** Deadline-polled budgets — see the interface. *)

exception Expired

(* The tick counter amortises the clock read: with a deadline armed,
   only every 64th poll reads the clock. Engines poll from per-sample
   loops whose bodies cost microseconds, so expiry is noticed within a
   few dozen samples. *)
type state = { mutable deadline : float option; mutable tick : int }

let key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { deadline = None; tick = 0 })

(* Seconds on CLOCK_MONOTONIC: immune to wall-clock steps. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let check () =
  let st = Domain.DLS.get key in
  match st.deadline with
  | None -> ()
  | Some d ->
    st.tick <- st.tick + 1;
    if st.tick land 63 = 0 && now () > d then raise Expired

let current () = (Domain.DLS.get key).deadline

let install st d =
  st.deadline <-
    (match (st.deadline, d) with
    | Some d0, Some d1 -> Some (Float.min d0 d1)
    | None, d1 -> d1
    | d0, None -> d0)

let with_inherited d f =
  match d with
  | None -> f ()
  | Some _ ->
    let st = Domain.DLS.get key in
    let saved = st.deadline in
    install st d;
    Fun.protect ~finally:(fun () -> st.deadline <- saved) f

let with_deadline ~seconds f =
  with_inherited (Some (now () +. seconds)) f
