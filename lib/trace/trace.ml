(** Derivation traces — see the interface for the design. *)

type value = S of string | F of float | I of int | B of bool

type event =
  | Enter of string
  | Leave of { phase : string; ms : float }
  | Fact of { tag : string; fields : (string * value) list }

(* Events are consed in reverse and snapshotted on demand: emission is
   one cons, [events] pays the single reversal. *)
type t = { mutable rev : event list }
type sink = t option

let create () = { rev = [] }
let events t = List.rev t.rev
let add t ev = t.rev <- ev :: t.rev
let fact t tag fields = add t (Fact { tag; fields })
let note t text = fact t "note" [ ("text", S text) ]

let span sink phase f =
  match sink with
  | None -> f ()
  | Some t ->
    add t (Enter phase);
    let t0 = Rw_prelude.Clock.now () in
    Fun.protect
      ~finally:(fun () ->
        add t (Leave { phase; ms = (Rw_prelude.Clock.now () -. t0) *. 1000.0 }))
      f

let selected_engine evs =
  List.fold_left
    (fun acc ev ->
      match ev with
      | Fact { tag = "engine-selected"; fields } -> (
        match List.assoc_opt "engine" fields with
        | Some (S e) -> Some e
        | _ -> acc)
      | _ -> acc)
    None evs

let string_of_value = function
  | S s -> s
  | F f -> Printf.sprintf "%g" f
  | I i -> string_of_int i
  | B b -> string_of_bool b

let pp ?(mask_timings = false) ppf evs =
  let depth = ref 0 in
  let indent () = String.make (2 * !depth) ' ' in
  List.iter
    (fun ev ->
      match ev with
      | Enter phase ->
        Fmt.pf ppf "%s+ %s@." (indent ()) phase;
        incr depth
      | Leave { phase; ms } ->
        depth := max 0 (!depth - 1);
        if mask_timings then Fmt.pf ppf "%s- %s [_ ms]@." (indent ()) phase
        else Fmt.pf ppf "%s- %s [%.2f ms]@." (indent ()) phase ms
      | Fact { tag; fields } ->
        let render (k, v) =
          if mask_timings && String.ends_with ~suffix:"_ms" k then " " ^ k ^ "=_"
          else " " ^ k ^ "=" ^ string_of_value v
        in
        Fmt.pf ppf "%s* %s%s@." (indent ()) tag
          (String.concat "" (List.map render fields)))
    evs
