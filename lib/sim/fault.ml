(* Fault-point catalog and arming policy — see the interface. *)

let catalog =
  [
    ("store.append", "store append fails before writing any byte");
    ("store.append.torn", "store append writes a partial record, then fails");
    ("store.sync", "store fsync fails");
    ("compile.kb", "KB compilation fails; the query fails with an error reply");
    ("pool.submit", "fan-out submission fails before any batch item runs");
  ]

let points = List.map fst catalog

let describe name =
  match List.assoc_opt name catalog with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Fault.describe: unknown point %S" name)

let arm name =
  if not (List.mem name points) then
    invalid_arg
      (Printf.sprintf "Fault.arm: unknown point %S (catalog: %s)" name
         (String.concat ", " points))
  else Rw_prelude.Hook.arm name

let armed = Rw_prelude.Hook.armed

let sweep () =
  let leftover = Rw_prelude.Hook.armed () in
  Rw_prelude.Hook.disarm_all ();
  leftover
