(* The result line the benchmark prints last. *)

type metric = { name : string; unit_ : string; value : float }

let line ~correct ~attempted ~failed metrics =
  let module J = Rw_service.Json in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun m ->
                  (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.String m.unit_) ]))
                metrics) );
       ])

let print metrics =
  List.iter (fun m -> Printf.printf "  %-34s %14.6f %s\n" m.name m.value m.unit_) metrics
