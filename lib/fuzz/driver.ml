type failure = {
  case : Gen.case;
  original : Gen.case;
  violations : Oracle.violation list;
  corpus_path : string option;
}

type report = {
  seed : int;
  cases : int;
  failures : failure list;
  seconds : float;
}

let pp_failure ppf f =
  Fmt.pf ppf "@[<v>%a@,%a%a@]" Gen.pp_case f.case
    (Fmt.list ~sep:Fmt.cut Oracle.pp_violation)
    f.violations
    Fmt.(option (fun ppf p -> Fmt.pf ppf "@,saved: %s" p))
    f.corpus_path

let pp_report ppf r =
  if r.failures = [] then
    Fmt.pf ppf "fuzz: %d cases, 0 violations (seed %d, %.1fs)" r.cases r.seed
      r.seconds
  else
    Fmt.pf ppf "@[<v>fuzz: %d cases, %d FAILING (seed %d, %.1fs)@,%a@]"
      r.cases
      (List.length r.failures)
      r.seed r.seconds
      (Fmt.list ~sep:(Fmt.any "@,@,") pp_failure)
      r.failures

let run ?(options = Oracle.fuzz_options) ?oracles ?corpus_dir ?progress
    ?(max_size = 5) ?(jobs = 1) ~seed ~cases () =
  let t0 = Rw_prelude.Clock.now () in
  (* Progress and corpus writes may happen from several domains; the
     case pipeline itself is embarrassingly parallel because a case is
     a pure function of (seed, max_size, index). *)
  let io_m = Mutex.create () in
  let run_case i =
    let case = Gen.case ~seed ~max_size i in
    let violations = Oracle.check ?only:oracles ~options case in
    let failure =
      if violations = [] then None
      else begin
        let failing =
          List.sort_uniq String.compare
            (List.map (fun v -> v.Oracle.oracle) violations)
        in
        let shrunk = Shrink.shrink ~options ~failing case in
        let violations' = Oracle.check ~only:failing ~options shrunk in
        (* Shrinking re-checks with the failing subset only; if the step
           logic somehow lost the failure, report the original. *)
        let case', vs =
          if violations' <> [] then (shrunk, violations')
          else (case, violations)
        in
        let corpus_path =
          Option.map
            (fun dir ->
              let oracle =
                match vs with v :: _ -> v.Oracle.oracle | [] -> "unknown"
              in
              Mutex.protect io_m (fun () ->
                  Corpus.save ~dir
                    ~description:
                      (Printf.sprintf "found by rw fuzz --seed %d (case %d)"
                         seed case.Gen.index)
                    ~oracle case'))
            corpus_dir
        in
        Some { case = case'; original = case; violations = vs; corpus_path }
      end
    in
    Option.iter (fun f -> Mutex.protect io_m (fun () -> f i)) progress;
    failure
  in
  let indices = List.init cases Fun.id in
  let results =
    Rw_pool.Pool.run ~jobs (fun p -> Rw_pool.Pool.map p run_case indices)
  in
  {
    seed;
    cases;
    failures = List.filter_map Fun.id results;
    seconds = Rw_prelude.Clock.now () -. t0;
  }
