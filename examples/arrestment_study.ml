(* The full Section 7 study, end to end:

   1. build the static model of the six-module arrestment controller;
   2. run a SWIFI campaign (bit-flips on all 13 module-input signals
      under a mass x velocity workload grid);
   3. estimate the 25 error-permeability values, with their n_err /
      n_inj counts and 95% intervals (Table 1);
   4. derive the module and signal measures (Tables 2-3) and the ranked
      propagation paths of TOC2 (Table 4);
   5. print the paper's values side by side.

   The default campaign is a reduced grid so the example finishes in
   about a minute; set STUDY_SCALE=full for the paper-scale campaign
   (25 test cases x 10 instants x 16 bits x 13 signals = 52,000 runs).

   Run with: dune exec examples/arrestment_study.exe *)

let full_scale =
  match Sys.getenv_opt "STUDY_SCALE" with
  | Some "full" -> true
  | Some _ | None -> false

let () =
  let testcases =
    if full_scale then Arrestment.System.paper_testcases
    else
      Propane.Testcase.grid
        [
          Propane.Testcase.uniform_axis "mass" ~lo:8_000.0 ~hi:20_000.0 ~steps:3;
          Propane.Testcase.uniform_axis "velocity" ~lo:40.0 ~hi:80.0 ~steps:3;
        ]
  in
  let times =
    if full_scale then Propane.Campaign.paper_times
    else List.map Simkernel.Sim_time.of_ms [ 500; 2000; 3500; 5000 ]
  in
  let campaign =
    Propane.Campaign.make
      ~name:(if full_scale then "paper-7.3" else "reduced-7.3")
      ~targets:Arrestment.Model.injection_targets ~testcases ~times
      ~errors:(Propane.Error_model.bit_flips ~width:Arrestment.Signals.width)
  in
  Format.printf "%a@." Propane.Campaign.pp campaign;
  let sut = Arrestment.System.sut () in
  let t0 = Sys.time () in
  let results =
    Propane.Runner.run
      ~config:(Propane.Runner.Config.make ~seed:42L ~truncate_after_ms:128 ())
      sut campaign
  in
  Format.printf "campaign done in %.1f s (cpu)@.@." (Sys.time () -. t0);

  match
    Propane.Estimator.estimate_all ~model:Arrestment.Model.system results
  with
  | Error msg -> prerr_endline ("estimation failed: " ^ msg)
  | Ok matrices ->
      let analysis = Propagation.Analysis.run_exn Arrestment.Model.system matrices in
      Report.Table.print
        (Report.Experiments.table1
           ~reference:(Arrestment.Model.paper_matrices ())
           ~ci:true analysis);
      print_newline ();
      Report.Table.print (Report.Experiments.table2 analysis);
      print_newline ();
      Report.Table.print (Report.Experiments.table3 analysis);
      print_newline ();
      Report.Table.print
        (Report.Experiments.table4 analysis Arrestment.Signals.toc2);
      print_newline ();
      Format.printf "%a@." Edm.Selector.pp
        (Edm.Selector.propose analysis.Propagation.Analysis.placement)
