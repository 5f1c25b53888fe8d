(* The full Section 7 study, end to end:

   1. build the static model of the six-module arrestment controller;
   2. run a SWIFI campaign (bit-flips on all 13 module-input signals
      under a mass x velocity workload grid);
   3. estimate the 25 error-permeability values, with their n_err /
      n_inj counts and 95% intervals (Table 1);
   4. derive the module and signal measures (Tables 2-3) and the ranked
      propagation paths of TOC2 (Table 4);
   5. print the paper's values side by side.

   The campaign is the one `propane campaign` runs by default (3x3
   test cases x 4 instants x 16 bits x 13 signals = 7,488 runs, well
   under a second); `propane campaign --full` runs the paper-scale
   campaign (25 test cases x 10 instants, 52,000 runs).  The CPU time
   goes to stderr.

   Run with: dune exec examples/arrestment_study.exe *)

let () =
  let recipe = Arrestment.Recipe.make () in
  let campaign = Arrestment.Recipe.campaign recipe in
  Format.printf "%a@.@." Propane.Campaign.pp campaign;
  let t0 = Sys.time () in
  let results =
    Propane.Runner.run ~config:recipe.config
      (Arrestment.Recipe.sut recipe)
      campaign
  in
  Format.eprintf "campaign done in %.1f s (cpu)@." (Sys.time () -. t0);

  match Arrestment.Recipe.analyse ~window:recipe.window results with
  | Error msg -> prerr_endline ("estimation failed: " ^ msg)
  | Ok analysis ->
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
