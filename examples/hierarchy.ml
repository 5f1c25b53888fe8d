(* Hierarchical analysis: a system as a module in a larger system.

   Section 3 remarks that an analysed system "may be seen as a larger
   component or module in an even larger system".  This example:

   1. collapses the analysed arrestment controller into one black-box
      module with an equivalent 4x1 permeability matrix (two bounds:
      max-path and noisy-or, cross-validated by Monte-Carlo sampling);
   2. wires that black box into a two-node supervision layer
      (a SENSOR_BUS feeding it, a MONITOR consuming TOC2);
   3. analyses the composed system, showing how exposure and placement
      reasoning lift to the system-of-systems level.

   Run with: dune exec examples/hierarchy.exe *)

open Propagation

let () =
  (* 1. Analyse the inner system from the paper's permeability values
        and collapse it. *)
  let inner_analysis =
    Analysis.run_exn Arrestment.Model.system
      (Arrestment.Model.paper_matrices ())
  in
  let inner, inner_matrix =
    Compose.as_module ~name:"ARRESTMENT" inner_analysis
  in
  let lower =
    Compose.equivalent_matrix ~combinator:Compose.Max_path inner_analysis
  in
  let mc =
    Monte_carlo.arrival_matrix ~trials:20_000 ~seed:42
      inner_analysis.Analysis.graph
      ~sources:(System_model.system_inputs Arrestment.Model.system)
  in
  Format.printf
    "equivalent permeability of the collapsed controller (input -> TOC2):@.";
  List.iteri
    (fun idx input ->
      let i = idx + 1 in
      Format.printf "  %-6s max-path %.4f | monte-carlo %.4f | noisy-or %.4f@."
        (Signal.name input)
        (Perm_matrix.get lower ~input:i ~output:1)
        (Perm_matrix.get mc ~input:i ~output:1)
        (Perm_matrix.get inner_matrix ~input:i ~output:1))
    (System_model.system_inputs Arrestment.Model.system);
  print_newline ();

  (* 2. Wire it into a supervision layer. *)
  let raw_bus = Signal.make "raw_bus" in
  let alarm = Signal.make "alarm" in
  let sensor_bus =
    Sw_module.make ~name:"SENSOR_BUS" ~inputs:[ raw_bus ]
      ~outputs:
        [
          Arrestment.Signals.pacnt;
          Arrestment.Signals.tic1;
          Arrestment.Signals.tcnt;
          Arrestment.Signals.adc;
        ]
  in
  let monitor =
    Sw_module.make ~name:"MONITOR"
      ~inputs:[ Arrestment.Signals.toc2 ]
      ~outputs:[ alarm ]
  in
  let outer_model =
    System_model.make_exn
      ~modules:[ sensor_bus; inner; monitor ]
      ~system_inputs:[ raw_bus ] ~system_outputs:[ alarm ]
  in
  let outer_matrices =
    String_map.of_list
      [
        (* A shared bus passes most errors through to every channel. *)
        ( "SENSOR_BUS",
          Perm_matrix.of_rows [| [| 0.9; 0.9; 0.9; 0.7 |] |] );
        ("ARRESTMENT", inner_matrix);
        ("MONITOR", Perm_matrix.of_rows [| [| 0.95 |] |]);
      ]
  in
  let outer = Analysis.run_exn outer_model outer_matrices in

  (* 3. System-of-systems results. *)
  Report.Table.print (Report.Experiments.table2 outer);
  print_newline ();
  Report.Table.print (Report.Experiments.table4 outer alarm);
  print_newline ();
  Format.printf "placement at the outer level:@.%a@." Placement.pp
    outer.Analysis.placement;
  print_newline ();
  let prob_model = Prob_model.uniform outer_model ~probability:0.05 in
  Format.printf
    "with Pr(bus error) = 0.05, the alarm sees corrupt commands with \
     probability <= %.5f@."
    (match Prob_model.output_arrival prob_model outer with
    | (_, p) :: _ -> p
    | [] -> 0.0)
