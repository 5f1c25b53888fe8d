(* The five-module example system of the paper's Figs. 2-5.

   Prints the permeability graph, the backtrack tree of the system
   output (Fig. 4), the trace trees of all three system inputs (Fig. 5)
   and the ranked propagation paths, plus DOT renderings.

   Run with: dune exec examples/five_module_system.exe *)

open Propagation

let () =
  let analysis = Fig_example.analysis () in
  let graph = Fig_example.graph in

  Format.printf "== Permeability graph (Fig. 3) ==@.%a@.@." Perm_graph.pp graph;

  let backtrack = Backtrack_tree.build graph Fig_example.output in
  Format.printf "== Backtrack tree for %a (Fig. 4) ==@.%a@.@." Signal.pp
    Fig_example.output Backtrack_tree.pp backtrack;
  Format.printf "(%d root-to-leaf paths, depth %d)@.@."
    (Backtrack_tree.leaf_count backtrack)
    (Backtrack_tree.depth backtrack);

  List.iter
    (fun input ->
      let trace = Trace_tree.build graph input in
      Format.printf "== Trace tree for %a (Fig. 5) ==@.%a@.@." Signal.pp input
        Trace_tree.pp trace)
    Fig_example.inputs;

  Report.Table.print (Report.Experiments.table2 analysis);
  print_newline ();
  Report.Table.print (Report.Experiments.table3 analysis);
  print_newline ();
  Report.Table.print (Report.Experiments.table4 analysis Fig_example.output);
  print_newline ();

  (* Pr-adjusted path weights: assume errors appear on ext_a with
     probability 0.1 (the paper's P' = Pr x prod P). *)
  let paths = Path.sort_by_weight (Path.of_backtrack_tree backtrack) in
  let from_ext_a =
    List.filter
      (fun p -> Signal.equal (Path.leaf_signal p) (Signal.make "ext_a"))
      paths
  in
  Format.printf "paths ending at ext_a, adjusted with Pr(err) = 0.1:@.";
  List.iter
    (fun p ->
      Format.printf "  %a  P' = %.6f@." Path.pp p
        (Path.adjusted_weight ~input_error_probability:0.1 p))
    from_ext_a;

  print_newline ();
  print_endline "== DOT (render with graphviz) ==";
  print_endline (Report.Dot.of_backtrack_tree backtrack);

  (* The same topology also exists as running code (Dataflow.Fig2_system):
     measure its permeabilities with a real campaign and compare the
     resulting analysis against the postulated values above. *)
  print_endline "== Executable twin: measured permeabilities ==";
  let measured = Dataflow.Fig2_system.measure () in
  let twin_analysis =
    Analysis.run_exn (Dataflow.Builder.model Dataflow.Fig2_system.system)
      measured
  in
  Report.Table.print (Report.Experiments.table2 twin_analysis);
  print_newline ();
  Report.Table.print
    (Report.Experiments.table4 twin_analysis (Signal.make "e_out"))
