type t = {
  graph : Perm_graph.t;
  backtrack_trees : (Signal.t * Backtrack_tree.t) list;
  trace_trees : (Signal.t * Trace_tree.t) list;
  module_rows : Ranking.module_row list;
  signal_rows : Ranking.signal_row list;
  output_paths : (Signal.t * Ranking.path_row list) list;
  input_paths : (Signal.t * Ranking.path_row list) list;
  placement : Placement.t;
}

let run model matrices =
  match Perm_graph.build model matrices with
  | Error _ as e -> e
  | Ok graph ->
      let backtrack_trees =
        List.map
          (fun s -> (s, Backtrack_tree.build graph s))
          (System_model.system_outputs model)
      in
      let trace_trees =
        List.map
          (fun s -> (s, Trace_tree.build graph s))
          (System_model.system_inputs model)
      in
      Ok
        {
          graph;
          backtrack_trees;
          trace_trees;
          module_rows = Ranking.module_rows graph;
          signal_rows = Ranking.signal_rows graph;
          output_paths =
            List.map
              (fun (s, tree) -> (s, Ranking.path_rows tree))
              backtrack_trees;
          input_paths =
            List.map
              (fun (s, tree) -> (s, Ranking.trace_path_rows tree))
              trace_trees;
          placement = Placement.recommend graph;
        }

let run_exn model matrices =
  match run model matrices with
  | Ok t -> t
  | Error msg -> invalid_arg ("Analysis.run_exn: " ^ msg)

let pp_summary ppf t =
  let pp_tree_stats what count ppf (s, _tree) =
    Fmt.pf ppf "%s tree for %a: %d paths" what Signal.pp s count
  in
  let pp_bt ppf ((s, tree) as e) =
    pp_tree_stats "backtrack" (Backtrack_tree.leaf_count tree) ppf e;
    ignore s
  in
  let pp_tt ppf ((s, tree) as e) =
    pp_tree_stats "trace" (Trace_tree.leaf_count tree) ppf e;
    ignore s
  in
  Fmt.pf ppf
    "@[<v>modules:@,%a@,signals:@,%a@,%a@,%a@,placement:@,%a@]"
    Fmt.(list ~sep:cut Ranking.pp_module_row)
    t.module_rows
    Fmt.(list ~sep:cut Ranking.pp_signal_row)
    t.signal_rows
    Fmt.(list ~sep:cut pp_bt)
    t.backtrack_trees
    Fmt.(list ~sep:cut pp_tt)
    t.trace_trees Placement.pp t.placement
