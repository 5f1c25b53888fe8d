let incoming t name = Perm_graph.incoming_arcs t name

let module_exposure_nw t name =
  List.fold_left (fun acc (a : Perm_graph.arc) -> acc +. a.weight) 0.0
    (incoming t name)

let module_exposure t name =
  match incoming t name with
  | [] -> 0.0
  | arcs ->
      let m =
        System_model.find_module_exn (Perm_graph.model t) name
      in
      List.fold_left (fun acc (a : Perm_graph.arc) -> acc +. a.weight) 0.0 arcs
      /. float_of_int (Sw_module.pair_count m)

let module_exposure_nw_estimate t name =
  Estimate.sum (List.map (fun (a : Perm_graph.arc) -> a.estimate) (incoming t name))

let module_exposure_estimate t name =
  match incoming t name with
  | [] -> Estimate.zero
  | arcs ->
      let m = System_model.find_module_exn (Perm_graph.model t) name in
      Estimate.scale
        (1.0 /. float_of_int (Sw_module.pair_count m))
        (Estimate.sum (List.map (fun (a : Perm_graph.arc) -> a.estimate) arcs))

let signal_exposure t signal =
  let model = Perm_graph.model t in
  match System_model.producer model signal with
  | None -> 0.0
  | Some (m, k) ->
      Perm_matrix.column_sum (Perm_graph.matrix t (Sw_module.name m)) ~output:k

let signal_exposure_estimate t signal =
  let model = Perm_graph.model t in
  match System_model.producer model signal with
  | None -> Estimate.zero
  | Some (m, k) ->
      Perm_matrix.column_sum_estimate
        (Perm_graph.matrix t (Sw_module.name m))
        ~output:k

let signal_exposure_via_trees trees signal =
  let child_pairs (node : Backtrack_tree.node) =
    List.map (fun (c : Backtrack_tree.child) -> (c.pair, c.weight)) node.children
  in
  let pairs =
    List.concat_map
      (fun tree ->
        List.concat_map child_pairs (Backtrack_tree.nodes_of_signal tree signal))
      trees
  in
  (* Eq. (6): each arc counts once even when the signal generates
     several nodes across (or within) the trees. *)
  let _, total =
    List.fold_left
      (fun (seen, total) (pair, weight) ->
        if Perm_graph.Pair_set.mem pair seen then (seen, total)
        else (Perm_graph.Pair_set.add pair seen, total +. weight))
      (Perm_graph.Pair_set.empty, 0.0)
      pairs
  in
  total
