type leaf = System_output | Dead_end

type node = { signal : Signal.t; kind : kind; children : child list }

and kind =
  | Root
  | Produced of { producer : string; output : int }
  | Leaf_of of leaf * string * int

and child = {
  weight : float;
  estimate : Estimate.t;
  pair : Perm_graph.pair;
  node : node;
}

type t = { root : node }

let build graph input =
  let model = Perm_graph.model graph in
  (* Children of a node carrying [signal]: for every consumer (M, i) of
     [signal] and every output k of M, one child weighted P^M_{i,k}.
     [ancestors] is the signal set on the root path; a child whose
     signal repeats an ancestor is omitted (feedback is followed once,
     its recursion never). *)
  let rec children_of signal ancestors =
    List.concat_map
      (fun (m, i) ->
        let name = Sw_module.name m in
        let matrix = Perm_graph.matrix graph name in
        List.filter_map
          (fun k0 ->
            let k = k0 + 1 in
            let child_signal = Sw_module.output_signal m k in
            if Signal.Set.mem child_signal ancestors then None
            else
              let estimate = Perm_matrix.estimate matrix ~input:i ~output:k in
              let weight = Estimate.value estimate in
              let pair =
                { Perm_graph.module_name = name; input = i; output = k }
              in
              let node =
                if System_model.is_system_output model child_signal then
                  {
                    signal = child_signal;
                    kind = Leaf_of (System_output, name, k);
                    children = [];
                  }
                else
                  let ancestors = Signal.Set.add child_signal ancestors in
                  match children_of child_signal ancestors with
                  | [] when System_model.consumers model child_signal = [] ->
                      {
                        signal = child_signal;
                        kind = Leaf_of (Dead_end, name, k);
                        children = [];
                      }
                  | children ->
                      {
                        signal = child_signal;
                        kind = Produced { producer = name; output = k };
                        children;
                      }
              in
              Some { weight; estimate; pair; node })
          (List.init (Sw_module.output_count m) Fun.id))
      (System_model.consumers model signal)
  in
  if System_model.consumers model input = [] then
    invalid_arg
      (Fmt.str "Trace_tree.build: signal %a has no consumer" Signal.pp input);
  {
    root =
      {
        signal = input;
        kind = Root;
        children = children_of input (Signal.Set.singleton input);
      };
  }

let build_all graph =
  let model = Perm_graph.model graph in
  List.map (build graph) (System_model.system_inputs model)

let rec fold_node f acc node =
  List.fold_left (fun acc c -> fold_node f acc c.node) (f acc node) node.children

let fold f acc t = fold_node f acc t.root

let leaf_count t =
  fold (fun acc n -> if n.children = [] then acc + 1 else acc) 0 t

let depth t =
  let rec go node =
    match node.children with
    | [] -> 1
    | children -> 1 + List.fold_left (fun d c -> max d (go c.node)) 0 children
  in
  go t.root

let pp ppf t =
  let rec pp_node ppf node =
    match node.children with
    | [] ->
        let tag =
          match node.kind with
          | Leaf_of (System_output, _, _) -> " [system output]"
          | Leaf_of (Dead_end, _, _) -> " [dead end]"
          | Root | Produced _ -> ""
        in
        Fmt.pf ppf "%a%s" Signal.pp node.signal tag
    | children ->
        let pp_child ppf c =
          Fmt.pf ppf "@[<v 2>-- %a (%.3f) %a@]" Perm_graph.pp_pair c.pair
            c.weight pp_node c.node
        in
        Fmt.pf ppf "%a@,%a" Signal.pp node.signal
          Fmt.(list ~sep:cut pp_child)
          children
  in
  Fmt.pf ppf "@[<v>%a@]" pp_node t.root
