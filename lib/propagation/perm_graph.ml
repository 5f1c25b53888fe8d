type pair = { module_name : string; input : int; output : int }

type destination =
  | To_module of string * int
  | To_environment

type arc = {
  pair : pair;
  weight : float;
  estimate : Estimate.t;
  signal : Signal.t;
  destination : destination;
}

type t = {
  model : System_model.t;
  matrices : Perm_matrix.t String_map.t;
  arcs : arc list;
}

let pair_compare a b =
  match String.compare a.module_name b.module_name with
  | 0 -> (
      match Int.compare a.input b.input with
      | 0 -> Int.compare a.output b.output
      | c -> c)
  | c -> c

module Pair_set = Set.Make (struct
  type t = pair

  let compare = pair_compare
end)

let module_arcs model matrix m =
  let name = Sw_module.name m in
  let arcs_for_pair i k =
    let signal = Sw_module.output_signal m k in
    let estimate = Perm_matrix.estimate matrix ~input:i ~output:k in
    let weight = Estimate.value estimate in
    let pair = { module_name = name; input = i; output = k } in
    let to_consumers =
      List.map
        (fun (consumer, port) ->
          {
            pair;
            weight;
            estimate;
            signal;
            destination = To_module (Sw_module.name consumer, port);
          })
        (System_model.consumers model signal)
    in
    if System_model.is_system_output model signal then
      { pair; weight; estimate; signal; destination = To_environment }
      :: to_consumers
    else to_consumers
  in
  List.concat
    (List.concat_map
       (fun i ->
         List.init (Sw_module.output_count m) (fun k0 -> arcs_for_pair i (k0 + 1)))
       (List.init (Sw_module.input_count m) (fun i0 -> i0 + 1)))

let build model matrices =
  let check m =
    let name = Sw_module.name m in
    match String_map.find_opt name matrices with
    | None -> Error (Printf.sprintf "no permeability matrix for module %S" name)
    | Some matrix ->
        if
          Perm_matrix.input_count matrix <> Sw_module.input_count m
          || Perm_matrix.output_count matrix <> Sw_module.output_count m
        then
          Error
            (Printf.sprintf
               "matrix for module %S is %dx%d but the module has %d inputs \
                and %d outputs"
               name
               (Perm_matrix.input_count matrix)
               (Perm_matrix.output_count matrix)
               (Sw_module.input_count m) (Sw_module.output_count m))
        else Ok matrix
  in
  let rec go acc = function
    | [] ->
        let arcs =
          List.concat_map
            (fun m ->
              module_arcs model
                (String_map.find (Sw_module.name m) matrices)
                m)
            (System_model.modules model)
        in
        Ok { model; matrices = acc; arcs }
    | m :: rest -> (
        match check m with
        | Error _ as e -> e
        | Ok matrix -> go (String_map.add (Sw_module.name m) matrix acc) rest)
  in
  go String_map.empty (System_model.modules model)

let build_exn model matrices =
  match build model matrices with
  | Ok t -> t
  | Error msg -> invalid_arg ("Perm_graph.build_exn: " ^ msg)

let model t = t.model
let matrix t name = String_map.find name t.matrices

let permeability_estimate t pair =
  match String_map.find_opt pair.module_name t.matrices with
  | None ->
      invalid_arg
        (Printf.sprintf "Perm_graph.permeability: unknown module %S"
           pair.module_name)
  | Some m -> Perm_matrix.estimate m ~input:pair.input ~output:pair.output

let permeability t pair = Estimate.value (permeability_estimate t pair)

let arcs t = t.arcs

let incoming_arcs t name =
  List.filter
    (fun a ->
      match a.destination with
      | To_module (dst, _) -> String.equal dst name
      | To_environment -> false)
    t.arcs

let outgoing_arcs t name =
  List.filter (fun a -> String.equal a.pair.module_name name) t.arcs

let arc_count t = List.length t.arcs

let pp_pair ppf p =
  Fmt.pf ppf "P^%s_{%d,%d}" p.module_name p.input p.output

let pp_destination ppf = function
  | To_module (m, i) -> Fmt.pf ppf "%s.in%d" m i
  | To_environment -> Fmt.string ppf "environment"

let pp_arc ppf a =
  Fmt.pf ppf "@[<h>%a = %.3f : %s --%a--> %a@]" pp_pair a.pair a.weight
    a.pair.module_name Signal.pp a.signal pp_destination a.destination

let pp ppf t = Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_arc) t.arcs
