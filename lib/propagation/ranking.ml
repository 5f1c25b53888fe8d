type module_row = {
  module_name : string;
  relative_permeability : float;
  non_weighted_permeability : float;
  exposure : float;
  non_weighted_exposure : float;
  relative_permeability_est : Estimate.t;
  non_weighted_permeability_est : Estimate.t;
  exposure_est : Estimate.t;
  non_weighted_exposure_est : Estimate.t;
  resolved : bool;
}

type signal_row = {
  signal : Signal.t;
  exposure : float;
  exposure_est : Estimate.t;
  resolved : bool;
}

type path_row = {
  rank : int;
  path : Path.t;
  weight : float;
  interval : float * float;
  resolved : bool;
}

type module_key =
  | By_relative_permeability
  | By_non_weighted_permeability
  | By_exposure
  | By_non_weighted_exposure

let key_value key row =
  match key with
  | By_relative_permeability -> row.relative_permeability
  | By_non_weighted_permeability -> row.non_weighted_permeability
  | By_exposure -> row.exposure
  | By_non_weighted_exposure -> row.non_weighted_exposure

let key_estimate key row =
  match key with
  | By_relative_permeability -> row.relative_permeability_est
  | By_non_weighted_permeability -> row.non_weighted_permeability_est
  | By_exposure -> row.exposure_est
  | By_non_weighted_exposure -> row.non_weighted_exposure_est

(* Pairs each row of a ranked list with its [resolved] flag: the row's
   interval does not overlap the next row's, so estimation noise cannot
   invert the two at the interval's confidence level.  The last row has
   nothing below it and is trivially resolved. *)
let resolve estimate rows =
  let rec go = function
    | [] -> []
    | [ last ] -> [ (last, true) ]
    | a :: (b :: _ as rest) ->
        (a, Estimate.separated (estimate a) (estimate b)) :: go rest
  in
  go rows

(* Descending by [value], ties broken by [name]: a total order. *)
let rank ~name ~value ~estimate rows =
  let cmp a b =
    match Float.compare (value b) (value a) with
    | 0 -> String.compare (name a) (name b)
    | c -> c
  in
  resolve estimate (List.stable_sort cmp rows)

let sort_module_rows key rows =
  List.map
    (fun ((r : module_row), resolved) -> { r with resolved })
    (rank
       ~name:(fun (r : module_row) -> r.module_name)
       ~value:(key_value key) ~estimate:(key_estimate key) rows)

type relative = { name : string; value : float; estimate : Estimate.t }

let relative name matrix =
  {
    name;
    value = Perm_matrix.relative matrix;
    estimate = Perm_matrix.relative_estimate matrix;
  }

let rank_relative rows =
  List.map
    (fun (r, resolved) -> (r.name, resolved))
    (rank
       ~name:(fun r -> r.name)
       ~value:(fun r -> r.value)
       ~estimate:(fun r -> r.estimate)
       rows)

let module_rows graph =
  let model = Perm_graph.model graph in
  let relatives =
    List.map
      (fun m ->
        let name = Sw_module.name m in
        relative name (Perm_graph.matrix graph name))
      (System_model.modules model)
  in
  (* Rows are returned in declaration order (Table 2), so resolvedness
     is judged against the primary ranking of that table: relative
     permeability. *)
  let resolved = rank_relative relatives in
  List.map
    (fun rel ->
      let matrix = Perm_graph.matrix graph rel.name in
      {
        module_name = rel.name;
        relative_permeability = rel.value;
        non_weighted_permeability = Perm_matrix.non_weighted matrix;
        exposure = Exposure.module_exposure graph rel.name;
        non_weighted_exposure = Exposure.module_exposure_nw graph rel.name;
        relative_permeability_est = rel.estimate;
        non_weighted_permeability_est = Perm_matrix.non_weighted_estimate matrix;
        exposure_est = Exposure.module_exposure_estimate graph rel.name;
        non_weighted_exposure_est =
          Exposure.module_exposure_nw_estimate graph rel.name;
        resolved = List.assoc rel.name resolved;
      })
    relatives

let signal_rows graph =
  let model = Perm_graph.model graph in
  let rows =
    List.map
      (fun signal ->
        {
          signal;
          exposure = Exposure.signal_exposure graph signal;
          exposure_est = Exposure.signal_exposure_estimate graph signal;
          resolved = true;
        })
      (System_model.internal_signals model)
  in
  let cmp a b =
    match Float.compare b.exposure a.exposure with
    | 0 -> Signal.compare a.signal b.signal
    | c -> c
  in
  List.map
    (fun ((r : signal_row), resolved) -> { r with resolved })
    (resolve
       (fun (r : signal_row) -> r.exposure_est)
       (List.stable_sort cmp rows))

let rank_paths ?(include_zero = false) paths =
  let paths = if include_zero then paths else Path.non_zero paths in
  let ranked =
    List.mapi
      (fun idx path ->
        {
          rank = idx + 1;
          path;
          weight = Path.weight path;
          interval = Path.weight_interval path;
          resolved = true;
        })
      (Path.sort_by_weight paths)
  in
  List.map
    (fun ((r : path_row), resolved) -> { r with resolved })
    (resolve (fun (r : path_row) -> Path.weight_estimate r.path) ranked)

let path_rows ?include_zero tree =
  rank_paths ?include_zero (Path.of_backtrack_tree tree)

let trace_path_rows ?include_zero tree =
  rank_paths ?include_zero (Path.of_trace_tree tree)

let pp_module_row ppf r =
  Fmt.pf ppf "@[<h>%-10s P=%.3f Pnw=%.3f X=%.3f Xnw=%.3f@]" r.module_name
    r.relative_permeability r.non_weighted_permeability r.exposure
    r.non_weighted_exposure

let pp_signal_row ppf r =
  Fmt.pf ppf "@[<h>%-14s X=%.3f@]" (Signal.name r.signal) r.exposure
