type stats = {
  pair : Propagation.Perm_graph.pair;
  samples : int;
  min_ms : int;
  max_ms : int;
  mean_ms : float;
  median_ms : int;
}

let window_of = function
  | Estimator.Direct { window_ms } -> Some window_ms
  | Estimator.Any_divergence -> None

let pair_stats ?(attribution = Estimator.default_attribution) ~model ~results
    module_name =
  let m = Propagation.System_model.find_module_exn model module_name in
  let window = window_of attribution in
  let stats_for i k =
    let input_name =
      Propagation.Signal.name (Propagation.Sw_module.input_signal m i)
    in
    let output_name =
      Propagation.Signal.name (Propagation.Sw_module.output_signal m k)
    in
    let latencies =
      List.filter_map
        (fun (o : Results.outcome) ->
          (* A crashed run's tail-rule divergences mark the crash, not
             a propagation; failed runs carry no latency signal. *)
          if Results.is_failed o.status then None
          else
          match Results.divergence_of o output_name with
          | None -> None
          | Some at ->
              (* Latency counts from the first actual corruption, not
                 the arming time of a delayed model. *)
              let injected = Injection.first_fire_ms o.injection in
              let latency = at - injected in
              if latency < 0 then None
              else
                let inside =
                  match window with
                  | None -> true
                  | Some w -> latency <= w
                in
                if inside then Some latency else None)
        (Results.by_target results input_name)
    in
    match List.sort Int.compare latencies with
    | [] -> None
    | sorted ->
        let n = List.length sorted in
        Some
          {
            pair =
              { Propagation.Perm_graph.module_name; input = i; output = k };
            samples = n;
            min_ms = List.hd sorted;
            max_ms = List.nth sorted (n - 1);
            mean_ms =
              float_of_int (List.fold_left ( + ) 0 sorted) /. float_of_int n;
            median_ms = List.nth sorted (n / 2);
          }
  in
  List.concat_map
    (fun i0 ->
      List.init (Propagation.Sw_module.output_count m) (fun k0 ->
          stats_for (i0 + 1) (k0 + 1)))
    (List.init (Propagation.Sw_module.input_count m) Fun.id)

let all_stats ?attribution ~model results =
  List.concat_map
    (fun m ->
      List.filter_map Fun.id
        (pair_stats ?attribution ~model ~results (Propagation.Sw_module.name m)))
    (Propagation.System_model.modules model)

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<h>%a: n=%d latency min=%d max=%d mean=%.1f median=%d ms@]"
    Propagation.Perm_graph.pp_pair s.pair s.samples s.min_ms s.max_ms s.mean_ms
    s.median_ms
