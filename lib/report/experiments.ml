let f3 v = Printf.sprintf "%.3f" v
let ci_cell (lo, hi) = Printf.sprintf "[%.3f, %.3f]" lo hi
let est_ci e = ci_cell (Propagation.Estimate.interval e)
let resolved_cell r = if r then "yes" else "no"

let table1 ?reference ?(ci = false) (analysis : Propagation.Analysis.t) =
  let model = Propagation.Perm_graph.model analysis.graph in
  let rows =
    List.concat_map
      (fun m ->
        let name = Propagation.Sw_module.name m in
        let matrix = Propagation.Perm_graph.matrix analysis.graph name in
        List.concat_map
          (fun i0 ->
            let i = i0 + 1 in
            List.map
              (fun k0 ->
                let k = k0 + 1 in
                let base =
                  [
                    Fmt.str "%a -> %a" Propagation.Signal.pp
                      (Propagation.Sw_module.input_signal m i)
                      Propagation.Signal.pp
                      (Propagation.Sw_module.output_signal m k);
                    Printf.sprintf "P^%s_{%d,%d}" name i k;
                    f3 (Propagation.Perm_matrix.get matrix ~input:i ~output:k);
                  ]
                  @ (if not ci then []
                     else
                       let e =
                         Propagation.Perm_matrix.estimate matrix ~input:i
                           ~output:k
                       in
                       [
                         string_of_int e.Propagation.Estimate.n_err;
                         string_of_int e.Propagation.Estimate.n_inj;
                         est_ci e;
                       ])
                in
                match reference with
                | None -> base
                | Some ref_matrices ->
                    let ref_value =
                      match
                        Propagation.String_map.find_opt name ref_matrices
                      with
                      | Some rm ->
                          f3 (Propagation.Perm_matrix.get rm ~input:i ~output:k)
                      | None -> "-"
                    in
                    base @ [ ref_value ])
              (List.init (Propagation.Sw_module.output_count m) Fun.id))
          (List.init (Propagation.Sw_module.input_count m) Fun.id))
      (Propagation.System_model.modules model)
  in
  let columns =
    [
      ("Input -> Output", Table.Left);
      ("Name", Table.Left);
      ("Value", Table.Right);
    ]
    @ (if not ci then []
       else
         [
           ("n_err", Table.Right);
           ("n_inj", Table.Right);
           ("95% CI", Table.Left);
         ])
    @ match reference with None -> [] | Some _ -> [ ("Paper", Table.Right) ]
  in
  Table.make ~title:"Table 1. Estimated error permeability values" ~columns
    rows

let table2 ?(ci = false) (analysis : Propagation.Analysis.t) =
  Table.make ~title:"Table 2. Relative permeability and error exposure"
    ~columns:
      ([
         ("Module", Table.Left);
         ("P^M", Table.Right);
         ("Pnw^M", Table.Right);
         ("X^M", Table.Right);
         ("Xnw^M", Table.Right);
       ]
      @
      if not ci then []
      else
        [
          ("P^M CI", Table.Left);
          ("X^M CI", Table.Left);
          ("Resolved", Table.Left);
        ])
    (List.map
       (fun (r : Propagation.Ranking.module_row) ->
         [
           r.module_name;
           f3 r.relative_permeability;
           f3 r.non_weighted_permeability;
           f3 r.exposure;
           f3 r.non_weighted_exposure;
         ]
         @
         if not ci then []
         else
           [
             est_ci r.relative_permeability_est;
             est_ci r.exposure_est;
             resolved_cell r.resolved;
           ])
       analysis.module_rows)

let table3 ?(ci = false) (analysis : Propagation.Analysis.t) =
  Table.make ~title:"Table 3. Estimated signal error exposures"
    ~columns:
      ([ ("Signal", Table.Left); ("X^S", Table.Right) ]
      @
      if not ci then []
      else [ ("95% CI", Table.Left); ("Resolved", Table.Left) ])
    (List.map
       (fun (r : Propagation.Ranking.signal_row) ->
         [ Propagation.Signal.name r.signal; f3 r.exposure ]
         @
         if not ci then []
         else [ est_ci r.exposure_est; resolved_cell r.resolved ])
       analysis.signal_rows)

let path_cells ~ci (r : Propagation.Ranking.path_row) =
  let signals =
    Propagation.Signal.name r.path.Propagation.Path.source
    :: List.map
         (fun (s : Propagation.Path.step) -> Propagation.Signal.name s.signal)
         r.path.Propagation.Path.steps
  in
  [
    string_of_int r.rank;
    String.concat " <- " signals;
    Printf.sprintf "%.6f" r.weight;
  ]
  @
  if not ci then []
  else
    let lo, hi = r.interval in
    [
      Printf.sprintf "[%.6f, %.6f]" lo hi;
      resolved_cell r.resolved;
    ]

let path_columns ci =
  [ ("#", Table.Right); ("Path", Table.Left); ("Weight", Table.Right) ]
  @
  if not ci then []
  else [ ("Weight CI", Table.Left); ("Resolved", Table.Left) ]

let find_paths what paths signal =
  match
    List.find_opt (fun (s, _) -> Propagation.Signal.equal s signal) paths
  with
  | Some (_, rows) -> rows
  | None ->
      invalid_arg
        (Fmt.str "Experiments.%s: no tree for signal %a" what
           Propagation.Signal.pp signal)

let table4 ?(ci = false) (analysis : Propagation.Analysis.t) output =
  let rows = find_paths "table4" analysis.output_paths output in
  Table.make
    ~title:
      (Fmt.str
         "Table 4. Propagation paths of backtrack tree for %a (non-zero, by \
          weight)"
         Propagation.Signal.pp output)
    ~columns:(path_columns ci)
    (List.map (path_cells ~ci) rows)

let input_paths_table ?(ci = false) (analysis : Propagation.Analysis.t) input =
  let rows = find_paths "input_paths_table" analysis.input_paths input in
  Table.make
    ~title:
      (Fmt.str "Propagation paths of trace tree for %a (non-zero, by weight)"
         Propagation.Signal.pp input)
    ~columns:(path_columns ci)
    (List.map (path_cells ~ci) rows)
