let default_window_ms = 64

let attributed ~window_ms (outcome : Results.outcome) output_name =
  match Results.divergence_of outcome output_name with
  | None -> false
  | Some diverged_at ->
      (* Attribution brackets the error model's firing window: from the
         first corruption (identical to the injection time for
         single-shot models) to [window_ms] past the last one, so
         delayed and intermittent injections are not blamed for — or
         robbed of — divergences outside their lifetime.  The
         difference cannot overflow where [last_fire + window_ms]
         would. *)
      diverged_at >= Injection.first_fire_ms outcome.injection
      && diverged_at - Injection.last_fire_ms outcome.injection <= window_ms

module Stream = struct
  module SS = Set.Make (String)

  type cell = { mutable n_err : int; mutable n_inj : int }

  type module_state = {
    name : string;
    output_names : string array;
    cells : cell array array;  (* inputs (i-1) x outputs (k-1) *)
    mutable cached : Propagation.Perm_matrix.t option;
  }

  type t = {
    window_ms : int;
    states : module_state list;  (* model declaration order *)
    by_target : (string, (module_state * int) list) Hashtbl.t;
    mutable dirty : SS.t;
    mutable runs : int;
  }

  let create ?(window_ms = default_window_ms) ~model () =
    let states =
      List.map
        (fun m ->
          let inputs = Propagation.Sw_module.input_count m in
          let outputs = Propagation.Sw_module.output_count m in
          {
            name = Propagation.Sw_module.name m;
            output_names =
              Array.init outputs (fun k0 ->
                  Propagation.Signal.name
                    (Propagation.Sw_module.output_signal m (k0 + 1)));
            cells =
              Array.init inputs (fun _ ->
                  Array.init outputs (fun _ -> { n_err = 0; n_inj = 0 }));
            cached = None;
          })
        (Propagation.System_model.modules model)
    in
    let by_target = Hashtbl.create 16 in
    List.iter2
      (fun m state ->
        List.iteri
          (fun i0 input ->
            let key = Propagation.Signal.name input in
            let prev = Option.value ~default:[] (Hashtbl.find_opt by_target key) in
            Hashtbl.replace by_target key (prev @ [ (state, i0 + 1) ]))
          (Propagation.Sw_module.input_signals m))
      (Propagation.System_model.modules model)
      states;
    { window_ms; states; by_target; dirty = SS.empty; runs = 0 }

  let observe t (outcome : Results.outcome) =
    t.runs <- t.runs + 1;
    let target = outcome.Results.injection.Injection.target in
    match Hashtbl.find_opt t.by_target target with
    | None -> ()
    | Some consumers ->
        (* A crashed or hung run never produced the output at all: under
           the paper's failure-class reading that is an error on every
           output of the module, not a divergence to be found inside the
           attribution window. *)
        let failed = Results.is_failed outcome.Results.status in
        List.iter
          (fun (st, i) ->
            st.cached <- None;
            t.dirty <- SS.add st.name t.dirty;
            Array.iteri
              (fun k0 cell ->
                cell.n_inj <- cell.n_inj + 1;
                if failed
                   || attributed ~window_ms:t.window_ms outcome st.output_names.(k0)
                then cell.n_err <- cell.n_err + 1)
              st.cells.(i - 1))
          consumers

  let matrix_of st =
    match st.cached with
    | Some m -> m
    | None ->
        let m =
          Propagation.Perm_matrix.of_estimates
            (Array.map
               (Array.map (fun c ->
                    Propagation.Estimate.of_counts ~errors:c.n_err
                      ~trials:c.n_inj))
               st.cells)
        in
        st.cached <- Some m;
        m

  let matrices t =
    List.fold_left
      (fun acc st -> Propagation.String_map.add st.name (matrix_of st) acc)
      Propagation.String_map.empty t.states

  let drain_dirty t =
    let dirty =
      List.filter_map
        (fun st ->
          if SS.mem st.name t.dirty then Some (st.name, matrix_of st) else None)
        t.states
    in
    t.dirty <- SS.empty;
    dirty

  let find_row t ~module_name ~target =
    match Hashtbl.find_opt t.by_target target with
    | None -> None
    | Some consumers ->
        List.find_map
          (fun (st, i) ->
            if String.equal st.name module_name then Some (st, st.cells.(i - 1))
            else None)
          consumers

  let counts_row t ~module_name ~target =
    Option.map
      (fun (_, row) -> Array.map (fun c -> (c.n_err, c.n_inj)) row)
      (find_row t ~module_name ~target)

  (* Counters are commutative, so folding a cached row in before (or
     after) live outcomes is equivalent to having observed the runs
     that produced it. *)
  let seed_row t ~module_name ~target counts =
    match find_row t ~module_name ~target with
    | None ->
        invalid_arg
          (Printf.sprintf "Stream.seed_row: module %S has no input %S"
             module_name target)
    | Some (st, row) ->
        if Array.length counts <> Array.length row then
          invalid_arg
            (Printf.sprintf
               "Stream.seed_row: %S/%S expects %d outputs, got %d" module_name
               target (Array.length row) (Array.length counts));
        Array.iteri
          (fun k (n_err, n_inj) ->
            if n_err < 0 || n_err > n_inj then
              invalid_arg "Stream.seed_row: counts must satisfy 0 <= err <= inj";
            row.(k).n_err <- row.(k).n_err + n_err;
            row.(k).n_inj <- row.(k).n_inj + n_inj)
          counts;
        st.cached <- None;
        t.dirty <- SS.add st.name t.dirty

  let runs_observed t = t.runs

  (* The widest Wilson interval over the cells one target feeds — the
     budget planner's uncertainty score for the target.  0 when no
     module consumes it (more runs there cannot narrow anything). *)
  let target_width t ~target =
    match Hashtbl.find_opt t.by_target target with
    | None -> 0.0
    | Some consumers ->
        List.fold_left
          (fun acc (st, i) ->
            Array.fold_left
              (fun acc cell ->
                let lo, hi =
                  Propagation.Estimate.wilson_interval ~errors:cell.n_err
                    ~trials:cell.n_inj
                in
                Float.max acc (hi -. lo))
              acc
              st.cells.(i - 1))
          0.0 consumers

  (* Only the pairs a campaign's targets actually exercise: pairs no
     target reaches stay at the zero-trial width of 1 forever and would
     make [`Ci_width] unreachable. *)
  let max_width ~targets t =
    List.fold_left
      (fun acc target -> Float.max acc (target_width t ~target))
      0.0 targets
end

let estimate_all ?window_ms ~model results =
  let missing =
    List.concat_map
      (fun m ->
        List.filter_map
          (fun s ->
            let name = Propagation.Signal.name s in
            if Results.injections_into results name = 0 then Some name
            else None)
          (Propagation.Sw_module.input_signals m))
      (Propagation.System_model.modules model)
  in
  match List.sort_uniq String.compare missing with
  | [] ->
      let stream = Stream.create ?window_ms ~model () in
      List.iter (Stream.observe stream) (Results.outcomes results);
      Ok (Stream.matrices stream)
  | missing ->
      Error
        (Printf.sprintf "campaign never injected into: %s"
           (String.concat ", " missing))
