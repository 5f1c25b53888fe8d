type target_state = {
  target : string;
  cells : Cell.t list;
  entries : (Cell.t * Cache.entry) list;  (* loaded rows when clean *)
  clean : bool;
}

type t = {
  dir : string;
  campaign : Campaign.t;
  model : Propagation.System_model.t;
  states : target_state list;  (* campaign target order *)
  selected : bool array;  (* per target, campaign order *)
}

let plan ?(recipe = "") ~sut ~model ~dir campaign =
  let cell_plan = Cell.plan ~sut ~model ~recipe campaign in
  let states =
    List.map
      (fun (target, cells) ->
        (* One miss dirties the whole target: its runs re-execute and
           refresh every cell they feed, hit or not. *)
        let entries =
          List.filter_map
            (fun (cell : Cell.t) ->
              match cell.Cell.digest with
              | None -> None
              | Some _ -> (
                  match Cache.load ~dir ~key:cell.Cell.key with
                  | Some entry
                    when String.equal entry.Cache.module_name
                           cell.Cell.module_name
                         && String.equal entry.Cache.target cell.Cell.target
                         && Array.length entry.Cache.outputs
                            = Array.length cell.Cell.outputs
                         && Array.for_all2 String.equal entry.Cache.outputs
                              cell.Cell.outputs ->
                      Some (cell, entry)
                  | _ -> None))
            cells
        in
        let clean = List.length entries = List.length cells in
        { target; cells; entries = (if clean then entries else []); clean })
      cell_plan.Cell.by_target
  in
  {
    dir;
    campaign;
    model;
    states;
    selected = Array.of_list (List.map (fun st -> not st.clean) states);
  }

let total_cells t =
  List.fold_left (fun acc st -> acc + List.length st.cells) 0 t.states

let reused_cells t =
  List.fold_left
    (fun acc st -> if st.clean then acc + List.length st.cells else acc)
    0 t.states

let clean_targets t =
  List.filter_map
    (fun st -> if st.clean then Some st.target else None)
    t.states

let dirty_targets t =
  List.filter_map
    (fun st -> if st.clean then None else Some st.target)
    t.states

let selected_runs t =
  List.length (dirty_targets t) * Campaign.runs_per_target t.campaign

(* Experiments are targets-major ({!Campaign.experiments}): index
   [idx] injects into target number [idx / runs_per_target]. *)
let select t =
  let rpt = Campaign.runs_per_target t.campaign in
  fun idx -> idx >= 0 && idx / rpt < Array.length t.selected
             && t.selected.(idx / rpt)

let journal_cells t =
  List.concat_map
    (fun st ->
      List.map
        (fun (cell : Cell.t) ->
          {
            Journal.target = cell.Cell.target;
            module_name = cell.Cell.module_name;
            key = cell.Cell.key;
            reused = st.clean;
          })
        st.cells)
    t.states

let compose ?window_ms t results =
  let stream = Estimator.Stream.create ?window_ms ~model:t.model () in
  List.iter
    (fun st ->
      List.iter
        (fun ((cell : Cell.t), entry) ->
          Estimator.Stream.seed_row stream ~module_name:cell.Cell.module_name
            ~target:cell.Cell.target entry.Cache.counts)
        st.entries)
    t.states;
  List.iter (Estimator.Stream.observe stream) (Results.outcomes results);
  stream

let persist t stream results =
  let rpt = Campaign.runs_per_target t.campaign in
  List.fold_left
    (fun acc st ->
      if st.clean || Results.injections_into results st.target <> rpt then acc
      else
        List.fold_left
          (fun acc (cell : Cell.t) ->
            match (acc, cell.Cell.digest) with
            | (Error _ as e), _ -> e
            | Ok (), None -> Ok ()
            | Ok (), Some _ -> (
                match
                  Estimator.Stream.counts_row stream
                    ~module_name:cell.Cell.module_name
                    ~target:cell.Cell.target
                with
                | None -> Ok ()
                | Some counts ->
                    Cache.store ~dir:t.dir ~key:cell.Cell.key
                      {
                        Cache.module_name = cell.Cell.module_name;
                        target = cell.Cell.target;
                        outputs = cell.Cell.outputs;
                        counts;
                      }))
          acc st.cells)
    (Ok ()) t.states

let stats t =
  let total = total_cells t in
  let reused = reused_cells t in
  {
    Cache.cells = total;
    reused;
    fresh = total - reused;
    runs_total = Campaign.size t.campaign;
    runs_selected = selected_runs t;
  }

let write_stats t = Cache.write_stats ~dir:t.dir (stats t)
