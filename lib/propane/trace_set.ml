module String_map = Map.Make (String)

type t = {
  order : string list;
  ordered_traces : Trace.t array;  (* creation order, for fast sampling *)
  traces : Trace.t String_map.t;
  mutable duration : int;
}

let create ~signals () =
  if signals = [] then invalid_arg "Trace_set.create: no signals";
  let traces =
    List.fold_left
      (fun acc s ->
        if String.length s = 0 then
          invalid_arg "Trace_set.create: empty signal name"
        else if String_map.mem s acc then
          invalid_arg
            (Printf.sprintf "Trace_set.create: duplicate signal %S" s)
        else String_map.add s (Trace.create ~signal:s ()) acc)
      String_map.empty signals
  in
  let ordered_traces =
    Array.of_list (List.map (fun s -> String_map.find s traces) signals)
  in
  { order = signals; ordered_traces; traces; duration = 0 }

let signals t = t.order

let sample t read =
  Array.iter (fun tr -> Trace.push tr (read (Trace.signal tr))) t.ordered_traces;
  t.duration <- t.duration + 1

let sample_array t values =
  if Array.length values <> Array.length t.ordered_traces then
    invalid_arg
      (Printf.sprintf "Trace_set.sample_array: %d values for %d signals"
         (Array.length values)
         (Array.length t.ordered_traces));
  Array.iteri (fun i tr -> Trace.push tr values.(i)) t.ordered_traces;
  t.duration <- t.duration + 1

let duration_ms t = t.duration
let trace t s = String_map.find s t.traces
let find_trace t s = String_map.find_opt s t.traces
