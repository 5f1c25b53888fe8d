(* Deterministic unit draw from (seed, trial, pair); SplitMix64
   finaliser over the structural hash. *)
let unit_draw ~seed ~trial (pair : Perm_graph.pair) =
  let h =
    Hashtbl.hash (seed, trial, pair.module_name, pair.input, pair.output)
  in
  let z = Int64.add (Int64.of_int h) 0x9E3779B97F4A7C15L in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0

(* The graph as integers, resolved once per call: for every signal
   (by index), the pairs it feeds that can transmit at all, each with
   its draw key, its permeability and the index of its output signal. *)
type edge = { pair : Perm_graph.pair; p : float; dest : int }

let adjacency graph =
  let model = Perm_graph.model graph in
  let signals = Array.of_list (System_model.signals model) in
  let index = Hashtbl.create (Array.length signals) in
  Array.iteri (fun i s -> Hashtbl.replace index (Signal.name s) i) signals;
  let index_of s = Hashtbl.find index (Signal.name s) in
  let edges signal =
    List.concat_map
      (fun (m, i) ->
        let name = Sw_module.name m in
        let matrix = Perm_graph.matrix graph name in
        List.filter_map
          (fun k ->
            let p = Perm_matrix.get matrix ~input:i ~output:k in
            if p > 0.0 then
              Some
                {
                  pair = { Perm_graph.module_name = name; input = i; output = k };
                  p;
                  dest = index_of (Sw_module.output_signal m k);
                }
            else None)
          (List.init (Sw_module.output_count m) succ))
      (System_model.consumers model signal)
  in
  (index_of, Array.map (fun s -> Array.of_list (edges s)) signals)

(* One trial: spread the corruption breadth-first from [source]; every
   signal is corrupted at most once.  Whether [target] gets corrupted
   does not depend on the visiting order (each pair's draw is fixed by
   the trial), so the trial ends as soon as it is.  [corrupted] is all
   [false] on entry and on exit; [queue] has one slot per signal. *)
let trial_reaches edges ~seed ~trial ~source ~target ~corrupted ~queue =
  corrupted.(source) <- true;
  queue.(0) <- source;
  let head = ref 0 and tail = ref 1 and reached = ref (source = target) in
  while (not !reached) && !head < !tail do
    let out = edges.(queue.(!head)) in
    incr head;
    for e = 0 to Array.length out - 1 do
      let { pair; p; dest } = out.(e) in
      if (not corrupted.(dest)) && unit_draw ~seed ~trial pair < p then begin
        corrupted.(dest) <- true;
        queue.(!tail) <- dest;
        incr tail;
        if dest = target then reached := true
      end
    done
  done;
  for i = 0 to !tail - 1 do
    corrupted.(queue.(i)) <- false
  done;
  !reached

let arrival_probability ?(trials = 10_000) ~seed graph ~input ~output =
  if trials < 1 then invalid_arg "Monte_carlo: trials must be >= 1";
  let model = Perm_graph.model graph in
  if not (System_model.is_system_input model input) then
    invalid_arg
      (Fmt.str "Monte_carlo: %a is not a system input" Signal.pp input);
  if not (System_model.is_system_output model output) then
    invalid_arg
      (Fmt.str "Monte_carlo: %a is not a system output" Signal.pp output);
  let index_of, edges = adjacency graph in
  let source = index_of input and target = index_of output in
  let corrupted = Array.make (Array.length edges) false in
  let queue = Array.make (Array.length edges) 0 in
  let hits = ref 0 in
  for trial = 0 to trials - 1 do
    if trial_reaches edges ~seed ~trial ~source ~target ~corrupted ~queue then
      incr hits
  done;
  float_of_int !hits /. float_of_int trials

let arrival_matrix ?trials ~seed graph =
  let model = Perm_graph.model graph in
  Perm_matrix.of_rows
    (Array.of_list
       (List.map
          (fun input ->
            Array.of_list
              (List.map
                 (fun output ->
                   arrival_probability ?trials ~seed graph ~input ~output)
                 (System_model.system_outputs model)))
          (System_model.system_inputs model)))
