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
   (by index), the pairs that write it and can transmit at all, each
   with its draw key, its permeability and the index of its input
   signal. *)
type edge = { pair : Perm_graph.pair; p : float; src : int }

let writers graph ~index_of ~signal_count =
  let into = Array.make signal_count [] in
  List.iter
    (fun m ->
      let name = Sw_module.name m in
      let matrix = Perm_graph.matrix graph name in
      for k = 1 to Sw_module.output_count m do
        let dest = index_of (Sw_module.output_signal m k) in
        for i = 1 to Sw_module.input_count m do
          let p = Perm_matrix.get matrix ~input:i ~output:k in
          if p > 0.0 then
            into.(dest) <-
              {
                pair = { Perm_graph.module_name = name; input = i; output = k };
                p;
                src = index_of (Sw_module.input_signal m i);
              }
              :: into.(dest)
        done
      done)
    (System_model.modules (Perm_graph.model graph));
  Array.map Array.of_list into

(* One trial, read backwards: mark [output], then every signal whose
   error reaches a marked signal through a transmitting pair.  A pair
   is drawn at most once and its draw is fixed by the trial, so the
   marked signals are exactly those from which a forward spread with
   the same draws reaches [output].  Returns the number of marked
   signals, which [queue] lists; [marked] is all [false] on entry. *)
let spread writers ~seed ~trial ~output ~marked ~queue =
  marked.(output) <- true;
  queue.(0) <- output;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let into = writers.(queue.(!head)) in
    incr head;
    for e = 0 to Array.length into - 1 do
      let { pair; p; src } = into.(e) in
      if (not marked.(src)) && unit_draw ~seed ~trial pair < p then begin
        marked.(src) <- true;
        queue.(!tail) <- src;
        incr tail
      end
    done
  done;
  !tail

let arrival_matrix ?(trials = 10_000) ~seed graph ~sources =
  if trials < 1 then invalid_arg "Monte_carlo: trials must be >= 1";
  if sources = [] then invalid_arg "Monte_carlo: no sources";
  let model = Perm_graph.model graph in
  let signals = Array.of_list (System_model.signals model) in
  let index = Hashtbl.create (Array.length signals) in
  Array.iteri (fun i s -> Hashtbl.replace index (Signal.name s) i) signals;
  let index_of s =
    match Hashtbl.find_opt index (Signal.name s) with
    | Some i -> i
    | None ->
        invalid_arg
          (Fmt.str "Monte_carlo: %a is not a signal of the model" Signal.pp s)
  in
  let rows = Array.of_list (List.map index_of sources) in
  let outputs =
    Array.of_list (List.map index_of (System_model.system_outputs model))
  in
  let signal_count = Array.length signals in
  let writers = writers graph ~index_of ~signal_count in
  let marked = Array.make signal_count false in
  let queue = Array.make signal_count 0 in
  let hits = Array.make_matrix (Array.length rows) (Array.length outputs) 0 in
  for trial = 0 to trials - 1 do
    Array.iteri
      (fun c output ->
        let n = spread writers ~seed ~trial ~output ~marked ~queue in
        Array.iteri
          (fun r source ->
            if marked.(source) then hits.(r).(c) <- hits.(r).(c) + 1)
          rows;
        for i = 0 to n - 1 do
          marked.(queue.(i)) <- false
        done)
      outputs
  done;
  Perm_matrix.of_rows
    (Array.map
       (Array.map (fun h -> float_of_int h /. float_of_int trials))
       hits)
