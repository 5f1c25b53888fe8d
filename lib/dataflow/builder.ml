type block = {
  descriptor : Propagation.Sw_module.t;
  period_ms : int;
  offset_ms : int;
  tag : string;
  factory : unit -> int array -> int array;
}

let block ~name ?(period_ms = 1) ?(offset_ms = 0) ?(tag = "") ~inputs ~outputs
    factory =
  if period_ms < 1 then invalid_arg "Builder.block: period must be >= 1";
  if offset_ms < 0 then invalid_arg "Builder.block: offset must be >= 0";
  {
    descriptor = Propagation.Sw_module.make ~name ~inputs ~outputs;
    period_ms;
    offset_ms;
    tag;
    factory;
  }

(* Content digest of a block: everything the builder knows about it —
   wiring, schedule, and the tag standing in for the transfer function
   (closures cannot be hashed; change the transfer, change the tag). *)
let block_digest b =
  let name = Propagation.Sw_module.name b.descriptor in
  let signals l = List.map Propagation.Signal.name l in
  ( name,
    Digest.to_hex
      (Digest.string
         (String.concat "\x1f"
            ([ "dataflow-block"; name;
               string_of_int b.period_ms; string_of_int b.offset_ms; b.tag ]
            @ signals (Propagation.Sw_module.input_signals b.descriptor)
            @ ("->" ::
               signals (Propagation.Sw_module.output_signals b.descriptor))))) )

type stimulus = {
  signal : Propagation.Signal.t;
  drive : unit -> int -> int;
}

let stimulus signal drive = { signal; drive }

let ramp ?(slope = 1) signal =
  { signal; drive = (fun () ms -> slope * ms) }

let constant value signal = { signal; drive = (fun () _ -> value) }

type plant = {
  plant_name : string;
  reads : Propagation.Signal.t list;
  writes : Propagation.Signal.t list;
  plant_factory : unit -> int array -> int array;
}

let plant ~name ~reads ~writes factory =
  if String.length name = 0 then invalid_arg "Builder.plant: empty name";
  if writes = [] then
    invalid_arg (Printf.sprintf "Builder.plant: plant %S writes nothing" name);
  { plant_name = name; reads; writes; plant_factory = factory }

type t = {
  name : string;
  duration_ms : int;
  blocks : block list;
  stimuli : stimulus list;
  plants : plant list;
  model : Propagation.System_model.t;
  layout : (string * int) list;  (* (signal, width), model order *)
  modes : (string * Propane.Signal_store.mode) list;
}

let ( let* ) = Result.bind

let derive_model blocks stimuli plants =
  let descriptors = List.map (fun b -> b.descriptor) blocks in
  let produced =
    List.fold_left
      (fun acc d ->
        List.fold_left
          (fun acc s -> Propagation.Signal.Set.add s acc)
          acc
          (Propagation.Sw_module.output_signals d))
      Propagation.Signal.Set.empty descriptors
  in
  let consumed =
    List.fold_left
      (fun acc d ->
        List.fold_left
          (fun acc s -> Propagation.Signal.Set.add s acc)
          acc
          (Propagation.Sw_module.input_signals d))
      Propagation.Signal.Set.empty descriptors
  in
  let stimulus_signals = List.map (fun s -> s.signal) stimuli in
  let* () =
    List.fold_left
      (fun acc s ->
        let* () = acc in
        if Propagation.Signal.Set.mem s produced then
          Error
            (Fmt.str "stimulus %a drives an internally produced signal"
               Propagation.Signal.pp s)
        else if not (Propagation.Signal.Set.mem s consumed) then
          Error
            (Fmt.str "stimulus %a drives a signal no block reads"
               Propagation.Signal.pp s)
        else Ok ())
      (Ok ()) stimulus_signals
  in
  let plant_writes = List.concat_map (fun p -> p.writes) plants in
  let* () =
    List.fold_left
      (fun acc s ->
        let* () = acc in
        if Propagation.Signal.Set.mem s produced then
          Error
            (Fmt.str "plant-written signal %a is also produced by a block"
               Propagation.Signal.pp s)
        else if not (Propagation.Signal.Set.mem s consumed) then
          Error
            (Fmt.str "plant-written signal %a is read by no block"
               Propagation.Signal.pp s)
        else Ok ())
      (Ok ()) plant_writes
  in
  let plant_reads = List.concat_map (fun p -> p.reads) plants in
  let* () =
    List.fold_left
      (fun acc s ->
        let* () = acc in
        if Propagation.Signal.Set.mem s produced then Ok ()
        else
          Error
            (Fmt.str "plant-read signal %a is produced by no block"
               Propagation.Signal.pp s))
      (Ok ()) plant_reads
  in
  let system_inputs = stimulus_signals @ plant_writes in
  let* () =
    let rec dup seen = function
      | [] -> Ok ()
      | s :: rest ->
          if Propagation.Signal.Set.mem s seen then
            Error
              (Fmt.str "signal %a is driven more than once"
                 Propagation.Signal.pp s)
          else dup (Propagation.Signal.Set.add s seen) rest
    in
    dup Propagation.Signal.Set.empty system_inputs
  in
  let system_outputs =
    Propagation.Signal.Set.elements
      (Propagation.Signal.Set.union
         (Propagation.Signal.Set.diff produced consumed)
         (Propagation.Signal.Set.of_list plant_reads))
  in
  let* () =
    if system_outputs = [] then
      Error "the system has no outputs (every produced signal is consumed)"
    else Ok ()
  in
  Result.map_error Propagation.System_model.error_to_string
    (Propagation.System_model.make ~modules:descriptors ~system_inputs
       ~system_outputs)

let create ?(name = "dataflow") ?(width = 16) ?(duration_ms = 1_000)
    ?(plants = []) ~blocks ~stimuli () =
  let* () = if blocks = [] then Error "no blocks" else Ok () in
  let* () =
    if duration_ms < 1 then Error "duration must be >= 1 ms" else Ok ()
  in
  let* model = derive_model blocks stimuli plants in
  let layout =
    List.map
      (fun s -> (Propagation.Signal.name s, width))
      (Propagation.System_model.signals model)
  in
  (* Plant-written signals are hardware registers: injections corrupt
     the cell immediately and the next refresh clobbers them. *)
  let modes =
    List.concat_map
      (fun p ->
        List.map
          (fun s -> (Propagation.Signal.name s, Propane.Signal_store.Immediate))
          p.writes)
      plants
  in
  Ok { name; duration_ms; blocks; stimuli; plants; model; layout; modes }

let create_exn ?name ?width ?duration_ms ?plants ~blocks ~stimuli () =
  match create ?name ?width ?duration_ms ?plants ~blocks ~stimuli () with
  | Ok t -> t
  | Error msg -> invalid_arg ("Builder.create_exn: " ^ msg)

let model t = t.model
let duration_ms t = t.duration_ms

let injection_targets t =
  List.sort_uniq String.compare
    (List.concat_map
       (fun b ->
         List.map Propagation.Signal.name
           (Propagation.Sw_module.input_signals b.descriptor))
       t.blocks)

(* One transfer call: read [inputs] through the trap layer into [buf],
   apply [f], store its results through [store_output].  [buf] is the
   same array on every call, so [f] must not keep it. *)
let transfer ~what ~name f ~inputs ~outputs store_output =
  let buf = Array.make (Array.length inputs) 0 in
  fun () ->
    for i = 0 to Array.length inputs - 1 do
      buf.(i) <- Propane.Signal_store.read_handle inputs.(i)
    done;
    let results = f buf in
    if Array.length results <> Array.length outputs then
      invalid_arg
        (Printf.sprintf "Builder: %s %S produced %d outputs, expected %d" what
           name (Array.length results) (Array.length outputs));
    for k = 0 to Array.length outputs - 1 do
      store_output outputs.(k) results.(k)
    done

let instantiate t _testcase =
  let store = Propane.Signal_store.create ~modes:t.modes ~signals:t.layout () in
  let handle s = Propane.Signal_store.handle store (Propagation.Signal.name s) in
  let handles signals = Array.of_list (List.map handle signals) in
  let drives =
    Array.of_list
      (List.map
         (fun s ->
           let h = handle s.signal and drive = s.drive () in
           fun ms -> Propane.Signal_store.write_handle h (drive ms))
         t.stimuli)
  in
  let plants =
    Array.of_list
      (List.map
         (fun p ->
           transfer ~what:"plant" ~name:p.plant_name (p.plant_factory ())
             ~inputs:(handles p.reads) ~outputs:(handles p.writes)
             Propane.Signal_store.poke_handle)
         t.plants)
  in
  let blocks =
    Array.of_list
      (List.map
         (fun b ->
           let fire =
             transfer ~what:"block"
               ~name:(Propagation.Sw_module.name b.descriptor)
               (b.factory ())
               ~inputs:
                 (handles (Propagation.Sw_module.input_signals b.descriptor))
               ~outputs:
                 (handles (Propagation.Sw_module.output_signals b.descriptor))
               Propane.Signal_store.write_handle
           in
           (b, fire))
         t.blocks)
  in
  let ms = ref 0 in
  let peek_handles =
    Array.of_list
      (List.map (fun (name, _) -> Propane.Signal_store.handle store name)
         t.layout)
  in
  {
    Propane.Sut.read = Propane.Signal_store.peek store;
    write = Propane.Signal_store.poke store;
    inject = Propane.Signal_store.inject store;
    step =
      (fun () ->
        let now = !ms in
        for i = 0 to Array.length plants - 1 do plants.(i) () done;
        for i = 0 to Array.length drives - 1 do drives.(i) now done;
        for i = 0 to Array.length blocks - 1 do
          let b, fire = blocks.(i) in
          if now >= b.offset_ms && (now - b.offset_ms) mod b.period_ms = 0 then
            fire ()
        done;
        ms := now + 1);
    finished = (fun () -> !ms >= t.duration_ms);
    snapshot =
      Some
        (fun buf ->
          for i = 0 to Array.length peek_handles - 1 do
            buf.(i) <- Propane.Signal_store.peek_handle peek_handles.(i)
          done);
    (* Block, plant and stimulus closures hold opaque state. *)
    state_hook = None;
  }

let sut ?fault t =
  let sut =
    {
      Propane.Sut.name = t.name;
      signals = t.layout;
      digests = List.map block_digest t.blocks;
      instantiate = instantiate t;
    }
  in
  match fault with None -> sut | Some spec -> Propane.Fault.apply spec sut

(* ----------------------- synthetic systems ------------------------ *)

(* A layered random SUT for scale studies and service benchmarks: big
   enough to make scheduling and analysis work honest, deterministic
   enough (SplitMix64 all the way down) that two services, or a service
   and a serial run, build bit-identical systems from the same seed. *)
let synthetic ?(width = 16) ?(duration_ms = 200) ~modules ~fan_in ~fan_out
    ~feedback ~seed () =
  if modules < 1 then invalid_arg "Builder.synthetic: modules must be >= 1";
  if fan_in < 1 then invalid_arg "Builder.synthetic: fan_in must be >= 1";
  if fan_out < 1 then invalid_arg "Builder.synthetic: fan_out must be >= 1";
  if feedback < 0 then invalid_arg "Builder.synthetic: feedback must be >= 0";
  let rng = Simkernel.Rng.create seed in
  let wiring_rng = Simkernel.Rng.split rng in
  let mask = (1 lsl width) - 1 in
  let stim_signals =
    List.init fan_in (fun i -> Propagation.Signal.make (Printf.sprintf "stim%d" i))
  in
  let stimuli =
    List.map
      (fun s ->
        let slope = 1 + Simkernel.Rng.int rng 7 in
        let phase = Simkernel.Rng.int rng mask in
        stimulus s (fun () ms -> (phase + (slope * ms)) land mask))
      stim_signals
  in
  (* Wiring plan first, blocks second: feedback edges splice extra
     inputs into earlier blocks, so input lists are only final once the
     whole plan exists. *)
  let outputs =
    Array.init modules (fun i ->
        List.init fan_out (fun j ->
            Propagation.Signal.make (Printf.sprintf "m%d_o%d" i j)))
  in
  let inputs =
    Array.init modules (fun i ->
        let pool =
          stim_signals @ List.concat (List.init i (fun k -> outputs.(k)))
        in
        (* [fan_in] distinct draws — or the whole pool if it is smaller. *)
        let rec draw chosen n =
          if n = 0 || List.length chosen >= List.length pool then
            List.rev chosen
          else begin
            let s = Simkernel.Rng.pick wiring_rng pool in
            if List.exists (Propagation.Signal.equal s) chosen then
              draw chosen n
            else draw (s :: chosen) (n - 1)
          end
        in
        draw [] fan_in)
  in
  (* Feedback: an earlier block also consumes a later block's output.
     The final block never feeds back — its outputs must stay
     unconsumed so the derived model keeps its system outputs. *)
  if feedback > 0 && modules >= 3 then
    for _ = 1 to feedback do
      let consumer = Simkernel.Rng.int wiring_rng (modules - 2) in
      let producer =
        consumer + 1 + Simkernel.Rng.int wiring_rng (modules - 2 - consumer)
      in
      let s = Simkernel.Rng.pick wiring_rng outputs.(producer) in
      if
        not
          (List.exists (Propagation.Signal.equal s) inputs.(consumer))
      then inputs.(consumer) <- inputs.(consumer) @ [ s ]
    done;
  let blocks =
    List.init modules (fun i ->
        let block_rng = Simkernel.Rng.split rng in
        let n_in = List.length inputs.(i) in
        let shifts =
          Array.init (fan_out * n_in) (fun _ ->
              Simkernel.Rng.int block_rng (max 1 (width - 1)))
        in
        let salts =
          Array.init fan_out (fun _ -> Simkernel.Rng.int block_rng mask)
        in
        let period_ms = Simkernel.Rng.pick block_rng [ 1; 2; 4 ] in
        let offset_ms = Simkernel.Rng.int block_rng period_ms in
        block
          ~name:(Printf.sprintf "M%d" i)
          ~period_ms ~offset_ms
          ~tag:(Printf.sprintf "synthetic:%Ld:%d" seed i)
          ~inputs:inputs.(i) ~outputs:outputs.(i)
          (fun () ->
            let acc = ref 0 in
            fun ins ->
              (* Decaying accumulator so corruption lingers a few
                 periods, then washes out — gives the analysis
                 non-trivial temporal structure. *)
              acc :=
                (!acc / 2)
                + Array.fold_left ( + ) 0 ins
                  land mask;
              Array.init fan_out (fun j ->
                  let v =
                    Array.to_list ins
                    |> List.mapi (fun k x ->
                           x lsl shifts.((j * n_in) + k) land mask)
                    |> List.fold_left ( lxor ) salts.(j)
                  in
                  (v + (!acc lsr 3)) land mask)))
  in
  create_exn
    ~name:(Printf.sprintf "synthetic-%d" modules)
    ~width ~duration_ms ~blocks ~stimuli ()
