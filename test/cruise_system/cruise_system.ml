module Builder = Dataflow.Builder
module Sig = Propagation.Signal

let speed_adc = Sig.make "speed_adc"
let target_knob = Sig.make "target_knob"
let speed_flt = Sig.make "speed_flt"
let setpoint = Sig.make "setpoint"
let throttle = Sig.make "throttle"

let speed_s =
  (* Exponential low-pass: one corrupted sample decays over ~4 ms. *)
  Builder.block ~name:"SPEED_S" ~inputs:[ speed_adc ]
    ~outputs:[ speed_flt ]
    (fun () ->
      let flt = ref 0 in
      fun inputs ->
        flt := ((3 * !flt) + inputs.(0)) / 4;
        [| !flt |])

let setpoint_block =
  (* Rate limiter: the demand moves at most 5 cm/s per ms, so a knob
     spike is chased only briefly — a containment wrapper in the
     paper's sense. *)
  Builder.block ~name:"SETPOINT" ~inputs:[ target_knob ]
    ~outputs:[ setpoint ]
    (fun () ->
      let current = ref 0 in
      fun inputs ->
        let demand = inputs.(0) in
        let step = max (-5) (min 5 (demand - !current)) in
        current := !current + step;
        [| !current |])

let regulator =
  Builder.block ~name:"REG" ~period_ms:5
    ~inputs:[ setpoint; speed_flt ]
    ~outputs:[ throttle ]
    (fun () ->
      let integ = ref 0 in
      fun inputs ->
        let err = inputs.(0) - inputs.(1) in
        integ := max (-200_000) (min 200_000 (!integ + err));
        let out = (err / 2) + (!integ / 64) in
        [| max 0 (min 4_095 out) |])

let vehicle =
  (* Longitudinal dynamics: thrust proportional to throttle, quadratic
     drag; speeds in cm/s, 1 ms steps. *)
  Builder.plant ~name:"VEHICLE" ~reads:[ throttle ]
    ~writes:[ speed_adc ]
    (fun () ->
      let v = ref 0.0 in
      fun reads ->
        let thrust = float_of_int reads.(0) *. 2.4 in
        let drag = 0.0008 *. !v *. Float.abs !v /. 100.0 in
        let accel_cms2 = thrust -. drag in
        v := Float.max 0.0 (!v +. (accel_cms2 *. 0.001));
        [| int_of_float (Float.round !v) |])

let knob_profile () ms = if ms < 1_000 then 2_000 else 3_000

let system =
  Builder.create_exn ~name:"cruise" ~duration_ms:3_000
    ~plants:[ vehicle ]
    ~blocks:[ speed_s; setpoint_block; regulator ]
    ~stimuli:[ Builder.stimulus target_knob knob_profile ]
    ()

let sut = Builder.sut system

let default_times =
  List.init 5 (fun j -> Simkernel.Sim_time.of_ms (500 * (j + 1)))

let campaign ?(times = default_times) () =
  Propane.Campaign.make ~name:"cruise"
    ~targets:(Builder.injection_targets system)
    ~testcases:[ Propane.Testcase.make ~id:"step" ~params:[] ]
    ~times
    ~errors:(Propane.Error_model.bit_flips ~width:16)

let measure ?(seed = 42L) () =
  let results = Propane.Runner.run ~config:(Propane.Runner.Config.make ~seed ()) sut (campaign ()) in
  match
    Propane.Estimator.estimate_all
      ~model:(Builder.model system)
      results
  with
  | Ok matrices -> matrices
  | Error msg -> failwith ("Cruise_system.measure: " ^ msg)

let mission_failed ~golden ~run =
  let final traces =
    Propane.Trace_set.get traces "speed_adc"
      (Propane.Trace_set.duration_ms traces - 1)
  in
  abs (final golden - final run) > 200
