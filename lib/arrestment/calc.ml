module Store = Propane.Signal_store

type t = {
  pulscnt : Store.handle;
  mscnt : Store.handle;
  slow_speed : Store.handle;
  stopped : Store.handle;
  index : Store.handle;
  set_value : Store.handle;
  mutable last_cp_pulscnt : int;
  mutable last_cp_mscnt : int;
  mutable current_sv : int;
  mutable finished : bool;
}

let name = Propagation.Signal.name

let create store =
  {
    pulscnt = Store.handle store (name Signals.pulscnt);
    mscnt = Store.handle store (name Signals.mscnt);
    slow_speed = Store.handle store (name Signals.slow_speed);
    stopped = Store.handle store (name Signals.stopped);
    index = Store.handle store (name Signals.i);
    set_value = Store.handle store (name Signals.set_value);
    last_cp_pulscnt = 0;
    last_cp_mscnt = 0;
    current_sv = Params.initial_set_value;
    finished = false;
  }

let checkpoint_count = Array.length Params.checkpoint_pulses

(* Pressure set point for the deceleration that stops a nominal-mass
   aircraft within the remaining cable run-out.  Inlined, so its float
   arguments are never boxed and a step allocates nothing. *)
let[@inline] set_point ~velocity_mps ~position_m =
  let nominal_mass_kg = 14_000.0 in
  let target_m = Params.runway_length_m -. 5.0 in
  let remaining = Float.max 5.0 (target_m -. position_m) in
  let decel = velocity_mps *. velocity_mps /. (2.0 *. remaining) in
  let force = decel *. nominal_mass_kg in
  let raw =
    force /. Params.max_brake_force_n
    *. float_of_int Params.pressure_full_scale
  in
  max 2_000 (min Params.pressure_full_scale (int_of_float (Float.round raw)))

let step t =
  let pulscnt = Store.read_handle t.pulscnt in
  let mscnt = Store.read_handle t.mscnt in
  let slow_speed = Store.read_handle t.slow_speed in
  let stopped = Store.read_handle t.stopped in
  let index_raw = Store.read_handle t.index in
  (* The raw index is clamped for checkpoint lookup only; the stored
     signal keeps whatever value it has (the production code never
     sanitises its own state variable). *)
  let index = max 0 (min checkpoint_count index_raw) in
  if stopped = 1 then t.finished <- true;
  if t.finished then begin
    Store.write_handle t.index index_raw;
    Store.write_handle t.set_value 0
  end
  else begin
    (* Reported slow speed means the arrestment is in its final phase:
       checkpoint tracking is abandoned and the index fast-forwarded. *)
    let index, index_raw =
      if slow_speed = 1 then (checkpoint_count, checkpoint_count)
      else (index, index_raw)
    in
    let index_raw =
      if
        index < checkpoint_count
        && pulscnt >= Params.checkpoint_pulses.(index)
      then begin
        let dp = pulscnt - t.last_cp_pulscnt in
        let dt = (mscnt - t.last_cp_mscnt) land 0xFFFF in
        if dp > 0 && dt > 0 then begin
          let velocity_mps =
            float_of_int dp /. Params.pulses_per_metre
            /. (float_of_int dt /. 1000.0)
          in
          let position_m = float_of_int pulscnt /. Params.pulses_per_metre in
          t.current_sv <- set_point ~velocity_mps ~position_m
        end;
        t.last_cp_pulscnt <- pulscnt;
        t.last_cp_mscnt <- mscnt;
        index + 1
      end
      else index_raw
    in
    Store.write_handle t.index index_raw;
    let sv =
      if slow_speed = 1 then Params.slow_speed_set_value else t.current_sv
    in
    Store.write_handle t.set_value sv
  end

let descriptor =
  Propagation.Sw_module.make ~name:"CALC"
    ~inputs:
      [
        Signals.pulscnt;
        Signals.mscnt;
        Signals.slow_speed;
        Signals.stopped;
        Signals.i;
      ]
    ~outputs:[ Signals.i; Signals.set_value ]

type state = {
  s_last_cp_pulscnt : int;
  s_last_cp_mscnt : int;
  s_current_sv : int;
  s_finished : bool;
}

let save t =
  {
    s_last_cp_pulscnt = t.last_cp_pulscnt;
    s_last_cp_mscnt = t.last_cp_mscnt;
    s_current_sv = t.current_sv;
    s_finished = t.finished;
  }

let restore t s =
  t.last_cp_pulscnt <- s.s_last_cp_pulscnt;
  t.last_cp_mscnt <- s.s_last_cp_mscnt;
  t.current_sv <- s.s_current_sv;
  t.finished <- s.s_finished

let matches t s =
  t.last_cp_pulscnt = s.s_last_cp_pulscnt
  && t.last_cp_mscnt = s.s_last_cp_mscnt
  && t.current_sv = s.s_current_sv
  && Bool.equal t.finished s.s_finished
