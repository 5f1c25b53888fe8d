type t = {
  mass_kg : float;
  mutable x_m : float;
  mutable v_mps : float;
  mutable pressure : float;  (* applied, raw units *)
}

let create ~mass_kg ~velocity_mps =
  if not (mass_kg > 0.0) then invalid_arg "Physics.create: mass must be > 0";
  if not (velocity_mps > 0.0) then
    invalid_arg "Physics.create: velocity must be > 0";
  { mass_kg; x_m = 0.0; v_mps = velocity_mps; pressure = 0.0 }

let full_scale = float_of_int Params.pressure_full_scale

(* First-order valve lag, exact discretisation over one millisecond. *)
let alpha = 1.0 -. exp (-1.0 /. Params.valve_time_constant_ms)

let step_ms t ~commanded_pressure =
  let dt = 0.001 in
  let cmd =
    float_of_int
      (max 0 (min commanded_pressure Params.pressure_full_scale))
  in
  t.pressure <- t.pressure +. (alpha *. (cmd -. t.pressure));
  if t.v_mps > 0.0 then begin
    let brake = t.pressure /. full_scale *. Params.max_brake_force_n in
    let force = brake +. Params.base_friction_n in
    let v' = t.v_mps -. (force /. t.mass_kg *. dt) in
    t.v_mps <- (if v' < Params.stop_velocity_mps then 0.0 else v');
    t.x_m <- t.x_m +. (t.v_mps *. dt)
  end

let position_m t = t.x_m
let velocity_mps t = t.v_mps

let applied_pressure t =
  max 0 (min Params.pressure_full_scale (int_of_float (Float.round t.pressure)))

let total_pulses t = int_of_float (Float.floor (t.x_m *. Params.pulses_per_metre))
let at_rest t = t.v_mps <= 0.0
let overrun t = t.x_m > Params.runway_length_m

let pp ppf t =
  Fmt.pf ppf "x=%.1fm v=%.1fm/s p=%.0f" t.x_m t.v_mps t.pressure

type state = { s_x_m : float; s_v_mps : float; s_pressure : float }

let save t = { s_x_m = t.x_m; s_v_mps = t.v_mps; s_pressure = t.pressure }

let restore t s =
  t.x_m <- s.s_x_m;
  t.v_mps <- s.s_v_mps;
  t.pressure <- s.s_pressure
