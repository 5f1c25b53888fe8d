(* Geometry and sensing *)
let pulses_per_metre = 10.0
let tcnt_ticks_per_ms = 100
let runway_length_m = 335.0
let checkpoint_pulses = [| 200; 600; 1100; 1700; 2400; 3200 |]

(* Hydraulics *)
let pressure_full_scale = 60_000
let max_brake_force_n = 450_000.0
let base_friction_n = 6_000.0
let valve_time_constant_ms = 60.0
let toc2_shift = 4

(* Controller *)
let initial_set_value = 12_000
let slow_speed_set_value = 5_000
let kp_num = 1
let kp_den = 2
let ki_num = 1
let ki_den = 8
let integrator_limit = 100_000

(* Detection thresholds (DIST_S) *)
let slow_speed_gap_ticks = 2_000
let slow_speed_debounce_ms = 0
let stopped_debounce_ms = 400

(* Sensor conditioning (PRES_S) *)
let pres_spike_limit = 8_000

(* Run control *)
let stop_velocity_mps = 0.05
let finished_hold_ms = 600
