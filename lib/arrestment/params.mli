(** Physical and controller constants of the arrestment system.

    The original constants are proprietary (the system is built to the
    specification of [19], a military arresting-gear standard); these
    values are chosen so the closed loop reproduces the paper's
    experimental envelope: aircraft of 8,000-20,000 kg engaging at
    40-80 m/s are brought to rest within the runway in roughly 6-16 s,
    comfortably bracketing the 0.5-5.0 s injection window of Section
    7.3. *)

(** {1 Geometry and sensing} *)

val pulses_per_metre : float
(** tooth-wheel resolution of the rotation sensor. *)

val tcnt_ticks_per_ms : int
(** free-running timer rate (100 ticks/ms, i.e. 100 kHz). *)

val runway_length_m : float
(** cable run-out available for the arrestment. *)

val checkpoint_pulses : int array
(** the six predefined [pulscnt] checkpoints of CALC. *)

(** {1 Hydraulics} *)

val pressure_full_scale : int
(** pressure signals ([SetValue], [InValue], [OutValue]) use raw units
    0 .. [pressure_full_scale]. *)

val max_brake_force_n : float
(** cable tension at full pressure. *)

val base_friction_n : float
(** pressure-independent drag (sheaves, tape drag). *)

val valve_time_constant_ms : float
(** first-order lag of the hydraulic valve. *)

val toc2_shift : int
(** PRES_A writes [TOC2 = OutValue >> toc2_shift] (12-bit PWM). *)

(** {1 Controller} *)

val initial_set_value : int
(** set point before the first checkpoint. *)

val slow_speed_set_value : int
(** set point once [slow_speed] is reported. *)

val kp_num : int
val kp_den : int
(** proportional gain [kp_num/kp_den] of V_REG. *)

val ki_num : int
val ki_den : int
(** integral gain of V_REG. *)

val integrator_limit : int
(** anti-windup clamp for the V_REG integrator. *)

(** {1 Detection thresholds (DIST_S)} *)

val slow_speed_gap_ticks : int
(** a pulse gap longer than this (in TCNT ticks) means "slow". *)

val slow_speed_debounce_ms : int
(** consecutive milliseconds the gap must persist. *)

val stopped_debounce_ms : int

(** {1 Sensor conditioning (PRES_S)} *)

val pres_spike_limit : int
(** an [ADC] step larger than this per 7 ms sample is rejected as a
    spike and the previous conditioned value is held. *)

(** {1 Run control} *)

val stop_velocity_mps : float
(** below this the aircraft is considered at rest. *)

val finished_hold_ms : int
(** the run ends this long after the velocity first reaches zero. *)
