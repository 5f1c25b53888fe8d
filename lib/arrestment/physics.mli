(** Continuous dynamics of the arrestment (aircraft, cable, drum,
    hydraulic valve).

    The incoming aircraft engages the cable at velocity [v0]; the
    hydraulic brake on the rotating drum applies a retarding force
    proportional to the applied pressure; the tooth wheel on the drum
    emits {!Params.pulses_per_metre} pulses per metre of cable run-out.
    Integration is explicit Euler at 1 ms, which is ample for a system
    whose fastest time constant is the 60 ms valve lag. *)

type t

val create : mass_kg:float -> velocity_mps:float -> t
(** @raise Invalid_argument unless both are positive. *)

val step_ms : t -> commanded_pressure:int -> unit
(** Advance 1 ms.  [commanded_pressure] is in raw pressure units
    (0 .. {!Params.pressure_full_scale}); the applied pressure follows
    it through the valve's first-order lag. *)

type state
(** Position, velocity and applied pressure, saved for
    {!Propane.Sut.state_hook}.  The mass is a test-case constant and
    is not part of it. *)

val save : t -> state
val restore : t -> state -> unit

val position_m : t -> float
val velocity_mps : t -> float
val applied_pressure : t -> int
(** Raw units, rounded — what the A/D converter digitises. *)

val total_pulses : t -> int
(** Drum pulses emitted since engagement ([floor (x * ppm)]). *)

val at_rest : t -> bool
(** Velocity has reached {!Params.stop_velocity_mps}. *)

val overrun : t -> bool
(** The aircraft ran past the available cable. *)

val pp : Format.formatter -> t -> unit
