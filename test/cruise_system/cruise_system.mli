(** A second closed-loop target: an automotive cruise controller.

    The paper motivates its framework with "consumer-based
    cost-sensitive systems, such as cars" (Section 1) and lists
    workload/error-model studies on "varied embedded software based
    systems" as future work (Section 9).  This target exercises exactly
    that: a three-module speed controller (sensor conditioning, setpoint
    shaping, PI regulation) closed over a vehicle plant, built entirely
    with {!Dataflow.Builder} — including the hardware-register clobbering
    semantics for the plant-refreshed speed sensor.

    Signals (all 16 bit, speeds in cm/s, throttle 0-4095):
    - [speed_adc] (plant -> SPEED_S): raw wheel-speed reading;
    - [target_knob] (stimulus -> SETPOINT): driver demand, a step from
      20 m/s to 30 m/s at 1 s;
    - [speed_flt] (SPEED_S -> REG): low-pass-filtered speed;
    - [setpoint] (SETPOINT -> REG): rate-limited demand;
    - [throttle] (REG -> plant): actuator command. *)

val system : Dataflow.Builder.t
val sut : Propane.Sut.t

val campaign : ?times:Simkernel.Sim_time.t list -> unit -> Propane.Campaign.t
(** Bit-flips on every block-input signal, default instants spread over
    the 3 s run. *)

val measure :
  ?seed:int64 ->
  unit ->
  Propagation.Perm_matrix.t Propagation.String_map.t

val mission_failed :
  golden:Propane.Trace_set.t -> run:Propane.Trace_set.t -> bool
(** Cruise service judgement: the final speed is more than 2 m/s away
    from the golden run's final speed. *)
