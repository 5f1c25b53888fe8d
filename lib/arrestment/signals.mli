(** Signal inventory of the target system (paper Fig. 8).

    All fourteen signals of the arrestment controller, named exactly as
    in the paper.  Every signal is 16 bits wide (Section 7.3).  The
    [Propagation.Signal.t] values carry placement-relevant kinds:
    [TOC2] is a hardware register (OB4 excludes it from ERM placement)
    and the clock outputs are time-base signals. *)

val width : int
(** 16 — "the input signals were all 16 bits wide". *)

(** {1 System inputs (sensor-side hardware registers)} *)

val pacnt : Propagation.Signal.t
(** [PACNT] — hardware pulse-counter register fed by the drum tooth
    wheel; wraps at 2^16. *)

val tic1 : Propagation.Signal.t
(** [TIC1] — input-capture register: value of [TCNT] latched at the
    most recent drum pulse. *)

val tcnt : Propagation.Signal.t
(** [TCNT] — free-running 16-bit timer (100 ticks per millisecond). *)

val adc : Propagation.Signal.t
(** [ADC] — A/D conversion of the hydraulic pressure actually applied
    by the valves. *)

(** {1 Internal signals} *)

val mscnt : Propagation.Signal.t
(** millisecond clock provided by CLOCK. *)

val ms_slot_nbr : Propagation.Signal.t
(** current execution slot (0-6); CLOCK output fed back to itself and
    read by the module scheduler. *)

val pulscnt : Propagation.Signal.t
(** total drum pulses since the start of the arrestment (DIST_S). *)

val slow_speed : Propagation.Signal.t
(** boolean: velocity below threshold (DIST_S). *)

val stopped : Propagation.Signal.t
(** boolean: drum has stopped (DIST_S). *)

val i : Propagation.Signal.t
(** current checkpoint index 0-6 (CALC, module-local feedback). *)

val set_value : Propagation.Signal.t
(** [SetValue] — pressure set point computed by CALC. *)

val in_value : Propagation.Signal.t
(** [InValue] — conditioned measured pressure (PRES_S). *)

val out_value : Propagation.Signal.t
(** [OutValue] — valve command computed by V_REG. *)

(** {1 System output} *)

val toc2 : Propagation.Signal.t
(** [TOC2] — output-compare (PWM) hardware register driving the
    pressure valves. *)

val store_layout : (string * int) list
(** [(name, width)] for {!Propane.Signal_store.create}. *)

val system_inputs : Propagation.Signal.t list
val system_outputs : Propagation.Signal.t list
