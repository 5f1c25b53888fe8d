(** The environment simulator (paper Fig. 7).

    "An environment simulator used in experiments conducted on the real
    system was also ported, so the environment experienced by the real
    system and the desktop system was identical.  The simulator handles
    the rotating drum and the incoming aircraft."

    The environment owns the {!Physics} state and the hardware side of
    the signal store:

    - {!pre_step} (start of every millisecond, before the software
      runs): advances [TCNT], counts new drum pulses into [PACNT] and
      latches [TIC1];
    - {!post_step} (end of every millisecond): reads the [TOC2] PWM
      register, drives the valve and integrates the physics;
    - {!convert_adc} (called by PRES_S when it samples): performs the
      A/D conversion, writing the applied pressure into [ADC].  The
      conversion overwrites the register — which is why injected [ADC]
      corruption never reaches the software (paper OB3). *)

type t

val create : Propane.Signal_store.t -> mass_kg:float -> velocity_mps:float -> t
(** The store holds the hardware registers in
    {!Propane.Signal_store.Immediate} mode, as {!System} creates it: an
    injection then corrupts a register at once and never waits in a
    trap, so the environment's register reads fire none. *)

val pre_step : t -> unit
val post_step : t -> unit
val convert_adc : t -> unit

type state
(** The hardware-side counters and the physics, saved for
    {!Propane.Sut.state_hook}.  Register values live in the signal
    store and are saved with it. *)

val save : t -> state
val restore : t -> state -> unit

val matches : t -> state -> bool
(** [t]'s counters and physics equal [s]'s, floats by their bits. *)

val elapsed_ms : t -> int
val finished : t -> bool
(** The aircraft has been at rest for {!Params.finished_hold_ms}, or
    overran the runway. *)
