(** V_REG — the valve regulator: tracks the CALC set point against the
    measured pressure.  Period = 7 ms.

    A PI loop with set-point feed-forward: [OutValue = SetValue +
    Kp * err + Ki * integ] with [err = SetValue - InValue], integrator
    anti-windup at {!Params.integrator_limit} and output clamped to the
    pressure range.  A single corrupted input sample shifts the
    integrator persistently, which is why the paper estimates high
    permeability for both V_REG pairs (0.884 and 0.920 in Table 1). *)

type t

val create : Propane.Signal_store.t -> t
val step : t -> unit

type state
(** The PI integrator, saved for {!Propane.Sut.state_hook}.
    Immutable: saving copies, restoring copies back. *)

val save : t -> state
val restore : t -> state -> unit

val descriptor : Propagation.Sw_module.t
(** inputs [SetValue; InValue]; outputs [OutValue]. *)
