(** DIST_S — "receives [PACNT] and [TIC1] from the rotation sensor and
    [TCNT] from the hardware counter modules ...  provides a total count
    of the pulses, [pulscnt], generated during the arrestment.  It also
    provides two boolean values, [slow_speed] and [stopped].
    Period = 1 ms."

    - [pulscnt] accumulates the wrapping [PACNT] deltas;
    - [slow_speed] fires when the latest pulse gap ([TCNT - TIC1],
      wrapping) exceeds {!Params.slow_speed_gap_ticks} — but only after
      the first pulse has been seen;
    - [stopped] fires when no pulse has arrived for
      {!Params.stopped_debounce_ms} consecutive milliseconds.  The
      pulse-presence counter makes it immune to value errors on the
      sensor inputs — a bit flip yields a {e non-zero} delta and resets
      the counter — which reproduces the paper's OB2: all permeabilities
      into [stopped] are zero because "although injected errors can
      alter the perceived velocity, it is hard to make it zero". *)

type t

val create : Propane.Signal_store.t -> t
val step : t -> unit

type state
(** The pulse-counting variables and the window ring, saved for
    {!Propane.Sut.state_hook}.  Immutable: saving copies, restoring
    copies back. *)

val save : t -> state
val restore : t -> state -> unit

val descriptor : Propagation.Sw_module.t
(** inputs [PACNT; TIC1; TCNT]; outputs [pulscnt; slow_speed; stopped]. *)
