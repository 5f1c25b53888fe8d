(** CALC — "uses [mscnt], [pulscnt], [slow_speed] and [stopped] to
    calculate a set point value for the pressure valves, [SetValue], at
    six predefined checkpoints along the runway.  The checkpoints are
    detected by comparing the current [pulscnt] with pre-defined
    [pulscnt]-values ...  The current checkpoint is stored in [i].
    Period = n/a (background task, runs when other modules are
    dormant)."

    At each checkpoint crossing the module estimates the engagement
    velocity from the pulse count and millisecond clock since the
    previous checkpoint, computes the deceleration needed to stop within
    the remaining cable, and converts it into a pressure set point for a
    nominal aircraft mass (the controller does not know the true mass;
    velocity feedback at the next checkpoint compensates).  While
    [slow_speed] is reported the set point drops to
    {!Params.slow_speed_set_value}; once [stopped] is reported the
    arrestment is latched finished and the set point goes to zero.

    The checkpoint index [i] is kept {e in the signal itself} and read
    back each activation — the module-local feedback loop of the paper's
    Figs. 9, 10 and 12.  A corrupted index is clamped into [0, 6]
    (defensive indexing), then written back: index errors persist, which
    is why the estimated [P(i -> i)] is 1.0 (Table 1's sentinel row). *)

type t

val create : Propane.Signal_store.t -> t
val step : t -> unit

type state
(** The last checkpoint, the set point and the finished latch, saved
    for {!Propane.Sut.state_hook}.  Immutable: saving copies,
    restoring copies back. *)

val save : t -> state
val restore : t -> state -> unit

val descriptor : Propagation.Sw_module.t
(** inputs [pulscnt; mscnt; slow_speed; stopped; i]; outputs
    [i; SetValue]. *)
