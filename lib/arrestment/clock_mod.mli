(** CLOCK — "provides a millisecond-clock, [mscnt].  The system operates
    in seven 1-ms-slots ...  The signal [ms_slot_nbr] tells the module
    scheduler the current execution slot.  Period = 1 ms."

    [ms_slot_nbr] is read back by the module itself (module-local
    feedback): each activation publishes the slot number of the {e next}
    millisecond.  [mscnt] comes from an internal counter, which is why
    slot-number errors never permeate to it — the paper's estimated
    CLOCK matrix is exactly [[1; 0]]. *)

type t

val create : Propane.Signal_store.t -> t
val step : t -> unit

type state
(** The internal millisecond counter, saved for
    {!Propane.Sut.state_hook}.  Immutable: saving copies, restoring
    copies back. *)

val save : t -> state
val restore : t -> state -> unit

val descriptor : Propagation.Sw_module.t
(** inputs [ms_slot_nbr]; outputs [mscnt; ms_slot_nbr]. *)
