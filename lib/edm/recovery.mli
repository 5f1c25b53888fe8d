(** Error-recovery mechanisms (ERMs) as signal-write wrappers.

    An ERM intercepts every write to a signal (via
    {!Propane.Signal_store.add_write_guard}) and forces the value back
    into a plausible envelope — the "wrappers" of Section 4.1 used to
    increase a module's error-containment capability.  Each run gets a
    fresh, independent guard closure from {!make_guard}. *)

type t =
  | Clamp of { lo : int; hi : int }  (** saturate into [[lo, hi]] *)
  | Hold_last_if of Assertion.t
      (** a write violating the assertion is replaced by the most
          recent accepted value (0 before any write was accepted) *)
  | Forward  (** identity; the do-nothing baseline for ablations *)

val make_guard : t -> unit -> int -> int
(** [make_guard t ()] is a fresh transformer suitable for
    [add_write_guard]; statefulness (the held value of [Hold_last_if])
    is confined to the closure. *)
