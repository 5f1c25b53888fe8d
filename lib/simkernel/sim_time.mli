(** Simulated time.

    The paper's experiments run real control software in simulated time
    on a desktop ("the intrusion of the traps is non-existent in our
    setup as it runs in simulated time", Section 7.3).  All timestamps in
    this reproduction are simulated milliseconds since the start of a
    run; there is no wall-clock anywhere in the experiment path. *)

type t
(** A millisecond timestamp, >= 0. *)

val of_ms : int -> t
(** @raise Invalid_argument on a negative value. *)

val to_ms : t -> int
