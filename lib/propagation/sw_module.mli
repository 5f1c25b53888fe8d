(** Software-module descriptors.

    Following the system model of Section 3, a module is a black box with
    [m] input ports and [n] output ports.  Each port is bound to exactly
    one signal.  Ports are numbered [1 .. m] (inputs) and [1 .. n]
    (outputs) as in the paper (e.g. [PACNT] is input #1 of [DIST_S]). *)

type t = private {
  name : string;
  inputs : Signal.t array;  (** [inputs.(i-1)] is the signal on input [i] *)
  outputs : Signal.t array;  (** [outputs.(k-1)] is the signal on output [k] *)
}

val make :
  name:string -> inputs:Signal.t list -> outputs:Signal.t list -> t
(** Builds a module descriptor.

    @raise Invalid_argument if the name is empty, if there are no inputs
    or no outputs, or if a signal appears twice among the inputs or twice
    among the outputs.  A signal {e may} appear both as an input and as an
    output: that is a module-local feedback (paper Section 4.2). *)

val name : t -> string
val input_count : t -> int
(** [m] *)

val output_count : t -> int
(** [n] *)

val pair_count : t -> int
(** [m * n], the number of permeability values *)

val input_signal : t -> int -> Signal.t
(** [input_signal t i] is the signal bound to input port [i] (1-based).
    @raise Invalid_argument if [i] is out of range. *)

val output_signal : t -> int -> Signal.t
(** 1-based, like {!input_signal}. *)

val input_index : t -> Signal.t -> int option
(** Port number of the input carrying the given signal, if any. *)

val output_index : t -> Signal.t -> int option

val input_signals : t -> Signal.t list
val output_signals : t -> Signal.t list

val feedback_signals : t -> Signal.t list
(** Signals that this module both produces and consumes (module-local
    feedback loops, e.g. signal [i] of module [CALC]). *)

val pp : Format.formatter -> t -> unit
