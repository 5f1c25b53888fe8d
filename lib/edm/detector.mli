(** Error-detection mechanisms (EDMs).

    A detector monitors one signal with a conjunction of executable
    assertions.  It can be evaluated offline against a recorded run
    (finding the first violation), which is how the cost-effectiveness
    study of {!Coverage} works. *)

type t = {
  name : string;
  signal : string;
  assertions : Assertion.t list;
}

val make : name:string -> signal:string -> Assertion.t list -> t
(** @raise Invalid_argument on empty name/signal or no assertions. *)

type verdict = {
  fired : bool;
  first_ms : int option;  (** millisecond of the first violation *)
}

val evaluate : t -> Propane.Trace_set.t -> verdict
(** Scans the run's trace of the detector's signal sample by sample,
    feeding each assertion the previous and current values.
    @raise Invalid_argument if the set does not trace that signal. *)

val pp : Format.formatter -> t -> unit
