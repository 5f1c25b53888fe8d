(** Golden Run Comparison (GRC, Section 6).

    "A Golden Run is a trace of the system executing without any
    injections being made ... All traces obtained from the injection
    runs are compared to the GR, and any difference indicates that an
    error has occurred."  Comparison stops at the first difference
    (Section 7.3), which is valid because the platform runs real
    software in simulated time — identical runs are bit-identical. *)

type divergence = {
  signal : string;
  first_ms : int;  (** millisecond of the first differing sample *)
}

val compare_runs :
  ?until_ms:int -> golden:Trace_set.t -> run:Trace_set.t -> unit -> divergence list
(** First divergence per signal, omitting signals that never diverge.
    Signals are compared in the golden run's order.  [until_ms] bounds
    the comparison window (used for deliberately truncated injection
    runs); differences at or beyond it — including the run simply being
    shorter — are ignored.
    @raise Invalid_argument if the runs trace different signal sets. *)

(** {1 Frozen goldens}

    After recording, a golden run is {e frozen} into a compact
    immutable flat-array form.  Frozen goldens are never mutated, so
    they are safe to share read-only across worker domains, and the
    streaming divergence observers ({!Observer}) compare each incoming
    sample against them in O(1). *)

type frozen = private {
  frozen_signals : string array;  (** signal names in trace-set order *)
  frozen_duration : int;  (** recorded duration in ms *)
  samples : int array;
      (** signal-major samples: value of signal [s] at millisecond [ms]
          is [samples.(s * frozen_duration + ms)].  Read-only. *)
}

val freeze : Trace_set.t -> frozen
(** Copies a recorded golden run into its frozen form. *)

val frozen_signals : frozen -> string list
val frozen_signal_count : frozen -> int
val frozen_duration_ms : frozen -> int

val frozen_value : frozen -> signal:int -> ms:int -> int
(** Sample of the [signal]-th signal (trace-set order) at millisecond
    [ms].  @raise Invalid_argument when out of range. *)

val pp_divergence : Format.formatter -> divergence -> unit
