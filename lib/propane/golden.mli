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
    shorter — are ignored.  Campaigns compare runs with the streaming
    {!Observer.divergence} instead; this post-hoc form is the oracle
    that observer is property-tested against.
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
  saved_at : int array;
      (** ascending milliseconds at which the golden run saved the
          SUT's state ({!Sut.state_hook}); empty for SUTs without the
          hook *)
  saved : Sut.state array;
      (** [saved.(i)] is the state at the start of millisecond
          [saved_at.(i)], i.e. after that many steps.  Read-only. *)
}

val freeze : Trace_set.t -> frozen
(** Copies a recorded golden run into its frozen form, with no saved
    states. *)

val freeze_saved : saved:(int * Sut.state) list -> Trace_set.t -> frozen
(** {!freeze}, keeping the SUT states the golden run saved as
    [(ms, state)] pairs — the state at the start of millisecond [ms].
    @raise Invalid_argument unless the instants are strictly ascending
    and inside [\[1, duration)]. *)

val latest_saved : frozen -> upto:int -> (int * Sut.state) option
(** The saved state with the largest instant [<= upto], if any: where
    a run whose first corruption fires at [upto] can start, since
    everything it simulates before that millisecond is the golden
    run. *)

val frozen_signals : frozen -> string list
val frozen_signal_count : frozen -> int
val frozen_duration_ms : frozen -> int

val frozen_value : frozen -> signal:int -> ms:int -> int
(** Sample of the [signal]-th signal (trace-set order) at millisecond
    [ms].  @raise Invalid_argument when out of range. *)

val pp_divergence : Format.formatter -> divergence -> unit
