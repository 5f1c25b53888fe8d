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
    runs): samples at or beyond it are never inspected.  Inside the
    window a length mismatch counts as a difference at the end of the
    shorter run (a run that stopped early {e is} a divergence), so a
    truncated run compares clean against a longer golden run.
    Campaigns compare runs with the streaming {!check} instead; this
    post-hoc form is the oracle it is property-tested against.
    @raise Invalid_argument if the runs trace different signal sets. *)

(** {1 Frozen goldens}

    After recording, a golden run is {e frozen} into a compact
    immutable array.  Frozen goldens are never mutated, so they are
    safe to share read-only across worker domains, and the streaming
    {!check} compares each incoming sample against them in O(1). *)

type frozen = private {
  frozen_signals : string array;  (** signal names in trace-set order *)
  frozen_duration : int;
      (** recorded duration in ms.  A campaign's goldens stop at its
          read horizon ({!Runner.run}), so this may be shorter than the
          SUT's natural run. *)
  samples : int array;
      (** the trace set's samples, millisecond-major as in
          {!Trace_set}.  Read-only. *)
  saved_at : int array;
      (** ascending milliseconds at which the golden run saved the
          SUT's state ({!Sut.state_hook}): where injection runs start,
          and where runs past their last fire check whether they have
          rejoined the golden run.  Empty for SUTs without the hook. *)
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

val saved_after : frozen -> ms:int -> int
(** The index in [saved_at] (and [saved]) of the first instant after
    [ms], or the length of [saved_at] when there is none: from there
    on, a run whose last corruption fired at [ms] checks whether its
    state has rejoined the golden run. *)

val frozen_signals : frozen -> string list
val frozen_duration_ms : frozen -> int

val frozen_value : frozen -> signal:int -> ms:int -> int
(** Sample of the [signal]-th signal (trace-set order) at millisecond
    [ms]: the oracle of tests that replay a golden run.
    @raise Invalid_argument when out of range. *)

(** {1 Streaming comparison} *)

type check
(** One run's first-divergence check against a frozen golden, fed one
    millisecond at a time by the runner. *)

val check : ?until_ms:int -> ?scratch:int array -> frozen -> check
(** A check finding, per signal, the first millisecond before
    [until_ms] where the run disagrees with the golden.  Its result is
    exactly {!compare_runs}'s over the recorded traces
    (property-tested).

    [scratch] lends the check its per-signal state (length at least the
    golden's signal count, overwritten up front), so a campaign reuses
    one buffer across every run on a domain; read the {!divergences}
    before the next run reuses it.
    @raise Invalid_argument if [scratch] is shorter than the golden's
    signal count. *)

val sample : check -> ms:int -> int array -> unit
(** [sample c ~ms values] compares millisecond [ms] of the run,
    [values.(s)] being the [s]-th signal (trace-set order), with the
    golden. *)

val saturated : check -> bool
(** [true] once every signal has diverged: no later sample can change
    a first-divergence timestamp, so the run's outcome is fixed. *)

val divergences : check -> run_ms:int -> divergence list
(** Ends the check of a run that lasted [run_ms] milliseconds and
    returns its divergences in golden signal order.  As in
    {!compare_runs}, a run whose length differs from the golden's
    diverges, in every signal not yet diverged, at the end of the
    shorter one when that lies before [until_ms]. *)

val pp_divergence : Format.formatter -> divergence -> unit
