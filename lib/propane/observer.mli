(** Streaming run observers.

    The runner drives an observer once per simulated millisecond
    instead of materializing a full {!Trace_set} per run and comparing
    it post-hoc (Section 6's Golden Run Comparison).  Each millisecond
    the runner fills one [int array] with the current value of every
    traced signal (trace-set order) and calls {!t.on_sample};
    {!t.finish} closes the run.  An observer that has learned
    everything it can reports [saturated () = true].  The runner asks
    only the {!divergence} observer, which saturates once every
    monitored signal has diverged: no later sample can change a
    first-divergence timestamp, so the run's outcome is fixed there.  A
    run with riders (e.g. a {!recorder}) steps on for them to its
    duration (see {!Runner.run_experiment}).

    The sample array passed to [on_sample] is reused by the runner
    between milliseconds: observers must copy values they keep. *)

type t = {
  on_sample : ms:int -> int array -> unit;
      (** Called once per simulated millisecond with the value of every
          traced signal, after the SUT stepped through [ms].  A run
          started from a saved golden state ({!Runner.run_experiment})
          simulates from that millisecond on: its divergence observer
          is sampled from there, and riders get the milliseconds before
          it from the frozen golden run. *)
  finish : run_ms:int -> unit;
      (** Called once when the run ends (normally, early-exited, or
          SUT-finished) with the number of sampled milliseconds. *)
  saturated : unit -> bool;
      (** [true] once no future sample can change this observer's
          result.  The runner consults it only for the divergence
          observer. *)
}

val divergence :
  ?until_ms:int ->
  ?scratch:int array ->
  Golden.frozen ->
  t * (unit -> Golden.divergence list)
(** [divergence golden] is a streaming observer detecting, per signal,
    the first millisecond before [until_ms] where the run disagrees
    with the frozen golden, plus a thunk returning the divergences
    found so far (golden signal order).  Semantics —
    including the length-mismatch tail rule applied at [finish] — match
    {!Golden.compare_runs} over recorded traces exactly
    (property-tested).  Saturates once every signal has diverged.

    [scratch] lends the observer its per-signal state array (length at
    least the golden's signal count; overwritten with [-1] up front) so
    a campaign can reuse one buffer across every run on a domain
    instead of allocating per run.  The divergence thunk reads from
    [scratch], so extract results before the next run reuses it.
    @raise Invalid_argument if [scratch] is shorter than the golden's
    signal count. *)

val recorder : signals:string list -> t * (unit -> Trace_set.t)
(** Records every sample into a {!Trace_set} (for consumers that still
    need raw traces).  As a rider it receives every millisecond of the
    run, golden prefix included, up to the run's duration or the crash,
    hang or finish that ends it first. *)
