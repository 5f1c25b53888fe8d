(** Fault-configurable SUT wrapper: a chaos harness for the campaign
    engine's failure handling.

    Real SWIFI targets do not always survive an injected error — the
    corrupted value can take down the target software or spin it into
    a livelock.  [Fault] turns any {!Sut.t} into one that misbehaves
    that way on demand, deterministically: the wrapped instance runs
    exactly like the original until {e its injection} arms the
    countdown, then crashes (raises) or hangs (burns wall-clock per
    step) a configured number of simulated milliseconds later.

    Golden runs are never injected, so they are never perturbed; the
    runner's watchdog and crash handling (see {!Runner.run}) convert
    the misbehaviour into {!Results.Crashed} / {!Results.Hung}
    outcomes.  Used by the test suite and the CLI's [--chaos-*]
    flags. *)

exception Simulated_crash of int
(** Raised by a wrapped instance's [step] that many simulated
    milliseconds after its injection. *)

type spec = {
  crash_after_ms : int option;
      (** raise {!Simulated_crash} this many simulated ms after the
          injection ([Some 0] = crash on the injection's own step) *)
  hang_after_ms : int option;
      (** from this many simulated ms after the injection on, every
          step sleeps [hang_step_wall_ms] of wall-clock *)
  hang_step_wall_ms : int;  (** sleep per hanging step, wall-clock ms *)
  only_testcase : string option;
      (** restrict the misbehaviour to one test case id *)
}

val spec :
  ?crash_after_ms:int ->
  ?hang_after_ms:int ->
  ?hang_step_wall_ms:int ->
  ?only_testcase:string ->
  unit ->
  spec
(** [hang_step_wall_ms] defaults to 25.  With both [crash_after_ms]
    and [hang_after_ms] unset the spec is a no-op.
    @raise Invalid_argument on a negative countdown or a sleep < 1. *)

val apply : spec -> Sut.t -> Sut.t
(** The wrapped SUT keeps its name and signals; only [instantiate] is
    intercepted.  A hanging run without a runner watchdog is still
    bounded: it merely takes [hang_step_wall_ms] of wall-clock per
    remaining simulated millisecond.  Wrapped instances keep the inner
    {!Sut.state_hook}: a run restored at its first fire still arms the
    countdown on its injection, so crash and hang timing is the same
    as for a run started at millisecond 0. *)

val wrap :
  ?crash_after_ms:int ->
  ?hang_after_ms:int ->
  ?hang_step_wall_ms:int ->
  ?only_testcase:string ->
  Sut.t ->
  Sut.t
(** [apply] of a freshly built {!spec}. *)
