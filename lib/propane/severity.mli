(** Failure-mode classification of injection runs.

    Permeability says how likely an error {e moves}; severity says what
    it ultimately {e does}.  Classic SWIFI studies bin every injection
    run into outcome classes; crossing those bins with the per-signal
    exposure rankings substantiates the placement argument (an EDM site
    is valuable when the errors passing it tend to end in the severe
    bins).

    Classification rules, applied in order:
    - no signal diverged from the golden run: {!No_effect} (the error
      was overwritten or masked);
    - no {e system output} diverged: {!Internal_only} (a latent error:
      internal state differs but the environment never saw it);
    - an output diverged but the target-specific mission judge accepts
      the run: {!Output_deviation} (degraded but successful service);
    - the mission judge rejects it: {!Mission_failure}.

    A run whose target {e crashed} or {e hung} (see {!Results.status})
    never delivered its service at all; it is classed
    {!Mission_failure} without consulting the mission judge, whose
    traces would be partial. *)

type verdict = No_effect | Internal_only | Output_deviation | Mission_failure

val verdicts : verdict list
(** In severity order, least severe first. *)

type report = {
  target : string;  (** injected signal *)
  runs : int;
  no_effect : int;
  internal_only : int;
  output_deviation : int;
  mission_failure : int;
}

val count : report -> verdict -> int

val assess :
  ?max_ms:int ->
  ?seed:int64 ->
  ?run_timeout_ms:int ->
  outputs:string list ->
  mission_failed:(golden:Trace_set.t -> run:Trace_set.t -> bool) ->
  Sut.t ->
  Campaign.t ->
  report list
(** Runs the campaign through {!Runner.run} with kept traces (so every
    run is full-length) and classifies every run from its outcome and
    traces; one report per target signal, in campaign order.  The
    runs are exactly those a {!Runner.run} campaign executes under the
    same [max_ms], [seed] and [run_timeout_ms] (no truncation, no
    retries).
    [mission_failed] judges the end-to-end service from the traces
    (e.g. "the aircraft was not arrested within the runway").

    Crashing SUTs do not abort the assessment: a crashed — or, with
    [run_timeout_ms], hung — run is binned as {!Mission_failure}. *)

val pp_report : Format.formatter -> report -> unit
