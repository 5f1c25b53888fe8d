(** Cost-effectiveness assessment of detector placements (paper OB3).

    OB3's argument: a detector with excellent detection probability on a
    signal with low error exposure (the [InValue] assertion of [7]) is
    {e less} cost effective than a mediocre detector on a highly exposed
    signal — "not only are the detection capabilities of EDM's
    important, the locations are equally important."

    [assess] re-runs a campaign through {!Propane.Runner.run} with
    [on_run_traces] (traces from millisecond 0 to each run's full
    duration) — exactly the runs a plain campaign at the same [max_ms]
    and [seed] executes — evaluates each candidate detector offline on
    every run's trace of its signal, and tabulates
    per detector how often it fired, how often an error was actually
    present, and how often it caught an error that went on to corrupt a
    system output (in time to act, i.e. no later than the output's first
    divergence).  A crashed run counts with the divergences of its
    outcome (every signal diverges by the crash instant) and the traces
    it recorded up to the crash.  A run that crashes or hangs only after
    every signal has diverged is [Completed], since its outcome was
    fixed then ({!Propane.Runner.run_experiment}); it counts the same
    way, with traces that stop at the crash. *)

type report = {
  detector : Detector.t;
  golden_false_alarm : bool;
      (** the detector fired on at least one golden run — its
          assertions are mis-calibrated for the workload *)
  runs : int;  (** injection runs assessed *)
  effective : int;  (** runs where at least one signal diverged *)
  output_failures : int;  (** runs where a system output diverged *)
  fired : int;
      (** runs where the detector fired {e differently from the test
          case's golden run} (a firing identical to the reference
          carries no information) *)
  detections : int;  (** fired and the run was effective *)
  false_alarms : int;  (** fired on a run with no divergence at all *)
  timely_output_detections : int;
      (** fired no later than the system output's first divergence *)
  mean_latency_ms : float option;
      (** mean (first firing - injection instant) over detections *)
}

val detection_coverage : report -> float
(** [detections / effective] ([0.] when no run was effective). *)

val usefulness : report -> float
(** [timely_output_detections / output_failures] — OB3's
    cost-effectiveness figure ([0.] when no output failure occurred). *)

val assess :
  ?max_ms:int ->
  ?seed:int64 ->
  outputs:string list ->
  detectors:Detector.t list ->
  Propane.Sut.t ->
  Propane.Campaign.t ->
  report list
(** One report per detector, in input order.  [outputs] are the system
    output signals whose divergence counts as failure. *)

val pp_report : Format.formatter -> report -> unit
