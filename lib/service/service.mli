(** Campaign-as-a-service: a persistent, multi-tenant injection fleet.

    One long-lived daemon owns a {!Cluster.Fleet} of
    {!Cluster.Worker.run} workers and a crash-safe queue of named
    campaigns, multiplexing many {!Propane.Runner.Session}s over the
    shared fleet:

    - {b Fleet}: workers join once ({!Cluster.Protocol.Join}) and are
      retargeted across campaigns with {!Cluster.Protocol.Assign} — no
      reconnect between campaigns.
    - {b Persistence}: each campaign writes the same journal a serial
      [propane campaign --journal] run would ({e byte-identical} — the
      determinism contract of {!Propane.Runner}); a service-level
      {!Manifest} records what was submitted.  Restarting the daemon
      on the same [state_dir] resumes every queued or running campaign
      from its journal.
    - {b Fairness}: joined workers are apportioned over runnable
      campaigns by tenant-assigned weights (largest-remainder method),
      with sticky assignment so the fleet only rebalances when the
      campaign mix changes.
    - {b Backpressure}: a bounded queue ([queue_max]) and a per-tenant
      cap ([tenant_quota]); overflowing submissions are rejected with
      a reason naming the exhausted limit.
    - {b Control surface}: a thin HTTP/1.1 + JSON API ({!Http},
      {!Json} — no third-party dependencies), normally on a Unix
      socket:
      {ul
      {- [POST /campaigns] — submit (body is handed to [parse]);
         [201] with the fresh id, [400] on a parse error, [429] on
         backpressure.}
      {- [GET /campaigns] — every campaign ever submitted, in order.}
      {- [GET /campaigns/:id] — status, counters, live telemetry and
         the current module rankings with Wilson 95% CIs.}
      {- [DELETE /campaigns/:id] — cancel: stop handing out batches,
         drain in-flight runs into the journal, mark [cancelled].}
      {- [GET /campaigns/:id/results] — the finished campaign's saved
         {!Propane.Storage} results file, streamed as [text/plain];
         [409] while it is still queued or running, and still served
         after a restart (the file outlives the daemon).}
      {- [GET /fleet] — the worker roster, plus a bottleneck diagnosis:
         [queue_depth] (runs queued across runnable campaigns), [idle]
         (parked workers) and a sizing [hint] — when runs are queued
         and no worker is idle, how many more workers could each take a
         full batch right now.}} *)

type spec = {
  tenant : string;  (** accounting identity for quotas and weights *)
  weight : int;  (** fleet share relative to other campaigns; >= 1 *)
  name : string;  (** campaign name, as in a recipe *)
  sut : string;  (** system under test name *)
  total : int;  (** campaign size *)
  recipe : string;  (** serialised recipe, pinned into the journal
                        header and offered to workers *)
  config : Propane.Runner.Config.t;
      (** the run configuration; [journal] and [resume] are overridden
          by the service (each campaign journals under [state_dir]) *)
  live : Propane.Live.t option;
      (** fresh live analysis for ranking snapshots and [stop_when];
          [parse] must build a new one per call *)
  plan : Propane.Plan.t option;
      (** fresh budget scheduler ({!Propane.Plan}) used as the
          session's work source; required when [config.budget] is set,
          and — like [live] — [parse] must build a new one per call
          (plans are single-use) *)
}
(** Everything the service needs to run one submitted campaign.
    Produced by the [parse] callback from a submission body. *)

type config = {
  listen : Cluster.Address.t;  (** fleet (worker protocol) endpoint *)
  http : Cluster.Address.t;  (** control (HTTP) endpoint *)
  state_dir : string;  (** manifest + per-campaign journals *)
  queue_max : int;  (** max queued-or-running campaigns *)
  tenant_quota : int;  (** max queued-or-running per tenant *)
  batch_max : int;  (** per-worker batch cap, as [--batch] *)
  heartbeat_timeout_s : float;
      (** reassign a silent worker's runs after this; a fleet
          connection that has not joined, or an HTTP connection that
          has not delivered its request, is closed after it too *)
  exit_when_idle : bool;
      (** drain and return once at least one campaign was accepted and
          all campaigns are terminal — for tests and batch drivers *)
  parse : string -> (spec, string) result;
      (** turns a submission body into a runnable spec; called on
          [POST /campaigns] and again for each non-terminal manifest
          entry on restart *)
}

val config :
  ?queue_max:int ->
  ?tenant_quota:int ->
  ?batch_max:int ->
  ?heartbeat_timeout_s:float ->
  ?exit_when_idle:bool ->
  listen:Cluster.Address.t ->
  http:Cluster.Address.t ->
  state_dir:string ->
  parse:(string -> (spec, string) result) ->
  unit ->
  config
(** Defaults: [queue_max = 16], [tenant_quota = 4], [batch_max = 16],
    [heartbeat_timeout_s = 30.], [exit_when_idle = false]. *)

val run :
  ?on_tick:(unit -> unit) ->
  ?stop:(unit -> [ `Continue | `Drain | `Abort ]) ->
  config ->
  (unit, string) result
(** Runs the daemon: binds both endpoints, recovers every non-terminal
    manifest entry from [state_dir] (resuming its journal), then
    serves until [stop] asks otherwise.  [stop] is polled once per
    scheduler tick (~4 Hz):

    - [`Drain] — graceful shutdown: dismiss the fleet, flush and close
      every open journal, leave non-terminal campaigns in the manifest
      so the next start resumes them.  Returns [Ok ()].
    - [`Abort] — simulated crash (for tests): close every descriptor
      and return {e without} flushing journals or touching the
      manifest, leaving exactly the on-disk state a [SIGKILL] would.
      Returns [Error "aborted"].

    [on_tick] runs after each tick (telemetry printing, test hooks).

    @raise Invalid_argument on a bad [config] or corrupt manifest. *)
