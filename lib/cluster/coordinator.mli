(** The coordinator side of a distributed campaign.

    {!serve} owns everything the paper's brute-force estimation needs
    to survive scaling out to many processes: it hands out batches of
    experiment indices to whichever workers attach, watches per-worker
    heartbeat deadlines, reassigns a dead worker's outstanding runs to
    the survivors, and feeds the results to the same
    {!Propane.Runner.Session} a serial {!Propane.Runner.run} drives, so
    its journal and {!Propane.Results.t} are {e byte-identical} to
    that run's over the same [(seed, campaign)].

    {b Determinism argument.}  A run's outcome depends only on the
    campaign seed and its experiment index ({!Propane.Runner.executor}),
    so it does not matter which worker executes it, how batches are
    sized, or how many times a run is re-executed after reassignment —
    duplicated results are identical and the first one wins.  The
    journal is written in strict index order from a reorder buffer
    (completed runs beyond the first gap wait in memory), which makes
    the cluster journal byte-identical to the serial one rather than
    merely equivalent, at the price that a coordinator crash re-runs
    the buffered out-of-order tail on resume.

    {b Robustness rules.}  The workers' connections are a {!Fleet}:
    a connection that does not [Join] within [heartbeat_timeout_s], or
    that holds runs and sends nothing for as long (workers heartbeat
    before every run, so the budget must only exceed the slowest
    single run, golden included), is closed.  A dead worker's
    outstanding indices return to the head of the queue — ahead of
    unstarted work, because the journal's reorder buffer is waiting on
    them — mirroring the retry semantics of the local engine.  Batch
    sizes adapt: [queue / (2 * workers)] capped at [batch_max] and
    floored at 1, so the campaign tail degenerates to single-run
    batches and a straggler can strand at most one run.  A result for
    an index the connection does not hold kills the connection too:
    only handed-out runs are ever recorded. *)

val serve :
  ?batch_max:int ->
  ?heartbeat_timeout_s:float ->
  ?on_event:(Propane.Runner.event -> unit) ->
  ?on_tick:(unit -> unit) ->
  ?recipe:string ->
  ?live:Propane.Live.t ->
  ?select:(int -> bool) ->
  ?cells:Propane.Journal.cell list ->
  ?plan:Propane.Plan.t ->
  config:Propane.Runner.Config.t ->
  listen:Unix.file_descr ->
  sut:string ->
  campaign:string ->
  total:int ->
  unit ->
  Propane.Results.t
(** Runs the campaign to completion over whatever workers connect to
    [listen] (an already-listening socket from {!Address.listen} —
    callers bind before spawning workers, so no worker can race the
    listener) and returns the outcomes in campaign order.  The caller
    closes/unlinks the listener's address after {!serve} returns.

    [select] and [cells] mirror {!Propane.Runner.run}: [select]
    restricts scheduling to the experiment indices it accepts (cell
    reuse — workers still execute them under their full-campaign
    indices, so outcomes and journals stay byte-identical to a
    restricted serial run), and [cells] writes cell provenance records
    after the header of a freshly created journal.  [plan] attaches a
    budget scheduler as the work source of the campaign's
    {!Propane.Runner.Session}: rounds allocate from completed results
    at deterministic barriers,
    so the cluster derives the same round sequence — and writes the
    same journal bytes — as a serial or [--jobs] run of the same
    planned campaign.  While a round barrier waits on outstanding
    runs, idle workers simply park in [Request_batch].

    [config] is the same {!Propane.Runner.Config.t} the local engine
    takes, so serial, domain and cluster modes cannot drift apart in
    accepted options.  Of its fields the coordinator itself uses
    [seed], [fail_fast], [journal], [resume], [journal_batch] (records
    commit at the latest one scheduler tick after the reorder cursor
    wrote them), [stop_when], and [jobs] — the number of workers
    expected to attach, used only for the [Started] event and sizing
    telemetry; more or fewer may actually serve.  Per-run execution
    fields ([max_ms], [truncate_after_ms], [run_timeout_ms],
    [retries]) apply worker-side: embed them in [recipe]
    ({!Propane.Runner.Config.encode}), which is handed verbatim to
    every worker in its {!Protocol.Assign}.  [journal], [resume] and
    [on_event] behave as in {!Propane.Runner.run}; [Goldens_done] is
    emitted immediately with [testcases = 0] (workers run goldens
    lazily in their own processes) and
    {!Propane.Runner.Worker_attached} fires per worker.

    [fail_fast] aborts like the local engine: the first failed outcome
    is journalled and reported, then {!Propane.Runner.Failed_run}
    raises (retries happen worker-side, so an arriving failure has
    already exhausted its budget).

    [on_tick] runs on every scheduler iteration (at least every 250 ms)
    — the hook a local worker pool uses to reap and respawn dead
    processes (see {!Local.tend}); raising from it aborts the campaign.

    [live] / [stop_when] attach live analysis and adaptive stopping as
    in {!Propane.Runner.run}: results feed the analysis as they arrive
    (arrival order, not index order — every order is valid evidence
    and per-run outcomes stay index-deterministic), and once the rule
    is satisfied no further batch is handed out; outstanding batches
    drain, their results are journalled (out of order past the first
    never-run index), and the campaign returns early.

    [SIGPIPE] is set to ignored for the process: a write racing a
    worker's death must fail with [EPIPE] (killing that connection
    only), not kill the coordinator.

    @raise Invalid_argument on bad parameters or a journal that does
    not match the campaign, {!Propane.Runner.Failed_run} under
    [fail_fast], [Sys_error] on journal I/O failure. *)
