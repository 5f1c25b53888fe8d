(** Campaign execution: golden runs, injection runs, golden-run
    comparison (Sections 6 and 7.3).

    The runner steps a {!Sut.instance} millisecond by millisecond and,
    after each step, reads every observable signal once into a flat
    sample that it hands to a streaming {!Observer}.  A golden run
    executes until the SUT reports completion (or [max_ms] as a safety
    net) and is then {e frozen} ({!Golden.freeze}) into a compact
    immutable form; each injection run executes for {e exactly} the
    duration of its test case's golden run — or less, when every
    monitored signal has already diverged and the divergence observer
    saturates — so divergence timestamps compare sample by sample
    without any per-run trace materialization.  For SUTs with a
    {!Sut.state_hook} the golden run also saves its state at the runs'
    first fires, and each injection run starts there instead of at
    millisecond 0 (see {!run_experiment}). *)

val default_max_ms : int
(** 20,000 simulated ms. *)

val golden_run : ?max_ms:int -> Sut.t -> Testcase.t -> Trace_set.t
(** Runs without injections and returns the reference traces. *)

val frozen_golden :
  ?max_ms:int -> ?save_at:int list -> Sut.t -> Testcase.t -> Golden.frozen
(** {!golden_run}, frozen ({!Golden.freeze}).  When the SUT's instances
    carry a {!Sut.state_hook}, the golden run also saves the state at
    the start of each millisecond of [save_at] (default none) that is
    positive and before the run's end ([saved_at] and [saved] of
    {!Golden.frozen}); the campaign engine saves at the first fires of
    the runs it will execute. *)

val run_experiment :
  ?rng:Simkernel.Rng.t ->
  ?truncate_after_ms:int ->
  ?run_timeout_ms:int ->
  ?observers:Observer.t list ->
  Sut.t ->
  golden:Golden.frozen ->
  Testcase.t ->
  Injection.t ->
  Results.outcome
(** One injection run with streaming golden-run comparison against the
    frozen golden: divergences are detected per sample in O(1), and the
    run early-exits once every signal has diverged.  The outcome is
    exactly what post-hoc {!Golden.compare_runs} over recorded traces
    would report (property-tested).  With [truncate_after_ms] the
    comparison window is bounded by the truncated run's duration.  The
    run also stops the millisecond the SUT first reports [finished]:
    an injected run may end before the golden one, and the
    length-mismatch rule needs its true length.  [observers] ride
    along on the same run (e.g. an opt-in {!Observer.recorder}); early
    exit then additionally waits for {e their} saturation, so adding a
    recorder restores the full fixed-duration run.

    {b Start.}  Without [observers], when the instance carries a
    {!Sut.state_hook} and [golden] saved a state at or before the
    injection's first fire ({!Golden.latest_saved}), the fresh instance
    is restored to the latest such state and the run starts at that
    millisecond instead of 0: under single-error semantics everything
    before the first fire is the golden run, so the outcome is
    unchanged (property-tested against the ms-0 path).  Riders start
    at 0, since they may need every sample.  [golden] must then come
    from the same SUT.

    {b Failures.}  The run is fault-tolerant: an exception escaping
    the SUT (instantiation, injection, stepping or sampling) becomes
    [Crashed { at_ms; reason }] — [at_ms] the simulated millisecond it
    escaped, [reason] the exception rendered with separators
    sanitised — instead of propagating.  The observers are finished
    with the shortened length, so every signal yet to diverge
    diverges at the crash instant and a [Crashed] outcome keeps its
    divergences.  [run_timeout_ms] arms a wall-clock watchdog, checked
    between simulated milliseconds; a run over budget stops with
    [Hung { budget_ms }] and its divergences are discarded (how far
    the run got is wall-clock dependent, and outcomes must stay
    deterministic).  Without it (the default) a run may take unbounded
    wall time.

    [rng] feeds non-deterministic error models and defaults to a fixed
    seed.  An injection time beyond the run's duration leaves the run
    golden.
    @raise Invalid_argument if the target signal is unknown to the SUT
    or [run_timeout_ms < 1]. *)

(** {1 Campaign configuration}

    Every knob a campaign accepts, in one plain record — the single
    source of options shared by {!run}, {!executor}, the cluster
    coordinator ({!Cluster.Coordinator.serve}) and the CLI, so the
    execution modes cannot drift apart in what they accept. *)

module Config : sig
  type t = {
    max_ms : int;  (** golden-run safety net, {!default_max_ms} *)
    seed : int64;  (** campaign seed; every run's RNG derives from it *)
    truncate_after_ms : int option;
        (** stop each run this long after its injection *)
    run_timeout_ms : int option;  (** wall-clock watchdog per run *)
    retries : int;  (** re-executions of a crashed/hung run *)
    fail_fast : bool;  (** abort the campaign on a failed run *)
    jobs : int;  (** worker domains; 1 = everything in the caller *)
    journal : string option;  (** stream outcomes to this path *)
    resume : bool;  (** replay an existing journal first *)
    journal_batch : int;
        (** commit journal records to disk every this many appends
            (see {!Journal.create}); contents are unaffected, only the
            crash-loss window — at most [journal_batch - 1] records,
            re-run on resume *)
    keep_traces : bool;  (** record full per-run traces *)
    stop_when : Live.rule option;
        (** adaptive stop rule; needs [?live] at {!run} *)
    budget : int option;
        (** total injection budget; needs [?plan] at {!run} — the CLI
            and coordinator build the {!Plan.t} from this field *)
    plan : Plan.mode;
        (** how a budget is allocated (default {!Plan.Adaptive});
            meaningless without [budget] *)
  }

  type role = [ `Outcome | `Resumable | `Plan ]
  (** What a field can change.  [`Outcome]: a completed run's outcome,
      so these fields, and only these, key cached estimates.
      [`Resumable]: which runs execute and how records reach the disk;
      a resume may change them, and campaign recipes reset them to
      {!default}'s so every invocation of one campaign journals the same
      header.  [`Plan]: which runs execute; pinned on resume, irrelevant
      to any one run. *)

  val role : string -> role
  (** The role of a field by its {!encode} name — the one place a
      field is classified: [jobs], [journal_batch], [fail_fast],
      [stop_when] and [keep_traces] are [`Resumable], [budget] and
      [plan] are [`Plan], and every other name counts as [`Outcome]. *)

  val default : t
  (** [max_ms = default_max_ms], [seed = 42], no truncation, no
      watchdog, no retries, no fail-fast, [jobs = 1], no journal,
      [journal_batch = 32], streaming (no kept traces), no stop rule. *)

  val make :
    ?max_ms:int ->
    ?seed:int64 ->
    ?truncate_after_ms:int ->
    ?run_timeout_ms:int ->
    ?retries:int ->
    ?fail_fast:bool ->
    ?jobs:int ->
    ?journal:string ->
    ?resume:bool ->
    ?journal_batch:int ->
    ?keep_traces:bool ->
    ?stop_when:Live.rule ->
    ?budget:int ->
    ?plan:Plan.mode ->
    unit ->
    t
  (** {!default} with the given fields replaced.  Construction never
      fails; {!validate} (called by every entry point taking a config)
      checks the combination. *)

  val restrict : (role -> bool) -> t -> t
  (** Keeps the fields whose {!role} satisfies the predicate and resets
      the others to {!default}'s; the host-local [journal] and [resume]
      are kept. *)

  val validate : t -> (unit, string) result
  (** [max_ms >= 1], [truncate_after_ms >= 0], [jobs >= 1],
      [retries >= 0], [run_timeout_ms >= 1], [journal_batch >= 1],
      [budget >= 1] when set, and [resume] only with a [journal]. *)

  val encode : t -> string
  (** Serialises for a cluster recipe: [,]-separated [k=v] fields, no
      tabs or newlines, safe to embed as one field of a [;]-separated
      recipe.  [journal] and [resume] are host-local (a coordinator
      path means nothing on a worker) and are not encoded.  [budget]
      and [plan] are only emitted for planned campaigns, so unplanned
      recipes keep their previous bytes. *)

  val decode : string -> (t, string) result
  (** Inverse of {!encode} over the encoded fields; [journal]/[resume]
      come back as {!default}'s.  Unknown fields are errors, so recipe
      typos fail loudly.  The decoded config is {!validate}d. *)
end

(** {1 Campaign engine}

    {!run} executes a whole campaign — serially or across worker
    domains — streaming outcomes to an optional {!Journal} and
    reporting progress through typed {!event}s.  Campaigns are
    deterministic for a fixed [seed]: each run's random generator is
    derived from the seed and the experiment index alone, never from
    execution order, so [jobs = n] produces outcome-for-outcome the
    same {!Results.t} as [jobs = 1], and an interrupted campaign
    resumed from its journal matches an uninterrupted one exactly.

    Every backend — {!run}'s serial loop and worker domains, the
    cluster coordinator and the campaign service — drives the same
    {!Session}, which owns the bookkeeping: journal, resume, work
    source, live analysis, stop rule and result fold.  Journals are
    therefore {e byte}-identical across all of them. *)

type event =
  | Started of { total : int; skipped : int; jobs : int }
      (** emitted first; [skipped] counts runs replayed from the
          journal on resume *)
  | Goldens_done of { testcases : int }
      (** golden runs are in place (only the test cases still needed
          by remaining experiments are executed); a cluster
          coordinator emits it with [testcases = 0] — its workers run
          their goldens lazily in their own processes *)
  | Worker_attached of { worker : int; host : string; pid : int }
      (** a remote worker process joined the campaign (cluster runs
          only; {!run}'s in-process domains attach silently).  [worker]
          is the id later seen in [Run_done], [host]/[pid] identify the
          process for telemetry *)
  | Run_done of {
      index : int;
      worker : int;
      completed : int;
      total : int;
      status : Results.status;
      retries : int;
    }
      (** one injection run finished; [index] is its position in
          {!Campaign.experiments}, [worker] the domain that ran it
          (0-based), [completed] includes skipped runs, [status] how
          the run ended and [retries] how many re-executions it took
          (0 = first attempt stood) *)
  | Analysis_tick of Live.digest
      (** the live analysis refreshed after a run (only with [?live]);
          one per [Run_done], plus one for the replayed journal on
          resume *)
  | Finished of { completed : int; total : int }  (** emitted last *)

exception Failed_run of { index : int; outcome : Results.outcome }
(** Raised under [fail_fast] when a run is still crashed or hung after
    its retry budget.  The failed outcome — and every other finished
    run — has already been journalled and reported via [Run_done] when
    this escapes. *)

(** {1 The scheduling core} *)

module Session : sig
  (** One campaign's execution state, independent of how runs are
      executed: the outcome table, the work source, the
      strict-index-order journal cursor, the live analysis feed and the
      adaptive stop rule.  A transport pulls indices with {!take},
      executes them anywhere, and hands outcomes back with {!record};
      {!Runner.run} does that with in-process domains,
      [Cluster.Coordinator.serve] over a socket, and the campaign
      service for many sessions over one fleet.

      {b Journal.}  With [config.journal] every outcome is streamed to
      an append-only {!Journal}.  Records pass through a reorder
      buffer: a cursor writes them in strict campaign-index order, so
      a journal is byte-identical to the serial one whatever the
      completion order — out-of-order completions park in memory until
      the gap before them fills.  Records are committed every
      [journal_batch] appends and at {!flush}/close, so a killed
      campaign loses at most [journal_batch - 1] records plus a
      truncated fragment, and what is on disk is always an exact
      prefix of the serial journal.  Only an early stop (fail-fast,
      stop rule, cancellation, an exception) appends completed runs
      beyond a never-filled gap out of order, just before close, so no
      finished work is lost.

      {b Resume.}  With [config.resume] an existing journal is
      replayed first: it must match the campaign's SUT, name, seed and
      size; its indices are never handed out again, its outcomes prime
      the live analysis (in index order) and a budget plan (which
      re-derives its round sequence instead of re-executing it).

      {b Stop rule.}  With [config.stop_when] (requires [live]) the
      session stops handing out work once {!Live.satisfied} holds;
      runs already handed out still complete and journal.  The runs
      never executed are absent from the results and the journal, so
      an early-stopped campaign resumes exactly where it stopped if
      re-run without the rule.

      {b Fail-fast.}  With [config.fail_fast] the first failed outcome
      is journalled at once (out of order if need be) and nothing more
      is handed out; {!finish} raises {!Failed_run}.

      A session is not thread-safe: one domain owns it. *)

  type t

  val create :
    ?label:string ->
    ?on_event:(event -> unit) ->
    ?recipe:string ->
    ?live:Live.t ->
    ?select:(int -> bool) ->
    ?cells:Journal.cell list ->
    ?plan:Plan.t ->
    config:Config.t ->
    sut:string ->
    campaign:string ->
    total:int ->
    unit ->
    t
  (** Validates [config], opens (or resumes) the journal, replays
      journalled outcomes, primes the live analysis and emits
      [Started] (and an [Analysis_tick] for a replay).  [label]
      (default ["Session.create"]) prefixes [Invalid_argument]
      messages.  [recipe] (non-empty) is stored in a freshly created
      journal's header ({!Journal.create}) so [propane replay] can
      rebuild the campaign; [cells] writes cell provenance records
      ({!Journal.append_cells}) right after it; resumes rewrite
      neither.  [select] restricts scheduling to the indices it
      accepts; the rest keep their full-campaign meaning but never
      run.  [plan] attaches a freshly created budget scheduler as the
      work source — required when [config.budget] is set; its rounds
      are journalled ({!Journal.append_rounds}) when it runs to
      exhaustion.  Transports emit [Goldens_done] themselves.
      @raise Invalid_argument on an invalid config, a journal that
      fails to load or belongs to another campaign, [stop_when]
      without [live], or a budget without a plan. *)

  val candidates : t -> int list
  (** Every index the work source could still hand out, ascending —
      the runs a transport must prepare goldens for. *)

  val take : t -> batch_max:int -> workers:int -> int list
  (** Pops the next batch off the work source — adaptively sized as
      [queue / (2 * workers)] clamped to [\[1, batch_max\]] — or [[]]
      when nothing is runnable now, the stop rule fired, or a
      fail-fast failure is pending.  Under a budget plan an empty take
      can also mean a round barrier is waiting on outstanding runs:
      recorded results refill the queue, so callers with runs in
      flight must keep polling until {!complete}. *)

  val requeue : t -> int list -> unit
  (** Returns a dead worker's outstanding indices to the {e head} of
      the queue: the reorder buffer is stalled on exactly these. *)

  val record :
    t -> index:int -> worker:int -> retries:int -> Results.outcome -> unit
  (** Records one completed run: advances the journal cursor, emits
      [Run_done], feeds the live analysis, evaluates the stop rule and
      arms the fail-fast abort.  A duplicate (a reassigned run
      finishing twice) is dropped — outcomes are index-deterministic,
      so the first copy stands.  Callers must only record indices
      they handed out.
      @raise Invalid_argument if [index] is outside the campaign. *)

  val flush : t -> unit
  (** Commits batched journal appends; a polling transport calls it
      once per tick so records reach the disk at most one tick after
      the cursor wrote them. *)

  val finish : t -> Results.t
  (** Completes the session: writes any out-of-order tail, journals
      an exhausted plan's rounds, emits [Finished], closes the journal
      and folds the outcome table into results in campaign order.
      @raise Failed_run (after writing the tail and closing the
      journal) if fail-fast captured a failure. *)

  val abort : t -> unit
  (** Cancellation path: writes every completed outcome to the
      journal (out of order past the cursor), then closes it.  No
      [Finished] event, no results.  Idempotent, and a no-op after
      {!finish}. *)

  val close : t -> unit
  (** Closes the journal without the tail — the crash-consistent
      shutdown path.  Idempotent. *)

  val completed : t -> int
  (** Runs completed so far, journal replays included. *)

  val scheduled : t -> int
  (** Replays plus every run the work source has enqueued so far —
      constant for unplanned campaigns, growing round by round under a
      budget plan. *)

  val pending : t -> int
  (** Queue length: runs not yet handed out. *)

  val complete : t -> bool
  (** The work source is exhausted: nothing more will be handed out
      and every handed-out run has an outcome. *)

  val stopping : t -> bool
  (** The stop rule fired: hand out nothing more, drain what is out. *)

  val failed : t -> (int * Results.outcome) option
  (** The fail-fast failure, if one occurred. *)

  val live : t -> Live.t option
  (** The live analysis, for telemetry and ranking snapshots. *)
end

val run :
  ?config:Config.t ->
  ?on_event:(event -> unit) ->
  ?on_run_traces:(index:int -> Results.outcome -> Trace_set.t -> unit) ->
  ?live:Live.t ->
  ?select:(int -> bool) ->
  ?cells:Journal.cell list ->
  ?recipe:string ->
  ?plan:Plan.t ->
  Sut.t ->
  Campaign.t ->
  Results.t
(** Runs every experiment of {!Campaign.experiments} under [config]
    (default {!Config.default}) and returns the outcomes in campaign
    order.  [run] is a driver of one {!Session} (label
    ["Runner.run"]): [live], [select], [cells], [recipe], [plan] and
    the config's journal, resume, stop-rule and fail-fast fields mean
    exactly what they mean there.  Deselected, unallocated and
    never-reached indices are absent from the returned results.

    Golden runs execute up front in the calling domain, only for the
    test cases the session's {!Session.candidates} still need, and are
    frozen ({!Golden.freeze}) before being shared read-only; then
    [Goldens_done] is emitted.  With [jobs = 1] every run executes in
    the calling domain and a stop or failure starts no further run —
    the stop point is deterministic for a fixed seed.  Otherwise
    [jobs] worker domains each receive one index at a time from the
    calling domain, which owns the session; after a stop or failure
    at most the one run in flight per domain still completes and
    journals.  An exception escaping a worker domain likewise stops
    the hand-out, drains the runs in flight and is re-raised.  Every
    injection run gets a fresh SUT instance, so [instantiate] must not
    rely on global mutable state.

    By default runs are streamed: no per-run trace is materialized, a
    run starts at its injection's first fire from the state its golden
    run saved there (for SUTs with a {!Sut.state_hook}; see
    {!run_experiment}), and it stops as soon as every signal has
    diverged.  Each golden saves the state at the distinct first fires
    of its test case's {!Session.candidates}.  [keep_traces] attaches
    a {!Observer.recorder} to every injection run, restoring the
    record-everything data path (runs from millisecond 0, full-length,
    per-run trace allocation) — outcomes are identical either way,
    only the cost changes.  [on_run_traces] receives each run's
    outcome and recorded traces (implies [keep_traces]); a crashed or
    hung run's traces stop where the run did.  It and [on_event] are
    only ever called
    from the calling domain, in completion order, so they need no
    synchronisation; feed the events to {!Telemetry.observe} for
    throughput and ETA.

    {b Failure handling.}  A run whose SUT raises or (with
    [run_timeout_ms]) exceeds its wall-clock budget does {e not} abort
    the campaign: it yields a {!Results.Crashed} / {!Results.Hung}
    outcome (see {!run_experiment}), journalled and counted like any
    other.  [retries] re-executes such a run up to that many times —
    each attempt on a fresh RNG stream derived from the seed, index
    and attempt number — and keeps the last attempt's outcome.  Under
    [fail_fast] a failure that survives its retries ends the campaign
    with {!Failed_run}.  [Hung] is inherently wall-clock dependent:
    which runs hang can differ between invocations on a loaded
    machine, while [Crashed] outcomes are fully deterministic.

    @raise Invalid_argument as {!Session.create} does.
    @raise Failed_run under [fail_fast] as described above.
    @raise Sys_error on journal I/O failure. *)

val executor :
  ?config:Config.t ->
  seed:int64 ->
  Sut.t ->
  Campaign.t ->
  int ->
  Results.outcome * int
(** The single-run entry point a cluster worker process drives (see
    {!Cluster}): [executor ~seed sut campaign] prepares the campaign
    once and returns a function mapping an experiment index of
    {!Campaign.experiments} to its outcome and the number of retries
    taken — exactly the outcome {!run} with the same config produces
    at that index, whatever process or machine executes it, because
    each run's RNG stream is derived from [seed] and the index alone.
    [seed] is a separate argument — a cluster worker learns it from
    the server's [Assign], not from the shipped recipe.  Partial
    application matters: golden runs execute lazily the first time an
    index needs their test case and stay memoised across calls.  Each
    saves the SUT's state at the first fire of every experiment of its
    test case, so every run starts there as in {!run}.

    Of [config] only [max_ms], [truncate_after_ms], [run_timeout_ms]
    and [retries] apply — scheduling and journalling fields belong to
    whoever coordinates the indices.
    @raise Invalid_argument on an invalid config or an index outside
    the campaign. *)
