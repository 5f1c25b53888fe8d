(** Plan-driven campaigns: analytical priors and an injection-budget
    scheduler shared by every execution backend.

    The paper runs a {e fixed} plan — 4,000 injections per target
    signal (Section 7.3) — and only afterwards checks which rankings
    the data actually resolves.  A [Plan.t] inverts that: given a total
    injection budget, it decides {e which} experiments of a
    {!Campaign.t} to execute and {e when to stop}, allocating runs
    round by round to the targets whose permeability cells are still
    wide and whose modules' rankings are still unresolved
    ({!Propagation.Ranking.module_row.resolved}).

    {b Priors.}  Before any run executes, the analytical side of the
    paper already knows something: the permeability graph
    ({!Propagation.Perm_graph}) fixes which modules a target feeds, and
    a flat 0.5 prior matrix gives each target an expected binomial
    variance mass and a downstream reach — the probability, sampled by
    {!Propagation.Monte_carlo}, that an error on the target arrives at
    a system output.  One estimator scores every target, system input
    or internal signal.  The pilot round splits the budget
    proportionally to these priors, so measurement starts where the
    analysis predicts the most information.

    {b Rounds and determinism.}  Allocation is a barrier process:
    round [k+1] is computed only from the multiset of outcomes of
    rounds [0..k], fed to an internal {!Estimator.Stream} in experiment
    index order and ranked once per round
    ({!Propagation.Ranking.rank_relative}).  Streamed counters are
    commutative, so the allocation sequence is a pure
    function of the completed outcome set — independent of executor
    interleaving.  Serial, [--jobs] domains, the cluster coordinator
    and the campaign service therefore derive {e identical} rounds,
    and a killed-and-resumed campaign re-derives them from the
    journal.  Rounds are journalled ({!Journal.append_rounds}) when
    the campaign finishes.

    {b Work source.}  A [Plan.t] doubles as the single work-source
    abstraction all backends pull from: {!take} hands out runnable
    experiment indices, {!complete} banks outcomes and advances the
    barrier, {!requeue} returns indices lost to a dead worker.
    {!static} builds a degenerate single-round source over a fixed
    index set, which is exactly the historical "cursor over the
    campaign" behaviour of unplanned campaigns.  All operations are
    serialised by an internal mutex, so domains may share a source. *)

(** {1 Budget modes} *)

type mode =
  | Uniform  (** one round: the budget split evenly across targets *)
  | Adaptive
      (** pilot round by analytical prior, then width x impact
          refinement rounds until every ranking resolves or the budget
          is spent *)

val mode_to_string : mode -> string
(** ["uniform"] / ["adaptive"] — the [--plan] CLI values, also used by
    {!Runner.Config.encode}. *)

val mode_of_string : string -> (mode, string) result

(** {1 Analytical priors} *)

type prior = {
  target : string;
  cells : int;  (** (module, input, output) cells the target feeds *)
  spread : float;
      (** expected binomial variance mass, Sum p(1-p) over fed cells *)
  reach : float;
      (** probability an error on the target reaches any system
          output, under the prior matrices *)
  weight : float;  (** pilot allocation weight, [spread * (0.5 + reach)] *)
}

val priors :
  model:Propagation.System_model.t -> targets:string list -> unit -> prior list
(** One prior per target, in the given order, under flat 0.5
    permeabilities (the maximum-entropy prior).  [reach] is the
    noisy-or over the system outputs of the target's row in one
    {!Propagation.Monte_carlo.arrival_matrix} call (2,000 trials, a
    fixed seed) over every target that is a signal of the model.
    Targets no module consumes get [cells = 0] and a floor weight, so
    they still receive pilot coverage (estimation needs every campaign
    target injected at least once). *)

(** {1 Construction} *)

type t

val create :
  ?mode:mode ->
  ?select:(int -> bool) ->
  ?window_ms:int ->
  ?round_budget:int ->
  budget:int ->
  model:Propagation.System_model.t ->
  campaign:Campaign.t ->
  unit ->
  t
(** A budgeted plan over the campaign's experiment indices.  [mode]
    defaults to [Adaptive].  [select] restricts the schedulable
    indices (the cache-reuse filter of {!Reuse.select}: cells already
    measured get {e zero} fresh allocation).  The pilot round
    allocates by {!priors} over the campaign's targets.
    [window_ms] configures the internal {!Estimator.Stream} and must
    match the campaign's estimation settings.  [round_budget] caps the
    runs granted per refinement round (default [max targets (budget /
    8)]); the pilot additionally guarantees one run per target.
    @raise Invalid_argument if [budget < 1] or smaller than the number
    of targets with selectable runs. *)

val static :
  ?select:(int -> bool) -> done_:(int -> bool) -> total:int -> unit -> t
(** The unplanned work source: every selected, not-yet-done index in
    one round, in index order — byte-identical journals and identical
    scheduling to the historical cursor implementations it replaces.
    [done_] marks indices whose outcome a resumed journal already
    holds. *)

val is_planned : t -> bool
(** [false] for {!static} sources.  Planned sources may leave
    campaign indices permanently unexecuted (budgeting is the point);
    backends use this to relax their "every gap is explained by a stop
    rule" assertions and to journal rounds on finish. *)

(** {1 The work-source protocol} *)

val prime : t -> index:int -> Results.outcome -> unit
(** Bank a replayed outcome in a budget plan before scheduling starts
    (the resume path).  Primed indices are never handed out by
    {!take}; when a round allocates one, its banked outcome feeds the
    barrier as if just executed, which is how resume re-derives the
    round sequence.  A {!static} source learns its replayed indices
    from [done_] instead.
    @raise Invalid_argument on a {!static} source, or after the first
    {!take}. *)

val take : t -> max:int -> int list
(** Up to [max] runnable indices, ascending, removed from the queue.
    [[]] means "nothing runnable {e now}": either {!exhausted}, or a
    round barrier is waiting on in-flight runs — parallel executors
    must block on completions, not exit, until {!exhausted}. *)

val requeue : t -> int list -> unit
(** Return taken-but-unfinished indices (dead worker) to the head of
    the queue, keeping ascending order. *)

val complete : t -> index:int -> Results.outcome -> unit
(** Record one finished run.  When the last in-flight run of a round
    lands, the barrier advances: outcomes feed the internal analysis
    in index order and the next round is allocated (or the plan
    finishes).  Duplicate completions are ignored. *)

val exhausted : t -> bool
(** No further index will ever be handed out and none is in flight —
    the executor's termination condition. *)

val pending : t -> int
(** Indices runnable right now (queue length). *)

val candidates : t -> int list
(** Every index the source could ever schedule, ascending — what a
    backend must prepare goldens for.  Excludes primed indices. *)

val fresh_scheduled : t -> int
(** Cumulative count of indices enqueued for execution so far (primed
    indices excluded) — the "scheduled" figure backends report. *)

val allocated : t -> int
(** Total runs granted across all rounds so far. *)

val rounds : t -> Journal.round list
(** The allocation history, in (round, target) order — what
    {!Journal.append_rounds} persists.  Empty for static sources. *)
