(** Cell-level campaign reuse: plan, classify, select, compose.

    Glue between {!Cell} (identity), {!Cache} (persistence),
    {!Runner.run}'s [?select] (partial execution) and
    {!Estimator.Stream} (composition).  The FastFlip-style contract:
    classify every cell of a campaign against a cache directory, re-run
    only the injection targets feeding at least one {e dirty} cell, and
    stitch cached and fresh counters back into whole-system matrices
    identical — counts, point values and Wilson intervals — to a
    from-scratch campaign (property-tested in [test_propane.ml]).

    Granularity: the unit of {e skipping} is the injection target, not
    the cell, because one run's injection feeds every module consuming
    the target.  A target is {e clean} iff every cell it feeds is
    cached; a single dirty cell re-runs the whole target block, and the
    fresh counters then serve all its cells (overwriting their cache
    entries with identical values for the unchanged modules, by
    determinism of the run streams).

    Soundness caveat (also on {!Cell}): keys cover each module's own
    content digest, not its upstream cone, so an edit that changes the
    {e values} flowing into an unedited module without changing the
    module itself can leave stale cells undetected.  Exact for
    feed-forward systems observed at or below the edit; bump the
    digests of affected consumers (or use a fresh cache directory) when
    in doubt. *)

type t

val plan :
  ?recipe:string ->
  sut:Sut.t ->
  model:Propagation.System_model.t ->
  dir:string ->
  Campaign.t ->
  t
(** Enumerate the campaign's cells ({!Cell.plan}) and classify each
    against the cache in [dir] (which need not exist yet — it is
    created on first {!persist}).  [recipe] (default ["" ]) is folded
    into every key; pass everything estimation depends on beyond the
    campaign itself, e.g. [Runner.Config.encode config] plus the
    attribution window. *)

val total_cells : t -> int
val reused_cells : t -> int

val clean_targets : t -> string list
(** Targets whose every cell was served from the cache (campaign
    order); their runs are skipped.  A target no module of the model
    consumes is vacuously clean — its runs cannot update any cell. *)

val dirty_targets : t -> string list
(** Targets that will be (re-)injected: at least one cell missed —
    unknown key, undigested module, or poisoned entry. *)

val selected_runs : t -> int
(** Runs {!select} admits: [length (dirty_targets t) *
    Campaign.runs_per_target] — the [M] of "stopped early: N of M"
    under a stop rule, which judges freshly injected runs only. *)

val select : t -> int -> bool
(** Experiment-index filter for {!Runner.run}'s [?select] /
    {!Cluster.Coordinator.serve}'s [?select]: admits exactly the runs
    injecting into a dirty target. *)

val journal_cells : t -> Journal.cell list
(** Provenance records for {!Runner.run}'s [?cells]: one per cell,
    plan order, marked [reused] or [fresh]. *)

val compose :
  ?attribution:Estimator.attribution ->
  t ->
  Results.t ->
  Estimator.Stream.t
(** Seed a fresh stream with the cached counters of every clean
    target's cells, then fold in the fresh outcomes.  The returned
    stream's matrices are the composed whole-campaign estimates;
    counting is commutative, so they equal a from-scratch campaign's
    exactly when the cached rows are truthful.  [attribution] must
    match the value the cached rows were measured under (it is
    normally part of [recipe], making a mismatch a cache miss
    instead). *)

val persist : t -> Estimator.Stream.t -> Results.t -> (unit, string) result
(** Store the freshly measured rows back: every cell of a dirty target
    whose run block executed {e completely} (an early-stopped target's
    partial counters would poison later compositions) and whose module
    carries a digest.  Returns the first store error, if any. *)

val stats : t -> Cache.stats
val write_stats : t -> (unit, string) result
(** {!Cache.write_stats} of {!stats} into the plan's directory. *)
