(** Live campaign analysis and adaptive stopping.

    A [Live.t] folds campaign outcomes into a streaming estimator
    ({!Estimator.Stream}) one at a time.  {!observe} updates the
    permeability counters of the modules the injected signal feeds,
    recomputes the relative permeability ({!Propagation.Ranking.relative})
    of those modules only, and re-ranks the modules
    ({!Propagation.Ranking.rank_relative}): O(modules) per outcome, with
    no graph, tree or path work.  The full analysis is computed on
    demand by {!snapshot}.  Because the stream reproduces batch
    estimation exactly (property-tested), that analysis equals what
    [estimate_all] + [Analysis.run] would compute over the outcomes
    seen so far, and the ranking {!observe} tracks is the one its
    [module_rows] carry.

    On top of the rolling ranking sit the adaptive stop {!rule}s of
    [Runner.run ?stop_when]:

    - [`Rankings_stable n] — the relative-permeability module ranking
      has not changed for [n] consecutive observed runs.  Useful as
      "stop when more runs stopped teaching us anything about order".
    - [`Ci_width w] — every 95% interval over the pairs the campaign
      injects into is at most [w] wide.  Useful as "stop at a target
      precision". *)

type rule = [ `Rankings_stable of int | `Ci_width of float ]

val pp_rule : Format.formatter -> rule -> unit
(** Renders in the CLI's [--stop-when] syntax
    ([rankings-stable:3], [ci-width:0.1]). *)

val rule_to_string : rule -> string
(** Same syntax as {!pp_rule} but floats are rendered exactly ([%h]),
    so {!rule_of_string} round-trips bit for bit — the form campaign
    recipes ({!Runner.Config.encode}) embed. *)

val rule_of_string : string -> (rule, string) result
(** Parses both {!pp_rule} and {!rule_to_string} renderings, with the
    CLI's bounds: [rankings-stable:N] needs [N >= 1], [ci-width:W]
    needs [0 < W <= 1]. *)

(** What the runner reports per run through [Analysis_tick] events. *)
type digest = {
  runs_observed : int;
  max_ci_width : float;
      (** widest interval over the campaign's target pairs *)
  stable_for : int;
      (** consecutive runs with an unchanged module ranking *)
  resolved_modules : int;  (** rows with non-overlapping CIs *)
  module_count : int;
}

type t

val create :
  ?attribution:Estimator.attribution ->
  model:Propagation.System_model.t ->
  targets:string list ->
  unit ->
  t
(** [targets] are the campaign's injection targets
    ({!Campaign.t.targets}); they scope the [`Ci_width] rule to the
    pairs the campaign can actually narrow.  [attribution] must match
    what the final batch estimation uses, otherwise live and post-hoc
    analyses disagree. *)

val observe : t -> Results.outcome -> digest
(** Fold one outcome in and return the refreshed digest.  Costs
    O(modules) plus the width scan over the target pairs; it builds no
    analysis.  Call in campaign-index order for resumed runs
    ({!Runner.run} does). *)

val snapshot : t -> (Propagation.Analysis.t, string) result
(** The full analysis of everything observed so far, computed on
    demand: each call runs {!Propagation.Analysis.run} over the
    current matrices. *)

val satisfied : t -> rule -> bool
(** Whether the rule allows stopping now.  Always [false] before the
    first observed run, so a campaign never stops without evidence. *)

val digest : t -> digest
