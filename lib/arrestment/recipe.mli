(** The arrestment campaign recipe: one value that defines a campaign
    of the paper's Section 7.3 system, with one codec.

    Every entry point that runs or inspects an arrestment campaign
    builds it here — the CLI's [campaign], [plan], [worker], [replay],
    [estimate] and [analyze --by-model], the service's submission
    parser, the bench harness's [models] target and the
    [arrestment_study] example — so they cannot disagree on what a
    flag means or which grid a table was measured on.  The
    encoding is the opaque string a journal header and a cluster
    Assign carry: a bare [propane worker] or a later [propane replay]
    rebuilds the exact campaign and SUT from it. *)

type t = {
  cases : int;  (** test cases per axis: [cases] masses x [cases] velocities *)
  times : int;  (** injection instants, evenly spread over 0.5-5.0 s *)
  full : bool;  (** the paper's grid: {!make} and {!decode} set 5 cases, 10 times *)
  model : string;  (** error-model roster ({!Propane.Error_model.roster_of_string}) *)
  window : int;  (** direct-attribution window in ms ({!Propane.Estimator}) *)
  config : Propane.Runner.Config.t;  (** the options the campaign runs under *)
  chaos_crash : int option;  (** {!Propane.Fault} crash delay, ms after injection *)
  chaos_hang : int option;  (** {!Propane.Fault} hang delay, ms after injection *)
}

val default_model : string
(** ["single-bit"]: the paper's one flip per bit position. *)

val make :
  ?cases:int -> ?times:int -> ?full:bool -> ?model:string -> ?window:int ->
  ?seed:int64 -> ?run_timeout_ms:int -> ?retries:int -> ?fail_fast:bool ->
  ?jobs:int -> ?journal:string -> ?resume:bool -> ?journal_batch:int ->
  ?stop_when:Propane.Live.rule -> ?budget:int -> ?plan:Propane.Plan.mode ->
  ?chaos_crash:int -> ?chaos_hang:int -> unit -> t
(** The one mapping from campaign flags to a recipe, with the CLI's
    defaults (3 cases, 4 times, {!default_model}, the
    {!Propane.Estimator.default_window_ms} window, the config's other
    defaults).  [truncate_after_ms] is twice the window;
    a [run_timeout_ms] of 0 or less means no watchdog.  Never fails;
    see {!validate}. *)

val validate : t -> (unit, string) result
(** [cases >= 2], [times >= 1], [window >= 1], both chaos delays
    [>= 0], a roster that parses, and {!Propane.Runner.Config.validate}. *)

val encode : t -> string
(** The campaign's identity as one line without tabs or newlines.  The
    config's [`Resumable] fields ({!Propane.Runner.Config.role}) are
    written at their defaults, so every invocation that may resume one
    journal writes the same header. *)

val decode : string -> (t, string) result
(** Inverse of {!encode} on recipes whose resumable fields are at their
    defaults; the decoded recipe is {!validate}d. *)

val first_difference : t -> t -> (string * string * string) option
(** The first field, in encoding order, on which two recipes describe
    different campaigns, with both values; the config's fields count
    one by one.  [None] when they differ in resumable fields only. *)

val key : t -> string
(** The cache-key recipe ({!Propane.Reuse.plan}): the encoding minus
    every field that cannot change a completed run's outcome — the
    config's resumable and plan fields, and the grid and roster, which
    {!Propane.Cell} keys by canonical shape and error digests. *)

val sut : t -> Propane.Sut.t
(** The arrestment SUT, wrapped in the recipe's chaos faults. *)

val campaign : t -> Propane.Campaign.t
(** The recipe's campaign over {!Model.injection_targets}; a recipe
    with a non-default roster names it in the campaign name. *)

type prepared = {
  sut : Propane.Sut.t;
  campaign : Propane.Campaign.t;
  reuse : Propane.Reuse.t option;  (** the cell classification under a cache *)
  select : (int -> bool) option;  (** {!Propane.Reuse.select} *)
  cells : Propane.Journal.cell list option;  (** {!Propane.Reuse.journal_cells} *)
  plan : Propane.Plan.t option;  (** fresh budget scheduler, when [budget] is set *)
  live : Propane.Live.t option;  (** fresh live analysis *)
}
(** What a backend ({!Propane.Runner.run}, the cluster coordinator,
    the service) needs to execute a recipe. *)

val prepare : ?reuse:string -> ?live:bool -> t -> prepared
(** Builds a fresh {!prepared}.  [reuse] classifies the campaign's
    cells against that cache directory under {!key}.  The live
    analysis exists when [live] (default [false]) is [true] or the
    config sets [stop_when] or [budget]; under [reuse] it watches the
    dirty targets only.  The budget plan skips the cached targets.
    @raise Invalid_argument on a recipe {!validate} refuses, or a
    budget the plan cannot spread. *)

val analyse :
  ?reuse:Propane.Reuse.t ->
  window:int ->
  Propane.Results.t ->
  (Propagation.Analysis.t, string) result
(** The one estimation ending: folds the results into one
    {!Propane.Estimator.Stream} — seeded with the clean cells under
    [reuse], whose freshly measured cells and statistics are then
    written back — and runs the propagation analysis on its matrices.
    A partial campaign (stop rule, budget) leaves zero-trial cells
    where it never injected. *)

val models : string list
(** The error-model rosters of the ablation, single-bit baseline first. *)

type ablation_row = {
  spec : string;  (** roster label, e.g. ["single-bit"] or ["burst:4"] *)
  runs : int;  (** campaign size for this roster *)
  estimates : (string * Propagation.Estimate.t * bool) list;
      (** per module, highest relative permeability first: its value
          with the 95% interval, and whether the rank vs. the next
          module is resolved *)
  tau_vs_baseline : float;
      (** Kendall tau of this module order against the single-bit
          baseline's; 1.0 for the baseline itself *)
}

val ranking : ablation_row -> string
(** The row's modules, highest first, joined by [" > "] where the rank
    against the next module is resolved and by [" ~ "] where their 95%
    intervals overlap. *)

val ablation : t -> (ablation_row list, string) result
(** The error-model ablation: how far does the module ranking move when
    the fault model changes?  One campaign per roster of {!models} on
    the recipe's grid, config, window and SUT, so that ranking shifts
    are attributable to the error model alone — the threat the paper's
    Section 6 names ("the type of injected errors can also effect the
    estimates") but does not measure.  Fails with the estimator's or
    analysis's message on inconsistent matrices. *)
