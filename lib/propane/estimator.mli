(** Experimental estimation of error permeability (Section 6).

    "Suppose, for module M, we inject [n_inj] distinct errors in input
    [i], and at output [k] observe [n_err] differences compared to the
    GR's, then we can directly estimate the error permeability
    [P_{i,k}] to be [n_err / n_inj]."

    {b Attribution.}  Section 7.3: "We only took into account the
    direct errors on the outputs.  We did not count errors originating
    from errors that propagated via one of the other outputs and then
    came back ...".  In a closed control loop {e every} effective
    injection eventually perturbs the physics, shifts the end of the
    arrestment and thereby re-diverges every signal — without the rule,
    all permeabilities saturate towards 1.  We implement it as a direct
    window: a divergence of output [k] counts only when it appears
    within [window_ms] of the injection instant.  Direct data flow
    through a module takes at most one activation period plus its
    filter horizons (here < 40 ms), while the loop back through valve,
    airframe and sensors takes hundreds; the default 64 ms window
    separates the two regimes cleanly.  {!Any_divergence} counts
    everything (used by the ablation bench). *)

type attribution =
  | Direct of { window_ms : int }
  | Any_divergence

val default_attribution : attribution
(** [Direct {window_ms = 64}]. *)

type estimate = {
  pair : Propagation.Perm_graph.pair;
  injections : int;  (** [n_inj] *)
  errors : int;  (** [n_err] after attribution *)
  value : float;  (** [n_err / n_inj] *)
  interval : float * float;
      (** 95% Wilson score interval (extension beyond the paper) *)
}

val wilson_interval : errors:int -> trials:int -> float * float
(** 95% Wilson score interval for a binomial proportion, clamped to
    [[0, 1]] (the closed form can drift a few ulps outside at the
    boundaries); [(0., 1.)] when [trials = 0].
    @raise Invalid_argument if [errors] is outside [0, trials]. *)

val estimate_pairs :
  ?attribution:attribution ->
  model:Propagation.System_model.t ->
  results:Results.t ->
  string ->
  estimate list
(** All [m * n] estimates of one module, in row-major pair order.
    Pairs whose input signal was never injected get [injections = 0]
    and [value = 0.].

    A {!Results.Crashed} or {!Results.Hung} run never produced the
    output at all, which under the paper's failure-class reading is an
    error on {e every} output pair of its input: it adds one to both
    [injections] and [errors] regardless of the attribution window.
    @raise Invalid_argument for an unknown module. *)

val estimate_matrix :
  ?attribution:attribution ->
  model:Propagation.System_model.t ->
  results:Results.t ->
  string ->
  Propagation.Perm_matrix.t
(** The estimates packed as a permeability matrix. *)

val estimate_all :
  ?attribution:attribution ->
  model:Propagation.System_model.t ->
  Results.t ->
  (Propagation.Perm_matrix.t Propagation.String_map.t, string) result
(** Matrices for every module of the model.  [Error] lists the module
    input signals the campaign never injected into (an incomplete
    campaign would silently bias every downstream measure to zero). *)

(** Streaming (one outcome at a time) permeability estimation.

    A [Stream.t] accumulates the same [n_err]/[n_inj] counters that
    {!estimate_pairs} derives from a finished campaign, but updates
    them run by run as outcomes arrive.  Counting is commutative, so a
    stream fed the outcomes of a campaign in {e any} order holds
    matrices identical (counts included) to {!estimate_all} over the
    same results — the equivalence is property-tested.  This is what
    lets live analysis ([Live]) and adaptive stopping reuse the exact
    batch semantics without re-scanning all results after every run. *)
module Stream : sig
  type t

  val create :
    ?attribution:attribution ->
    model:Propagation.System_model.t ->
    unit ->
    t

  val observe : t -> Results.outcome -> unit
  (** Fold one run outcome into the counters of every (module, input)
      pair consuming the injected signal.  Outcomes targeting signals
      no module consumes are counted as runs but update nothing. *)

  val matrices : t -> Propagation.Perm_matrix.t Propagation.String_map.t
  (** Current matrices for every module (zero-trial cells where nothing
      was injected yet), cells carrying their counts via
      {!Propagation.Estimate.of_counts}. *)

  val drain_dirty : t -> (string * Propagation.Perm_matrix.t) list
  (** Matrices of the modules touched since the previous drain, in
      model declaration order, and reset the dirty set.  [Live] re-ranks
      only these modules after each outcome. *)

  val counts_row : t -> module_name:string -> target:string -> (int * int) array option
  (** Current [(n_err, n_inj)] counters of the (module, input) pair, in
      module-output declaration order — the raw material a {!Cache}
      entry persists.  [None] when the module does not consume the
      target. *)

  val seed_row : t -> module_name:string -> target:string -> (int * int) array -> unit
  (** Fold a previously exported row ({!counts_row}, or a {!Cache}
      entry) into the pair's counters, as if the runs that produced it
      had been observed.  Counting is commutative, so seeding before,
      between or after live {!observe} calls yields identical matrices.
      @raise Invalid_argument on an unknown pair, an output-count
      mismatch, or counters with [n_err > n_inj]. *)

  val runs_observed : t -> int

  val max_width : targets:string list -> t -> float
  (** Width of the widest 95% interval over all pairs fed by the given
      injection targets; 0 when the targets reach no pair.  Pairs
      outside the campaign's target set never narrow and are excluded,
      otherwise a [`Ci_width] stop rule could never trigger. *)

  val target_width : t -> target:string -> float
  (** {!max_width} scoped to the pairs one injection target feeds; 0
      when no module consumes the target.  This is the per-target
      uncertainty score the injection-budget planner ({!Plan})
      allocates rounds by. *)
end
