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
    between the error model's first fire and [window_ms] past its last
    ({!attributed}; one instant for single-shot models).  Direct data
    flow through a module takes at most one activation period plus its
    filter horizons (here < 40 ms), while the loop back through valve,
    airframe and sensors takes hundreds; the default 64 ms window
    separates the two regimes cleanly.  A window at least as long as a
    run's truncation counts every divergence.

    The counts themselves are kept in one place, {!Stream}; a finished
    campaign goes through it too ({!estimate_all}). *)

val default_window_ms : int
(** 64 ms. *)

val attributed : window_ms:int -> Results.outcome -> string -> bool
(** [attributed ~window_ms outcome output]: the outcome's divergence of
    [output] counts as a direct error, i.e. it falls between the
    injection's first fire and [window_ms] past its last fire.  No
    window overflows, [max_int] included.  Failed runs are not judged
    here: the estimator counts them as errors on every output, and
    [Latency] skips them. *)

val estimate_all :
  ?window_ms:int ->
  model:Propagation.System_model.t ->
  Results.t ->
  (Propagation.Perm_matrix.t Propagation.String_map.t, string) result
(** Matrices for every module of the model: the outcomes folded into one
    {!Stream} ([window_ms] defaults to {!default_window_ms}), so each
    cell is [n_err / n_inj] with its counts and 95% Wilson interval.
    [Error] lists the module input signals the campaign never injected
    into (an incomplete campaign would silently bias every downstream
    measure to zero). *)

(** Streaming (one outcome at a time) permeability estimation: the one
    place Eq. 1 is counted.

    A [Stream.t] keeps an [n_err]/[n_inj] counter per input/output pair
    and updates it run by run as outcomes arrive.  For each outcome,
    every pair whose input is the injected signal gains an injection,
    and an error when the run failed ({!Results.Crashed} or
    {!Results.Hung}: the output was never produced) or the output's
    divergence is {!attributed}.  Counting is commutative, so the
    matrices do not depend on arrival order, and rows exported by
    {!counts_row} can be seeded back in at any time ({!seed_row}).
    Campaign endings, live analysis ([Live]), the budget plan ([Plan]),
    cell reuse ([Reuse]) and {!estimate_all} all count through it. *)
module Stream : sig
  type t

  val create :
    ?window_ms:int ->
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
