(** Monte-Carlo propagation on the permeability graph.

    The tree-based path weights (Section 4.2) describe {e individual}
    paths; combining them into "does the error reach the output at all"
    requires handling overlapping paths.  This module estimates that
    union probability directly: in each trial every input/output pair
    transmits independently with its permeability — the natural
    probabilistic reading of Eq. (1) — and an error on a signal reaches
    a system output when a chain of transmitting pairs leads there.

    Each trial is read backwards.  With its draws fixed, a source
    reaches an output exactly when the output reaches the source
    against the transmitting pairs, so one spread from each system
    output, over the pairs that write each marked signal, scores every
    starting signal at once.  A pair is drawn at most once per spread,
    and its draw depends only on the seed, the trial and the pair, so
    the estimates equal a forward spread's from each source, float for
    float (property-tested against one).  Reconvergent paths share
    their draws instead of being treated as independent, and a
    feedback loop closes on a signal already marked, mirroring the
    single unrolling of the trees.

    The estimate is bracketed by the {!Compose} combinators
    ({m max path <= MC <= noisy-or}, property-tested), usually close to
    the noisy-or bound because real systems rarely have many disjoint
    heavy paths.

    Sampling is deterministic: draws are hash-mixed from the seed, the
    trial index and the pair identity, so results reproduce exactly. *)

val arrival_matrix :
  ?trials:int -> seed:int -> Perm_graph.t -> sources:Signal.t list ->
  Perm_matrix.t
(** Estimated probability that an error on each source reaches each
    system output, over [trials] (default 10,000) trials: rows in
    [sources] order, columns in system-output declaration order.  A
    source may be any signal of the graph's model; with
    [System_model.system_inputs] as the sources the matrix is directly
    comparable to {!Compose.equivalent_matrix}.
    @raise Invalid_argument if [trials < 1], [sources] is empty or a
    source is not a signal of the model. *)
