(** Error-exposure measures (Section 5, Eqs. 4-6).

    Exposure quantifies how much propagating error "traffic" a module or
    signal is expected to see, by summing the permeability weights of the
    arcs feeding it in the permeability graph.  Together with the
    permeability measures of Eqs. (2)-(3), exposure drives the EDM/ERM
    placement recommendations. *)

val module_exposure : Perm_graph.t -> string -> float
(** Eq. (4): {m X^M = Xbar^M / N}.  The paper's prose says [N] is "the
    number of incoming arcs", but its published Table 2 only fits
    [N = m * n] (the module's own pair count): CLOCK has one incoming
    arc of weight 1.000 yet [X^CLOCK = 0.500 = 1.000 / (1 * 2)], and
    V_REG/PRES_A/CALC confirm the same ratio.  We follow the published
    numbers and divide by the pair count; see EXPERIMENTS.md.  [0.0]
    for a module with no incoming arcs (modules reading only system
    inputs — paper OB1). *)

val module_exposure_nw : Perm_graph.t -> string -> float
(** Eq. (5): {m Xbar^M}, the sum of the incoming arc weights. *)

val module_exposure_estimate : Perm_graph.t -> string -> Estimate.t
(** Eq. (4) with interval bounds propagated from the arc estimates. *)

val module_exposure_nw_estimate : Perm_graph.t -> string -> Estimate.t
(** Eq. (5) with interval bounds propagated from the arc estimates. *)

val signal_exposure : Perm_graph.t -> Signal.t -> float
(** Eq. (6): {m X^S}, the sum of the unique arcs leading to the child
    nodes of every node generated by signal [S] in the system's
    backtrack trees.

    Closed form used here: for [S] produced as output [k] of module
    [M], the unique child arcs are exactly the permeability values
    {m P^M_(i,k)} for every input [i], so {m X^S} is the column sum
    {m sum_i P^M_(i,k)}.  System inputs generate only leaves and have
    exposure [0].  {!signal_exposure_via_trees} computes the literal
    tree-based definition; the test suite checks both agree. *)

val signal_exposure_estimate : Perm_graph.t -> Signal.t -> Estimate.t
(** Eq. (6) closed form with interval bounds: the column-sum estimate of
    the producer's matrix. *)

val signal_exposure_via_trees : Backtrack_tree.t list -> Signal.t -> float
(** Literal Eq. (6): collect the set {m S_p} of unique arcs (identified
    by their I/O pair) below all nodes generated by [S] in the given
    backtrack trees, and sum their weights.  Signals that never appear
    in the trees have exposure [0]. *)
