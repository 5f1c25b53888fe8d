(** Propagation paths and their weights (Section 4.2).

    A path runs from the root of a backtrack or trace tree to one of its
    leaves.  Its weight is the product of the error-permeability values
    along it: for a backtrack tree rooted at output [O] with leaf input
    [I], the weight is the conditional probability that an error in [O]
    that originated in [I] propagated along exactly this path.

    Given the probability {m Pr(I)} of an error appearing on the input,
    {!adjusted_weight} returns {m P' = Pr(I) * prod P} (the paper's
    adjusted measure). *)

type step = {
  pair : Perm_graph.pair;
  weight : float;
  estimate : Estimate.t;
  signal : Signal.t;
}
(** One arc of the path: the permeability value traversed (with the full
    estimate behind it) and the signal of the node the arc leads to. *)

type terminal =
  | At_system_input
  | At_system_output
  | At_feedback  (** a backtrack path cut at an unrolled feedback leaf *)
  | At_dead_end

type t = {
  source : Signal.t;  (** the tree root *)
  steps : step list;  (** arcs in root-to-leaf order *)
  terminal : terminal;
}

val leaf_signal : t -> Signal.t
(** Signal of the last step ([source] for an empty path). *)

val weight : t -> float
(** Product of the step weights; [1.0] for an empty path. *)

val weight_estimate : t -> Estimate.t
(** Product of the step estimates: the weight with interval bounds
    (product of lower bounds, product of upper bounds). *)

val weight_interval : t -> float * float
(** [Estimate.interval (weight_estimate t)]. *)

val adjusted_weight : input_error_probability:float -> t -> float
(** {m P' = Pr * prod P}.  @raise Invalid_argument unless the
    probability is in [0, 1]. *)

val length : t -> int

val of_backtrack_tree : Backtrack_tree.t -> t list
(** All root-to-leaf paths, in tree order.  22 paths for the paper's
    [TOC2] tree (Table 4 lists the 13 with non-zero weight). *)

val of_trace_tree : Trace_tree.t -> t list

val sort_by_weight : t list -> t list
(** Heaviest first; ties broken by path length (shorter first) then by
    textual rendering, so the order is total and reproducible. *)

val non_zero : t list -> t list

val pp : Format.formatter -> t -> unit
(** e.g. ["TOC2 <- OutValue <- SetValue <- pulscnt <- PACNT (w=0.123)"]
    for backtrack paths (rendered source-first in traversal order). *)
