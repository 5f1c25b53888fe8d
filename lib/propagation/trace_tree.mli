(** Trace trees: input error tracing (Section 4.2, steps B1-B4).

    A trace tree is rooted at a system input signal.  Expanding a node
    carrying a signal consumed at input [i] of module [M] creates one
    child per output [k] of [M]; the child carries the signal bound to
    output [k] and the arc to it is weighted {m P^M_(i,k)}.  A signal
    consumed by several modules expands through each consumer (the
    paper's systems are single-consumer; this is a safe generalisation).

    Children become leaves when their signal is a system output.
    Module-local feedback is followed exactly once: a child whose signal
    already appears on the root path is omitted entirely (Fig. 12: "we
    do not have a child node from [i] that is [i] itself"), while the
    remaining outputs still generate sub-trees.  A signal that is neither
    consumed nor a system output becomes a {!Dead_end} leaf. *)

type leaf =
  | System_output
  | Dead_end  (** internal signal nobody consumes (not in the paper) *)

type node = {
  signal : Signal.t;
  kind : kind;
  children : child list;
}

and kind =
  | Root
  | Produced of { producer : string; output : int }
  | Leaf_of of leaf * string * int
      (** leaf signal together with the module/output that produced it *)

and child = {
  weight : float;
  estimate : Estimate.t;
  pair : Perm_graph.pair;
  node : node;
}

type t = { root : node }

val build : Perm_graph.t -> Signal.t -> t
(** [build graph input] builds the trace tree rooted at [input].
    @raise Invalid_argument if [input] has no consumer at all. *)

val build_all : Perm_graph.t -> t list
(** One tree per declared system input (step B4). *)

val leaf_count : t -> int
val depth : t -> int

val fold : ('a -> node -> 'a) -> 'a -> t -> 'a
(** Pre-order fold over all nodes. *)

val pp : Format.formatter -> t -> unit
