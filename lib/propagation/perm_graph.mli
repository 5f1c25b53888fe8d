(** The permeability graph (Section 4.2, Fig. 3 / Fig. 9).

    Nodes are software modules; each input/output pair [(i, k)] of a
    module [M] contributes one arc per consumer of the signal bound to
    output [k], weighted with the error permeability {m P^M_(i,k)}.
    When output [k] is a system output, the pair contributes an arc to a
    virtual environment sink instead.  There may therefore be more arcs
    between two nodes than there are signals between the corresponding
    modules.

    Incoming arcs of a node feed the {!Exposure} measures; the graph as
    a whole feeds the {!Backtrack_tree} and {!Trace_tree} builders. *)

type pair = { module_name : string; input : int; output : int }
(** Identity of a permeability value: I/O pair [(input, output)] of
    module [module_name], ports 1-based.  This is the paper's
    {m P^M_(i,k)} label (e.g. [{module_name = "CALC"; input = 2; output
    = 1}] for {m P^CALC_(2,1)}). *)

type destination =
  | To_module of string * int  (** consumer module and its input port *)
  | To_environment  (** output [k] is a system output *)

type arc = {
  pair : pair;
  weight : float;  (** the permeability value of the pair *)
  estimate : Estimate.t;  (** the full estimate behind [weight] *)
  signal : Signal.t;  (** signal bound to output [k] of the source *)
  destination : destination;
}

type t

val build :
  System_model.t -> Perm_matrix.t String_map.t -> (t, string) result
(** Builds the graph.  Fails when a module lacks a matrix or a matrix
    has the wrong dimensions.  Zero-weight arcs are {e kept} (the paper
    allows omitting them from drawings; the analysis code filters where
    appropriate). *)

val build_exn : System_model.t -> Perm_matrix.t String_map.t -> t
(** @raise Invalid_argument on the errors {!build} reports. *)

val model : t -> System_model.t
val matrix : t -> string -> Perm_matrix.t
(** @raise Not_found for an unknown module. *)

val permeability : t -> pair -> float
(** Weight of a pair.  @raise Invalid_argument on unknown module/ports. *)

val arcs : t -> arc list
val incoming_arcs : t -> string -> arc list
(** Arcs whose destination is the given module (module-local feedback
    arcs included). *)


val pp_pair : Format.formatter -> pair -> unit
(** Prints the paper's notation, e.g. ["P^CALC_{2,1}"]. *)

val pp : Format.formatter -> t -> unit

module Pair_set : Set.S with type elt = pair
