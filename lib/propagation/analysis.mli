(** End-to-end propagation analysis.

    [run model matrices] performs the complete pipeline of Sections 4-5:
    build the permeability graph, grow the backtrack tree of every system
    output and the trace tree of every system input, tabulate the module
    and signal measures, enumerate and rank propagation paths, and derive
    placement recommendations.  This is the function a user of the
    library calls after estimating (or postulating) the permeability
    matrices.

    Live campaign analysis ([Propane.Live]) does not run this pipeline
    per outcome: it re-ranks modules by relative permeability alone
    ({!Ranking.rank_relative}, O(modules) per outcome) and calls {!run}
    only when a full snapshot is asked for. *)

type t = {
  graph : Perm_graph.t;
  backtrack_trees : (Signal.t * Backtrack_tree.t) list;
      (** one per system output, in declaration order *)
  trace_trees : (Signal.t * Trace_tree.t) list;
      (** one per system input, in declaration order *)
  module_rows : Ranking.module_row list;  (** Table 2 *)
  signal_rows : Ranking.signal_row list;  (** Table 3 *)
  output_paths : (Signal.t * Ranking.path_row list) list;
      (** Table 4: per system output, non-zero paths heaviest first *)
  input_paths : (Signal.t * Ranking.path_row list) list;
  placement : Placement.t;
}

val run :
  System_model.t -> Perm_matrix.t String_map.t -> (t, string) result
(** Fails with the message of {!Perm_graph.build} on inconsistent
    matrices. *)

val run_exn : System_model.t -> Perm_matrix.t String_map.t -> t
(** @raise Invalid_argument on the errors {!run} reports. *)

val pp_summary : Format.formatter -> t -> unit
(** Compact human-readable overview of every computed artifact. *)
