(** Propagation-latency statistics.

    PROPANE's traces time-stamp every divergence, so beyond the
    permeability {e probability} the campaign also yields the
    {e latency} with which errors cross each input/output pair — the
    quantity that, together with coverage, drives mechanism selection
    in the hardware-EDM study the paper cites as [18].  Latency here is
    the millisecond distance between the injection instant and the
    output's first divergence, over the runs the estimator counts as
    direct errors. *)

type stats = {
  pair : Propagation.Perm_graph.pair;
  samples : int;  (** direct errors contributing a latency *)
  min_ms : int;
  max_ms : int;
  mean_ms : float;
  median_ms : int;
}

val pair_stats :
  ?attribution:Estimator.attribution ->
  model:Propagation.System_model.t ->
  results:Results.t ->
  string ->
  stats option list
(** One entry per pair of the module (row-major order); [None] when no
    counted error exists for that pair.
    @raise Invalid_argument for an unknown module. *)

val all_stats :
  ?attribution:Estimator.attribution ->
  model:Propagation.System_model.t ->
  Results.t ->
  stats list
(** The defined statistics of every module, flattened. *)

val pp_stats : Format.formatter -> stats -> unit
