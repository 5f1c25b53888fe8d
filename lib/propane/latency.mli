(** Propagation-latency statistics.

    PROPANE's traces time-stamp every divergence, so beyond the
    permeability {e probability} the campaign also yields the
    {e latency} with which errors cross each input/output pair — the
    quantity that, together with coverage, drives mechanism selection
    in the hardware-EDM study the paper cites as [18].  Latency here is
    the millisecond distance between the error model's first fire and
    the output's first divergence, over the completed runs whose
    divergence the estimator attributes to the injection
    ({!Estimator.attributed}: for an intermittent model, up to the
    window past its last fire). *)

type stats = {
  pair : Propagation.Perm_graph.pair;
  samples : int;  (** direct errors contributing a latency *)
  min_ms : int;
  max_ms : int;
  mean_ms : float;
  median_ms : int;
}

val all_stats :
  ?window_ms:int ->
  model:Propagation.System_model.t ->
  Results.t ->
  stats list
(** The statistics of every input/output pair with at least one
    error attributed within [window_ms] (default
    {!Estimator.default_window_ms}), module by module in model order, each module's
    pairs in row-major order. *)

val pp_stats : Format.formatter -> stats -> unit
