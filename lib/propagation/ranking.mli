(** Tabulated measures with reproducible orderings.

    The functions here compute the rows behind the paper's Tables 2-4:
    per-module permeability/exposure (Table 2), per-signal exposure
    (Table 3) and weighted propagation paths (Table 4).  All sorts are
    total (ties broken by name) so repeated runs print identically.

    Every row also carries the {!Estimate.t} behind each measure and a
    [resolved] flag: a row is resolved when its confidence interval for
    the ordering measure does not overlap the next row's, i.e. the rank
    order of the two adjacent rows cannot be inverted by estimation
    noise at the 95% level.  Rows built from postulated (exact) matrices
    have zero-width intervals and are always resolved. *)

type module_row = {
  module_name : string;
  relative_permeability : float;  (** {m P^M}, Eq. (2) *)
  non_weighted_permeability : float;  (** {m Pbar^M}, Eq. (3) *)
  exposure : float;  (** {m X^M}, Eq. (4) *)
  non_weighted_exposure : float;  (** {m Xbar^M}, Eq. (5) *)
  relative_permeability_est : Estimate.t;
  non_weighted_permeability_est : Estimate.t;
  exposure_est : Estimate.t;
  non_weighted_exposure_est : Estimate.t;
  resolved : bool;
      (** rank vs. the next row is outside overlapping CIs (see above) *)
}

type signal_row = {
  signal : Signal.t;
  exposure : float;  (** {m X^S}, Eq. (6) *)
  exposure_est : Estimate.t;
  resolved : bool;
}

type path_row = {
  rank : int;  (** 1-based position after sorting by weight *)
  path : Path.t;
  weight : float;
  interval : float * float;  (** interval product bounds of the weight *)
  resolved : bool;
}

type module_key =
  | By_relative_permeability
  | By_non_weighted_permeability
  | By_exposure
  | By_non_weighted_exposure

val module_rows : Perm_graph.t -> module_row list
(** One row per module, in system declaration order.  [resolved] is
    judged against the neighbours in the {!By_relative_permeability}
    ranking (the primary ordering of Table 2), as {!rank_relative}
    computes it. *)

type relative
(** A module's relative permeability {m P^M} (Eq. 2) with its estimate:
    the sort key of the primary ranking, which needs the module's own
    matrix but no graph.  Live analysis ranks these after every
    outcome. *)

val relative : string -> Perm_matrix.t -> relative
(** [relative name matrix] for the module called [name]. *)

val rank_relative : relative list -> (string * bool) list
(** Module names in descending relative permeability, ties broken by
    name, each with its [resolved] flag.  The result does not depend
    on the order of the argument.  {!module_rows} takes its [resolved]
    flags from here. *)

val sort_module_rows : module_key -> module_row list -> module_row list
(** Descending by the chosen measure; ties broken by module name.
    [resolved] is recomputed for the chosen key. *)

val signal_rows : Perm_graph.t -> signal_row list
(** One row per internal signal (system inputs have exposure 0 and are
    omitted, matching Table 3), sorted descending by exposure. *)

val path_rows : ?include_zero:bool -> Backtrack_tree.t -> path_row list
(** Paths of a backtrack tree sorted heaviest-first and ranked.  By
    default zero-weight paths are dropped, as in Table 4 (13 of the 22
    paths survive for the paper's system); pass [~include_zero:true] to
    keep all. *)

val trace_path_rows : ?include_zero:bool -> Trace_tree.t -> path_row list
(** Same for the paths of a trace tree. *)

val pp_module_row : Format.formatter -> module_row -> unit
val pp_signal_row : Format.formatter -> signal_row -> unit
