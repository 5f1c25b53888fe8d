(** Regeneration of the paper's result tables from an analysis.

    Each function produces the rows of the corresponding table of
    Section 8, given a completed {!Propagation.Analysis.t}.  The bench
    harness prints two instances of each: one from the paper's (partly
    reconstructed) Table 1 values and one from the permeabilities
    measured by this reproduction's fault-injection campaign. *)

val table1 :
  ?reference:Propagation.Perm_matrix.t Propagation.String_map.t ->
  ?ci:bool ->
  Propagation.Analysis.t ->
  Table.t
(** Table 1 — one row per input/output pair of every module: the pair
    in the paper's {m P^M_(i,k)} notation, the signal names, and the
    estimated permeability.  [reference] adds a side-by-side column
    (e.g. the paper's values).  [ci] (default false) adds the counts
    and 95% interval behind each value; postulated matrices show
    [0/0] counts and a zero-width interval. *)

val table2 : ?ci:bool -> Propagation.Analysis.t -> Table.t
(** Table 2 — per module: relative and non-weighted permeability
    (Eqs. 2-3), error exposure and non-weighted exposure (Eqs. 4-5).
    [ci] adds the intervals of {m P^M} and {m X^M} and the row's
    resolvedness (see {!Propagation.Ranking.module_row}). *)

val table3 : ?ci:bool -> Propagation.Analysis.t -> Table.t
(** Table 3 — signal error exposures (Eq. 6), highest first.  [ci]
    adds the exposure interval and resolvedness. *)

val table4 :
  ?ci:bool -> Propagation.Analysis.t -> Propagation.Signal.t -> Table.t
(** Table 4 — the non-zero propagation paths of the backtrack tree of
    the given system output, ordered by weight.  [ci] adds the
    interval-product bounds of each weight and resolvedness.
    @raise Invalid_argument if the output has no tree in the analysis. *)

val input_paths_table :
  ?ci:bool -> Propagation.Analysis.t -> Propagation.Signal.t -> Table.t
(** Companion to Table 4 for a trace tree: the non-zero propagation
    paths from a system input (used for OB4's [pulscnt] argument). *)
