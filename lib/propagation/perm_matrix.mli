(** Error-permeability matrices.

    For a module with [m] inputs and [n] outputs, the permeability matrix
    holds the [m * n] values {m P^M_(i,k) = Pr(error on output k | error
    on input i)} of Eq. (1).  All entries are probabilities in [0, 1].

    Every cell is an {!Estimate.t}: a matrix built from experimental
    counts ({!set_estimate}, {!of_estimates}) remembers [n_err]/[n_inj]
    and the 95% confidence interval of each cell, while the float-based
    constructors ({!of_rows}, {!set}) produce postulated values with
    zero-width intervals.  The float accessors below see only the point
    values, so code that does not care about uncertainty is unaffected.

    The two module-level measures of Section 4.1 are derived from the
    matrix: {!relative} is Eq. (2) and {!non_weighted} is Eq. (3). *)

type t

val create : inputs:int -> outputs:int -> t
(** All-zero matrix.  @raise Invalid_argument unless both dimensions are
    at least 1. *)

val of_rows : float array array -> t
(** [of_rows rows] builds a matrix where [rows.(i-1).(k-1)] is
    {m P_(i,k)}, every cell an exact (zero-width) estimate.
    @raise Invalid_argument if the array is empty, ragged, or contains a
    value outside [0, 1] (NaN included). *)

val of_estimates : Estimate.t array array -> t
(** Like {!of_rows} for full estimates.  @raise Invalid_argument if the
    array is empty, ragged, or an estimate's bounds leave [0, 1]. *)

val input_count : t -> int
val output_count : t -> int

val get : t -> input:int -> output:int -> float
(** 1-based ports.  @raise Invalid_argument when out of range. *)

val estimate : t -> input:int -> output:int -> Estimate.t
(** The full estimate behind a cell.  @raise Invalid_argument when out
    of range. *)

val set : t -> input:int -> output:int -> float -> t
(** Functional update to an exact value.  @raise Invalid_argument if the
    value is outside [0, 1] or the ports are out of range. *)

val set_estimate : t -> input:int -> output:int -> Estimate.t -> t
(** Functional update keeping counts and interval.
    @raise Invalid_argument if the estimate's bounds leave [0, 1] or the
    ports are out of range. *)

val relative : t -> float
(** Eq. (2): {m P^M = (1 / (m n)) * sum_i sum_k P_(i,k)}, in [0, 1]. *)

val non_weighted : t -> float
(** Eq. (3): {m Pbar^M = sum_i sum_k P_(i,k)}, in [0, m*n]. *)

val relative_estimate : t -> Estimate.t
(** Eq. (2) with interval bounds propagated cell-wise. *)

val non_weighted_estimate : t -> Estimate.t
(** Eq. (3) with interval bounds propagated cell-wise. *)

val row : t -> input:int -> float array
(** Copy of the permeabilities from one input to every output. *)

val row_sum : t -> input:int -> float
val column_sum : t -> output:int -> float
val column_sum_estimate : t -> output:int -> Estimate.t

val fold : (input:int -> output:int -> float -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over all pairs in row-major order, ports 1-based. *)

val fold_estimates :
  (input:int -> output:int -> Estimate.t -> 'a -> 'a) -> t -> 'a -> 'a
(** {!fold} over the full estimates. *)

val equal : ?eps:float -> t -> t -> bool
(** Entry-wise comparison of point values with tolerance [eps] (default
    [1e-12]); provenance is ignored. *)

val equal_estimates : ?eps:float -> t -> t -> bool
(** Entry-wise comparison including counts and interval bounds. *)
