(** A permeability value together with its provenance.

    The paper estimates every permeability experimentally as
    {m P_(i,k) = n_err / n_inj} (Section 6); an analysis built on bare
    floats cannot tell a well-measured 0.5 from a single coin flip.  An
    estimate keeps the point value, the raw counts behind it and a 95%
    Wilson score interval, so every derived measure (exposure, path
    weights, rankings) can carry interval bounds and report whether an
    ordering is statistically resolved.

    Two provenances exist: {!of_counts} for measured values (interval
    from the counts) and {!exact} for postulated or analytically known
    values (zero-width interval, no counts).  Interval arithmetic here
    is deliberately simple — products and sums of bounds — which is
    conservative: it brackets the true propagation of uncertainty
    without modelling correlations between estimates. *)

type t = private {
  value : float;  (** the point value, {m n_err / n_inj} or postulated *)
  n_err : int;  (** observed errors; 0 for exact values *)
  n_inj : int;  (** injections behind the estimate; 0 for exact values *)
  lo : float;  (** lower 95% confidence bound, [lo <= value] *)
  hi : float;  (** upper 95% confidence bound, [value <= hi] *)
}

val wilson_interval : errors:int -> trials:int -> float * float
(** 95% Wilson score interval for a binomial proportion, clamped to
    [[0, 1]] and guaranteed to contain [errors/trials] (the closed form
    can drift a few ulps past either property at the boundaries);
    [(0., 1.)] when [trials = 0].
    @raise Invalid_argument if [errors] is outside [0, trials]. *)

val exact : float -> t
(** A postulated or analytically known probability: zero-width interval
    and no counts.  @raise Invalid_argument outside [0, 1] (NaN
    included). *)

val of_counts : errors:int -> trials:int -> t
(** A measured estimate: value [errors/trials] (0 when [trials = 0],
    the convention of an unmeasured pair) and the Wilson interval of
    the counts — the maximally uninformative [(0, 1)] when nothing was
    measured.  @raise Invalid_argument if [errors] is outside
    [0, trials]. *)

val value : t -> float
val interval : t -> float * float

val width : t -> float
(** [hi - lo]; 0 for exact values. *)

val is_measured : t -> bool
(** [true] iff the estimate came from {!of_counts} with at least one
    trial. *)

val zero : t
(** [exact 0.] *)

(** {1 Interval arithmetic}

    Derived estimates carry no counts ([n_err = n_inj = 0]); only the
    value and the propagated bounds survive.  Sums may exceed 1 — the
    non-weighted measures of Eqs. (3) and (5) are not probabilities. *)

val mul : t -> t -> t
val prod : t list -> t
val add : t -> t -> t
val sum : t list -> t

val scale : float -> t -> t
(** Multiply value and both bounds by a non-negative factor.
    @raise Invalid_argument on a negative or NaN factor. *)

(** {1 Comparison} *)

val separated : t -> t -> bool
(** The confidence intervals do not intersect: the ordering of the two
    values is outside each other's confidence interval. *)

val equal : ?eps:float -> t -> t -> bool
(** Value and bounds within [eps] (default [1e-12]) {e and} identical
    counts. *)
