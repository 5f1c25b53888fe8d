(** Workload descriptors.

    Permeability estimates depend on the workload (Section 6: "it is
    generally preferred to have realistic input distributions"); a
    campaign therefore runs every injection under several test cases.  A
    test case is an id plus named numeric parameters — for the
    arrestment system, the mass and engagement velocity of the incoming
    aircraft. *)

type t = private { id : string; params : (string * float) list }

val make : id:string -> params:(string * float) list -> t
(** @raise Invalid_argument on an empty id or duplicate parameter
    names. *)

val id : t -> string
val param : t -> string -> float option
val param_exn : t -> string -> float
(** @raise Invalid_argument when the parameter is missing. *)

val grid : (string * float list) list -> t list
(** Cartesian product of parameter ranges, e.g.
    [grid ["mass", [8000.; 14000.; 20000.]; "velocity", [40.; 60.; 80.]]]
    yields 9 test cases with ids like ["mass=8000/velocity=40"].  The
    paper's study uses a 5 x 5 grid (Section 7.3).
    @raise Invalid_argument on an empty axis or duplicate axis names. *)

val uniform_axis : string -> lo:float -> hi:float -> steps:int -> string * float list
(** [steps] uniformly spaced values from [lo] to [hi] inclusive — the
    paper's "uniformly distributed between 8,000-20,000 kg".
    @raise Invalid_argument unless [steps >= 2] and [lo < hi]. *)
