(** Plain-text table rendering for experiment reports. *)

type align = Left | Right

type t

val make :
  ?title:string -> columns:(string * align) list -> string list list -> t
(** [make ~columns rows] builds a table.  @raise Invalid_argument when a
    row's width differs from the header's or there are no columns. *)

val render : t -> string
(** Monospace rendering with a header rule, e.g.:
    {v
    Module   |    P^M |  Pbar^M
    ---------+--------+--------
    CLOCK    |  0.500 |   1.000
    v} *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)

val row_count : t -> int
val column_names : t -> string list

val fold_rows : ('a -> string list -> 'a) -> 'a -> t -> 'a
(** Folds over the data rows in order (header excluded). *)
