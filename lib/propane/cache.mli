(** Content-addressed store of per-cell campaign counters.

    One file per {!Cell} key under a cache directory, carrying the
    cell's raw [n_err]/[n_inj] counters per module output.  Counts —
    not point estimates — are what is persisted, so a reused cell
    reconstructs the exact {!Propagation.Estimate.t} a fresh campaign
    would compute, 95% Wilson intervals included.

    The store is self-healing: a missing, truncated or otherwise
    malformed entry is reported as a miss and simply re-measured, never
    an error.  Writes go through a temporary file and an atomic rename,
    so a killed campaign cannot leave a torn entry behind. *)

type entry = {
  module_name : string;
  target : string;
  outputs : string array;  (** module outputs, declaration order *)
  counts : (int * int) array;
      (** per output: (n_err, n_inj), same order as [outputs] *)
}

val store : dir:string -> key:string -> entry -> (unit, string) result
(** Persist [entry] under [key], creating [dir] if needed.  Fails only
    on I/O errors or a field containing a separator character. *)

val load : dir:string -> key:string -> entry option
(** [None] on a missing or malformed entry (a malformed file is a
    cache miss by design, not an error). *)

val mem : dir:string -> key:string -> bool
(** Cheap existence probe ({!load} still validates content). *)

type stats = {
  cells : int;  (** cells in the campaign plan *)
  reused : int;  (** cells served from the cache *)
  fresh : int;  (** cells (re-)measured by injection *)
  runs_total : int;  (** full campaign size *)
  runs_selected : int;  (** runs actually scheduled (dirty targets) *)
}

val write_stats : dir:string -> stats -> (unit, string) result
(** Write [stats] as JSON to [dir]/stats.json (atomic, like
    {!store}) — the artifact CI uploads to track cache-hit rates. *)
