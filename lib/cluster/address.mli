(** Coordinator endpoint addresses.

    Two transports: Unix-domain sockets ([unix:/path/to.sock]) for
    same-machine worker pools — no ports to allocate, kernel-enforced
    filesystem permissions — and TCP ([tcp:HOST:PORT]) to attach
    workers across machines. *)

type t =
  | Unix_sock of string  (** filesystem path *)
  | Tcp of string * int  (** host (name or dotted quad) and port *)

val of_string : string -> (t, string) result
(** Parses [unix:PATH] or [tcp:HOST:PORT]. *)

val to_string : t -> string
(** Round-trips with {!of_string}. *)

val pp : Format.formatter -> t -> unit

val listen : ?backlog:int -> t -> Unix.file_descr
(** Binds and listens (non-blocking, close-on-exec).  A stale Unix
    socket path is unlinked first; TCP sets [SO_REUSEADDR].
    @raise Unix.Unix_error when binding fails. *)

val accept : Unix.file_descr -> Unix.file_descr list
(** Accepts every connection pending on a {!listen}ing descriptor
    without blocking, oldest first.  The accepted descriptors are
    blocking and close-on-exec, with [TCP_NODELAY] set for TCP. *)

val connect :
  ?attempts:int -> ?delay_s:float -> t -> (Unix.file_descr, string) result
(** Connects, retrying [attempts] times (default 40) every [delay_s]
    (default 0.05) on [ECONNREFUSED]/[ENOENT] — a worker spawned
    alongside the coordinator may race its listener by a moment.  The
    returned descriptor is blocking with [TCP_NODELAY] set for TCP
    (messages are small and latency-sensitive). *)

val unlink : t -> unit
(** Removes a Unix socket path, ignoring errors; no-op for TCP.  Call
    after the listener closes. *)
