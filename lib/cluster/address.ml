type t = Unix_sock of string | Tcp of string * int

let of_string s =
  match String.index_opt s ':' with
  | Some i when String.equal (String.sub s 0 i) "unix" ->
      let path = String.sub s (i + 1) (String.length s - i - 1) in
      if String.equal path "" then Error "unix address needs a path"
      else Ok (Unix_sock path)
  | Some i when String.equal (String.sub s 0 i) "tcp" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt rest ':' with
      | Some j -> (
          let host = String.sub rest 0 j in
          let port = String.sub rest (j + 1) (String.length rest - j - 1) in
          match int_of_string_opt port with
          | Some p when p > 0 && p < 65536 ->
              Ok (Tcp ((if String.equal host "" then "127.0.0.1" else host), p))
          | _ -> Error (Printf.sprintf "bad TCP port %S" port))
      | None -> Error "tcp address needs HOST:PORT")
  | _ ->
      Error
        (Printf.sprintf "invalid address %S (expected unix:PATH or tcp:HOST:PORT)"
           s)

let to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let pp ppf a = Format.pp_print_string ppf (to_string a)

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
          raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host))
      | { Unix.h_addr_list; _ } -> h_addr_list.(0))

let sockaddr = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) -> Unix.ADDR_INET (resolve host, port)

let socket_for = function
  | Unix_sock _ -> Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
  | Tcp _ -> Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0

let unlink = function
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

let listen addr =
  let fd = socket_for addr in
  (try
     Unix.set_close_on_exec fd;
     (match addr with
     | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
     | Unix_sock _ -> unlink addr);
     Unix.bind fd (sockaddr addr);
     Unix.listen fd 64;
     Unix.set_nonblock fd
   with e ->
     Unix.close fd;
     raise e);
  fd

let accept listen =
  let rec go acc =
    match Unix.accept ~cloexec:true listen with
    | fd, _ ->
        Unix.clear_nonblock fd;
        (match Unix.getsockname fd with
        | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
        | Unix.ADDR_UNIX _ | (exception Unix.Unix_error _) -> ());
        go (fd :: acc)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        List.rev acc
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go acc
  in
  go []

let connect addr =
  let rec go n =
    let fd = socket_for addr in
    match
      Unix.set_close_on_exec fd;
      Unix.connect fd (sockaddr addr)
    with
    | () ->
        (match addr with
        | Tcp _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
        | Unix_sock _ -> ());
        Ok fd
    | exception
        Unix.Unix_error
          ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN) as err, _, _)
      when n > 1 ->
        Unix.close fd;
        ignore err;
        Unix.sleepf 0.05;
        go (n - 1)
    | exception Unix.Unix_error (err, _, _) ->
        Unix.close fd;
        Error
          (Printf.sprintf "cannot connect to %s: %s" (to_string addr)
             (Unix.error_message err))
  in
  go 40
