let src = Logs.Src.create "cluster.fleet" ~doc:"worker connections"

module Log = (val Logs.src_log src : Logs.LOG)

type 'c source = {
  choose : 'c option -> 'c option;
  welcome : 'c -> Protocol.welcome;
  attached : 'c -> worker:int -> host:string -> pid:int -> unit;
  take : 'c -> workers:int -> int list;
  record :
    'c ->
    index:int ->
    worker:int ->
    retries:int ->
    Propane.Results.outcome ->
    unit;
  requeue : 'c -> int list -> unit;
}

type 'c worker = {
  id : int;
  mutable host : string;
  mutable pid : int;
  mutable serving : 'c option;
  mutable parked : bool;
  mutable outstanding : int list;
  mutable completed : int;
  mutable last_seen : float;
}

type 'c conn = {
  w : 'c worker;
  fd : Unix.file_descr;
  dec : Frame.decoder;
  mutable joined : bool;
  mutable deadline : float;  (* armed until Join and while runs are out *)
  mutable last_ping : float;
}

type 'c t = {
  listen : Unix.file_descr;
  timeout_s : float;
  conns : (int, 'c conn) Hashtbl.t;
  mutable next_id : int;
  buf : Bytes.t;
}

let create ~heartbeat_timeout_s listen =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> (* no signals on this platform *) ());
  {
    listen;
    timeout_s = heartbeat_timeout_s;
    conns = Hashtbl.create 8;
    next_id = 0;
    buf = Bytes.create 65536;
  }

(* A snapshot, so handlers may close connections while we iterate. *)
let conns t = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []
let serves x w = match w.serving with Some s -> s == x | None -> false
let armed c = (not c.joined) || c.w.outstanding <> []

let serving t x =
  Hashtbl.fold
    (fun _ c n -> if c.joined && serves x c.w then n + 1 else n)
    t.conns 0

let outstanding t x =
  Hashtbl.fold
    (fun _ c n -> if serves x c.w then n + List.length c.w.outstanding else n)
    t.conns 0

let workers t =
  List.filter_map (fun c -> if c.joined then Some c.w else None) (conns t)
  |> List.sort (fun a b -> Int.compare a.id b.id)

let send c msg = Frame.write c.fd (Protocol.encode_to_worker msg)

let kill t source ~reason c =
  Hashtbl.remove t.conns c.w.id;
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  (match (c.w.outstanding, c.w.serving) with
  | [], _ | _, None -> Log.info (fun m -> m "worker %d left (%s)" c.w.id reason)
  | lost, Some x ->
      Log.warn (fun m ->
          m "worker %d died (%s); reassigning %d outstanding runs" c.w.id
            reason (List.length lost));
      source.requeue x lost);
  c.w.outstanding <- []

let give_work t source c =
  match source.choose c.w.serving with
  | None -> c.w.parked <- true
  | Some x when serves x c.w -> (
      match source.take x ~workers:(serving t x) with
      | [] -> c.w.parked <- true
      | batch ->
          c.w.parked <- false;
          c.w.outstanding <- batch;
          c.deadline <- Unix.gettimeofday () +. t.timeout_s;
          send c (Protocol.Batch batch))
  | Some x ->
      (* The worker rebuilds its executor, then asks for a batch. *)
      c.w.serving <- Some x;
      c.w.parked <- false;
      send c (Protocol.Assign (source.welcome x));
      source.attached x ~worker:c.w.id ~host:c.w.host ~pid:c.w.pid

let handle t source c msg =
  let now = Unix.gettimeofday () in
  c.w.last_seen <- now;
  c.deadline <- now +. t.timeout_s;
  match msg with
  | Protocol.Join { version; host; pid } when not c.joined ->
      if version <> Protocol.version then begin
        let reason =
          Printf.sprintf "protocol version: worker speaks %d, server speaks %d"
            version Protocol.version
        in
        (try send c (Protocol.Reject reason) with Unix.Unix_error _ -> ());
        kill t source ~reason c
      end
      else begin
        c.joined <- true;
        c.w.host <- host;
        c.w.pid <- pid;
        Log.info (fun m -> m "worker %d joined: %s/%d" c.w.id host pid);
        give_work t source c
      end
  | msg when not c.joined ->
      kill t source
        ~reason:(Fmt.str "%a before joining" Protocol.pp_to_coordinator msg)
        c
  | Protocol.Join _ | Protocol.Heartbeat -> ()
  | Protocol.Request_batch when c.w.outstanding <> [] ->
      (* A new batch, or a retarget, would orphan the runs it holds. *)
      kill t source ~reason:"asked for a batch while holding runs" c
  | Protocol.Request_batch -> give_work t source c
  | Protocol.Result { index; retries; outcome } -> (
      (* Only a run handed to this worker may be recorded; a stray
         result would be journalled as if it had been scheduled. *)
      match c.w.serving with
      | Some x when List.mem index c.w.outstanding ->
          c.w.outstanding <- List.filter (fun i -> i <> index) c.w.outstanding;
          c.w.completed <- c.w.completed + 1;
          source.record x ~index ~worker:c.w.id ~retries outcome
      | _ ->
          kill t source
            ~reason:
              (Printf.sprintf "result for run %d, which it does not hold"
                 index)
            c)

let rec drain t source c =
  match Frame.next c.dec with
  | Error msg -> kill t source ~reason:msg c
  | Ok None -> ()
  | Ok (Some payload) -> (
      match Protocol.decode_to_coordinator payload with
      | Error msg -> kill t source ~reason:msg c
      | Ok msg -> (
          match handle t source c msg with
          | () -> if Hashtbl.mem t.conns c.w.id then drain t source c
          | exception Unix.Unix_error (err, _, _) ->
              kill t source ~reason:(Unix.error_message err) c))

let read_from t source c =
  match Unix.read c.fd t.buf 0 (Bytes.length t.buf) with
  | 0 ->
      kill t source
        ~reason:
          (if c.w.outstanding = [] && Frame.buffered c.dec = 0 then
             "disconnected"
           else "connection lost")
        c
  | n ->
      Frame.feed c.dec (Bytes.sub_string t.buf 0 n);
      drain t source c
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  | exception Unix.Unix_error (err, _, _) ->
      kill t source ~reason:(Unix.error_message err) c

let accept t =
  List.iter
    (fun fd ->
      let now = Unix.gettimeofday () in
      let w =
        {
          id = t.next_id;
          host = "";
          pid = 0;
          serving = None;
          parked = false;
          outstanding = [];
          completed = 0;
          last_seen = now;
        }
      in
      t.next_id <- t.next_id + 1;
      Hashtbl.add t.conns w.id
        {
          w;
          fd;
          dec = Frame.decoder ();
          joined = false;
          deadline = now +. t.timeout_s;
          last_ping = 0.0;
        })
    (Address.accept t.listen)

(* Silence is fatal only where it can stall the campaign or hold a
   descriptor forever: before Join, and while runs are out.  Parked
   workers are blocked reading; a ping keeps their liveness fresh and
   notices half-dead connections. *)
let expire t source =
  let now = Unix.gettimeofday () in
  List.iter
    (fun c ->
      if armed c && now > c.deadline then
        kill t source
          ~reason:
            (Printf.sprintf "%s for %.1f s"
               (if c.joined then "no heartbeat" else "no Join")
               t.timeout_s)
          c
      else if
        c.joined
        && now -. c.w.last_seen > t.timeout_s /. 2.
        && now -. c.last_ping > t.timeout_s /. 2.
        && c.w.outstanding = []
      then begin
        c.last_ping <- now;
        match send c Protocol.Ping with
        | () -> ()
        | exception Unix.Unix_error (err, _, _) ->
            kill t source ~reason:(Unix.error_message err) c
      end)
    (conns t)

let poll ?(extra = []) t source =
  let now = Unix.gettimeofday () in
  let timeout =
    Hashtbl.fold
      (fun _ c acc -> if armed c then Float.min acc (c.deadline -. now) else acc)
      t.conns 0.25
    |> Float.max 0.01
  in
  let fds = t.listen :: Hashtbl.fold (fun _ c acc -> c.fd :: acc) t.conns extra in
  let readable =
    match Unix.select fds [] [] timeout with
    | readable, _, _ -> readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  if List.memq t.listen readable then accept t;
  List.iter
    (fun c -> if List.memq c.fd readable then read_from t source c)
    (conns t);
  expire t source;
  List.filter (fun fd -> List.memq fd extra) readable

let distribute t source =
  List.iter
    (fun c ->
      if c.joined && c.w.parked then
        match give_work t source c with
        | () -> ()
        | exception Unix.Unix_error (err, _, _) ->
            kill t source ~reason:(Unix.error_message err) c)
    (conns t)

let close t =
  Hashtbl.iter
    (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    t.conns;
  Hashtbl.reset t.conns

let dismiss t =
  Hashtbl.iter
    (fun _ c ->
      if c.joined then try send c Protocol.Done with Unix.Unix_error _ -> ())
    t.conns;
  close t
