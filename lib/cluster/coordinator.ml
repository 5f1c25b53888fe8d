let src = Logs.Src.create "cluster.coordinator" ~doc:"campaign coordinator"

module Log = (val Logs.src_log src : Logs.LOG)
module Session = Propane.Runner.Session

type conn = {
  id : int;
  fd : Unix.file_descr;
  dec : Frame.decoder;
  mutable ready : bool;  (* handshake done *)
  mutable wants_work : bool;  (* blocked in Request_batch *)
  mutable outstanding : int list;  (* handed out, not yet resulted *)
  mutable deadline : float;  (* armed only while outstanding <> [] *)
}

let serve ?(batch_max = 16) ?(heartbeat_timeout_s = 30.) ?on_event ?on_tick
    ?(recipe = "") ?live ?select ?cells ?plan ~config ~listen ~sut ~campaign
    ~total () =
  if batch_max < 1 then
    invalid_arg "Coordinator.serve: batch_max must be >= 1";
  if heartbeat_timeout_s <= 0.0 then
    invalid_arg "Coordinator.serve: heartbeat_timeout_s must be positive";
  (* A write can race the peer's death; it must fail with EPIPE (and
     kill that connection), not deliver a fatal SIGPIPE. *)
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> (* no signals on this platform *) ());
  let session =
    Session.create ~label:"Coordinator.serve" ?on_event ~recipe ?live ?select
      ?cells ?plan ~config ~sut ~campaign ~total ()
  in
  let recipe_digest = Digest.to_hex (Digest.string recipe) in
  let seed = config.Propane.Runner.Config.seed in
  let emit ev =
    match on_event with Some f -> f ev | None -> ()
  in
  (* Workers run their goldens lazily in their own processes. *)
  emit (Propane.Runner.Goldens_done { testcases = 0 });
  let tick () = match on_tick with Some f -> f () | None -> () in
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 8 in
  let next_id = ref 0 in
  Log.info (fun m ->
      m "campaign %s on %s: %d runs, serving workers" campaign sut total);
  let send c msg = Frame.write c.fd (Protocol.encode_to_worker msg) in
  let kill ~reason c =
    Hashtbl.remove conns c.id;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    (match c.outstanding with
    | [] -> Log.info (fun m -> m "worker %d left (%s)" c.id reason)
    | lost ->
        Log.warn (fun m ->
            m "worker %d died (%s); reassigning %d outstanding runs" c.id
              reason (List.length lost));
        Session.requeue session lost);
    c.outstanding <- []
  in
  let live_workers () =
    Hashtbl.fold (fun _ c n -> if c.ready then n + 1 else n) conns 0
  in
  let give_work c =
    (* A draining coordinator hands out nothing more; the worker stays
       parked in Request_batch until Done. *)
    match Session.take session ~batch_max ~workers:(live_workers ()) with
    | [] -> c.wants_work <- true
    | batch ->
        c.wants_work <- false;
        c.outstanding <- batch;
        c.deadline <- Unix.gettimeofday () +. heartbeat_timeout_s;
        send c (Protocol.Batch batch)
  in
  let distribute () =
    if Session.pending session > 0 && not (Session.stopping session) then
      Hashtbl.iter
        (fun _ c ->
          if c.ready && c.wants_work && Session.pending session > 0 then
            match give_work c with
            | () -> ()
            | exception Unix.Unix_error (err, _, _) ->
                kill ~reason:(Unix.error_message err) c)
        (Hashtbl.copy conns)
  in
  (* The reject reason names the exact field that differed — an
     operator staring at a fleet of workers needs to know whether to
     rebuild the binary (version skew) or re-point the pin (recipe
     skew), and "handshake failed" distinguishes neither. *)
  let vet ~version ~config_digest =
    if version <> Protocol.version then
      Some
        (Printf.sprintf
           "protocol version: worker speaks %d, coordinator speaks %d" version
           Protocol.version)
    else if
      (not (String.equal config_digest ""))
      && not (String.equal config_digest recipe_digest)
    then
      Some
        (Printf.sprintf
           "config digest: worker pinned %s, coordinator offers %s"
           config_digest recipe_digest)
    else None
  in
  let handle c msg =
    c.deadline <- Unix.gettimeofday () +. heartbeat_timeout_s;
    match msg with
    | Protocol.Hello { version; host; pid; config_digest } -> (
        match vet ~version ~config_digest with
        | Some reason ->
            (try send c (Protocol.Reject reason)
             with Unix.Unix_error _ -> ());
            kill ~reason c
        | None ->
            c.ready <- true;
            send c
              (Protocol.Welcome { sut; campaign; seed; total; config = recipe });
            Log.info (fun m -> m "worker %d is %s/%d" c.id host pid);
            emit (Propane.Runner.Worker_attached { worker = c.id; host; pid }))
    | Protocol.Join _ ->
        (* Fleet registration belongs to a service daemon; this
           coordinator serves exactly one campaign. *)
        (try
           send c
             (Protocol.Reject
                "fleet join: this coordinator serves a single campaign; \
                 connect with a one-shot handshake (drop --fleet)")
         with Unix.Unix_error _ -> ());
        kill ~reason:"fleet join on a one-shot coordinator" c
    | Protocol.Heartbeat -> ()
    | Protocol.Request_batch -> give_work c
    | Protocol.Result { index; retries; outcome } ->
        (* Only a run handed to this connection may be recorded; a stray
           result would be journalled as if it had been scheduled. *)
        if not (List.mem index c.outstanding) then
          kill
            ~reason:
              (Printf.sprintf "result for run %d, which it does not hold"
                 index)
            c
        else begin
          c.outstanding <- List.filter (fun i -> i <> index) c.outstanding;
          Session.record session ~index ~worker:c.id ~retries outcome
        end
  in
  let drain c =
    let rec frames () =
      match Frame.next c.dec with
      | Error msg -> kill ~reason:msg c
      | Ok None -> ()
      | Ok (Some payload) -> (
          match Protocol.decode_to_coordinator payload with
          | Error msg -> kill ~reason:msg c
          | Ok msg -> (
              match handle c msg with
              | () -> if Hashtbl.mem conns c.id then frames ()
              | exception Unix.Unix_error (err, _, _) ->
                  kill ~reason:(Unix.error_message err) c))
    in
    frames ()
  in
  let buf = Bytes.create 65536 in
  let read_from c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 ->
        if c.outstanding = [] && Frame.buffered c.dec = 0 then
          kill ~reason:"disconnected" c
        else kill ~reason:"connection lost" c
    | n ->
        Frame.feed c.dec (Bytes.sub_string buf 0 n);
        drain c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (err, _, _) ->
        kill ~reason:(Unix.error_message err) c
  in
  let accept_pending () =
    let rec go () =
      match Unix.accept ~cloexec:true listen with
      | fd, _ ->
          Unix.clear_nonblock fd;
          (match Unix.getsockname fd with
          | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
          | Unix.ADDR_UNIX _ | (exception Unix.Unix_error _) -> ());
          let c =
            {
              id = !next_id;
              fd;
              dec = Frame.decoder ();
              ready = false;
              wants_work = false;
              outstanding = [];
              deadline = Unix.gettimeofday () +. heartbeat_timeout_s;
            }
          in
          incr next_id;
          Hashtbl.add conns c.id c;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()
  in
  let check_deadlines () =
    let now = Unix.gettimeofday () in
    Hashtbl.iter
      (fun _ c ->
        if c.outstanding <> [] && now > c.deadline then
          kill
            ~reason:
              (Printf.sprintf "no heartbeat for %.1f s" heartbeat_timeout_s)
            c)
      (Hashtbl.copy conns)
  in
  let broadcast msg =
    Hashtbl.iter
      (fun _ c ->
        if c.ready then try send c msg with Unix.Unix_error _ -> ())
      conns
  in
  let close_all () =
    Hashtbl.iter
      (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
      conns;
    Hashtbl.reset conns
  in
  Fun.protect
    ~finally:(fun () ->
      close_all ();
      Session.close session)
    (fun () ->
      let outstanding_total () =
        Hashtbl.fold (fun _ c n -> n + List.length c.outstanding) conns 0
      in
      while
        Session.failed session = None
        && (if Session.stopping session then outstanding_total () > 0
            else not (Session.complete session))
      do
        let fds =
          listen :: Hashtbl.fold (fun _ c acc -> c.fd :: acc) conns []
        in
        let timeout =
          Hashtbl.fold
            (fun _ c acc ->
              if c.outstanding = [] then acc
              else Float.min acc (c.deadline -. Unix.gettimeofday ()))
            conns 0.25
          |> Float.max 0.01
        in
        (match Unix.select fds [] [] timeout with
        | readable, _, _ ->
            if List.mem listen readable then accept_pending ();
            List.iter
              (fun fd ->
                if fd != listen then
                  match
                    Hashtbl.fold
                      (fun _ c acc -> if c.fd == fd then Some c else acc)
                      conns None
                  with
                  | Some c -> read_from c
                  | None -> ())
              readable
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        check_deadlines ();
        distribute ();
        (* Batched appends commit at most one select cycle (~250 ms)
           after the cursor wrote them: one flush amortises every
           record drained this iteration. *)
        Session.flush session;
        tick ()
      done;
      broadcast Protocol.Done;
      Session.finish session)
