let src = Logs.Src.create "cluster.coordinator" ~doc:"campaign coordinator"

module Log = (val Logs.src_log src : Logs.LOG)
module Session = Propane.Runner.Session

let serve ?(batch_max = 16) ?(heartbeat_timeout_s = 30.) ?on_event ?on_tick
    ?(recipe = "") ?live ?select ?cells ?plan ~config ~listen ~sut ~campaign
    ~total () =
  if batch_max < 1 then
    invalid_arg "Coordinator.serve: batch_max must be >= 1";
  if heartbeat_timeout_s <= 0.0 then
    invalid_arg "Coordinator.serve: heartbeat_timeout_s must be positive";
  let session =
    Session.create ~label:"Coordinator.serve" ?on_event ~recipe ?live ?select
      ?cells ?plan ~config ~sut ~campaign ~total ()
  in
  let emit ev = Option.iter (fun f -> f ev) on_event in
  (* Workers run their goldens lazily in their own processes. *)
  emit (Propane.Runner.Goldens_done { testcases = 0 });
  let welcome =
    {
      Protocol.sut;
      campaign;
      seed = config.Propane.Runner.Config.seed;
      total;
      config = recipe;
    }
  in
  (* One campaign: every worker serves the session from its Join on. *)
  let source =
    {
      Fleet.choose = (fun _ -> Some session);
      welcome = (fun _ -> welcome);
      attached =
        (fun _ ~worker ~host ~pid ->
          emit (Propane.Runner.Worker_attached { worker; host; pid }));
      take = (fun s ~workers -> Session.take s ~batch_max ~workers);
      record = Session.record;
      requeue = Session.requeue;
    }
  in
  let fleet = Fleet.create ~heartbeat_timeout_s listen in
  Log.info (fun m ->
      m "campaign %s on %s: %d runs, serving workers" campaign sut total);
  Fun.protect
    ~finally:(fun () ->
      Fleet.close fleet;
      Session.close session)
    (fun () ->
      while
        Session.failed session = None
        &&
        if Session.stopping session then Fleet.outstanding fleet session > 0
        else not (Session.complete session)
      do
        ignore (Fleet.poll fleet source);
        Fleet.distribute fleet source;
        (* Batched appends commit at most one tick (~250 ms) after the
           cursor wrote them: one flush amortises every record drained
           this iteration. *)
        Session.flush session;
        Option.iter (fun f -> f ()) on_tick
      done;
      Fleet.dismiss fleet;
      Session.finish session)
