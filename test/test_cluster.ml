(* Tests for the distributed campaign subsystem (lib/cluster): framing,
   protocol codec round-trips, addresses, and in-process integration of
   coordinator + workers over a Unix socket — including the guarantees
   the docs promise: journals byte-identical to serial runs, dead-worker
   reassignment, and heartbeat expiry. *)

module Sim = Simkernel

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

(* Any byte can appear in a reason or a signal name on the wire — the
   binary protocol must not care about newlines, tabs or colons that
   the line-based journal format forbids. *)
let gen_nasty_string =
  QCheck2.Gen.(
    oneof
      [
        pure "a:b\nc\td\r\x00e";
        string_size ~gen:char (int_range 0 20);
      ])

let gen_small_nat = QCheck2.Gen.int_range 0 100_000

(* Every model class crosses the wire inside a Result message, temporal
   wrappers included — the protocol delegates to Storage's codec, so
   this doubles as the cluster-transport round-trip for new models. *)
let gen_error =
  QCheck2.Gen.(
    let spatial =
      oneof
        [
          map (fun b -> Propane.Error_model.Bit_flip b) (int_range 0 31);
          map
            (fun bits ->
              Propane.Error_model.Multi_bit (List.sort_uniq Int.compare bits))
            (list_size (int_range 1 5) (int_range 0 31));
          map2
            (fun first len -> Propane.Error_model.Burst { first; len })
            (int_range 0 15) (int_range 1 8);
          map (fun v -> Propane.Error_model.Stuck_at v) (int_range 0 65535);
          map (fun d -> Propane.Error_model.Offset d) (int_range (-1000) 1000);
          map (fun a -> Propane.Error_model.Noise a) (int_range 1 65535);
          pure Propane.Error_model.Replace_uniform;
        ]
    in
    oneof
      [
        spatial;
        map2
          (fun model delay_ms ->
            Propane.Error_model.Delayed { model; delay_ms })
          spatial (int_range 0 1000);
        map3
          (fun model period_ms window_ms ->
            Propane.Error_model.Intermittent { model; period_ms; window_ms })
          spatial (int_range 1 100) (int_range 1 1000);
      ])

let gen_status =
  QCheck2.Gen.(
    oneof
      [
        pure Propane.Results.Completed;
        map2
          (fun at_ms reason -> Propane.Results.Crashed { at_ms; reason })
          gen_small_nat gen_nasty_string;
        map
          (fun budget_ms -> Propane.Results.Hung { budget_ms })
          gen_small_nat;
      ])

let gen_outcome =
  QCheck2.Gen.(
    let* testcase = gen_nasty_string in
    let* target =
      map2 (fun c s -> String.make 1 c ^ s) char gen_nasty_string
    in
    let* at_ms = gen_small_nat in
    let* error = gen_error in
    let* status = gen_status in
    let* divergences =
      small_list
        (map2
           (fun signal first_ms -> { Propane.Golden.signal; first_ms })
           gen_nasty_string gen_small_nat)
    in
    pure
      {
        Propane.Results.testcase;
        injection =
          Propane.Injection.make ~target ~at:(Sim.Sim_time.of_ms at_ms)
            ~error;
        divergences;
        status;
      })

let gen_to_coordinator =
  QCheck2.Gen.(
    oneof
      [
        map2
          (fun host pid ->
            Cluster.Protocol.Join
              { version = Cluster.Protocol.version; host; pid })
          gen_nasty_string gen_small_nat;
        pure Cluster.Protocol.Request_batch;
        pure Cluster.Protocol.Heartbeat;
        map3
          (fun index retries outcome ->
            Cluster.Protocol.Result { index; retries; outcome })
          gen_small_nat (int_range 0 10) gen_outcome;
      ])

let gen_to_worker =
  QCheck2.Gen.(
    oneof
      [
        map3
          (fun sut campaign (seed, total, config) ->
            Cluster.Protocol.Assign { sut; campaign; seed; total; config })
          gen_nasty_string gen_nasty_string
          (triple
             (map Int64.of_int int)
             gen_small_nat gen_nasty_string);
        map
          (fun l -> Cluster.Protocol.Batch l)
          (small_list gen_small_nat);
        pure Cluster.Protocol.Ping;
        pure Cluster.Protocol.Done;
        map (fun r -> Cluster.Protocol.Reject r) gen_nasty_string;
      ])

(* ------------------------------------------------------------------ *)
(* Frame                                                               *)

let drain_frames dec =
  let rec go acc =
    match Cluster.Frame.next dec with
    | Ok (Some p) -> go (p :: acc)
    | Ok None -> List.rev acc
    | Error msg -> Alcotest.failf "decoder error: %s" msg
  in
  go []

let frame_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300
         ~name:"frames survive arbitrary chunking"
         QCheck2.Gen.(
           pair
             (small_list (string_size ~gen:char (int_range 0 64)))
             (small_list (int_range 1 7)))
         (fun (payloads, chunks) ->
           let stream =
             String.concat "" (List.map Cluster.Frame.encode payloads)
           in
           let dec = Cluster.Frame.decoder () in
           let out = ref [] in
           let pos = ref 0 in
           let sizes = if chunks = [] then [ 1 ] else chunks in
           let i = ref 0 in
           while !pos < String.length stream do
             let n =
               min
                 (List.nth sizes (!i mod List.length sizes))
                 (String.length stream - !pos)
             in
             i := !i + 1;
             Cluster.Frame.feed dec (String.sub stream !pos n);
             pos := !pos + n;
             out := !out @ drain_frames dec
           done;
           !out = payloads && Cluster.Frame.buffered dec = 0));
    Alcotest.test_case "oversized length prefix poisons the decoder"
      `Quick (fun () ->
        let b = Bytes.create 4 in
        Bytes.set_int32_be b 0 0x7FFFFFFFl;
        let dec = Cluster.Frame.decoder () in
        Cluster.Frame.feed dec (Bytes.to_string b);
        (match Cluster.Frame.next dec with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "absurd frame length accepted");
        Cluster.Frame.feed dec (Cluster.Frame.encode "x");
        match Cluster.Frame.next dec with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "poisoned decoder recovered");
    Alcotest.test_case "empty payload round-trips" `Quick (fun () ->
        let dec = Cluster.Frame.decoder () in
        Cluster.Frame.feed dec (Cluster.Frame.encode "");
        Alcotest.(check (list string)) "one empty frame" [ "" ]
          (drain_frames dec));
    Alcotest.test_case "mid-frame silence is not an error" `Quick (fun () ->
        let dec = Cluster.Frame.decoder () in
        let frame = Cluster.Frame.encode "hello" in
        Cluster.Frame.feed dec (String.sub frame 0 6);
        (match Cluster.Frame.next dec with
        | Ok None -> ()
        | Ok (Some _) -> Alcotest.fail "incomplete frame returned"
        | Error msg -> Alcotest.failf "decoder error: %s" msg);
        Alcotest.(check int) "buffered" 6 (Cluster.Frame.buffered dec));
    Alcotest.test_case "write_many is one valid frame stream" `Quick
      (fun () ->
        (* The worker's batched result flush: several frames in a
           single write must read back unchanged frame by frame. *)
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () ->
            (try Unix.close a with Unix.Unix_error _ -> ());
            try Unix.close b with Unix.Unix_error _ -> ())
          (fun () ->
            let payloads = [ "first"; ""; "tab\tand\nnewline"; "last" ] in
            Cluster.Frame.write_many a [];
            Cluster.Frame.write_many a payloads;
            Unix.close a;
            let r = Cluster.Frame.reader b in
            let rec drain acc =
              match Cluster.Frame.read r with
              | Ok (Some p) -> drain (p :: acc)
              | Ok None -> List.rev acc
              | Error msg -> Alcotest.failf "read failed: %s" msg
            in
            Alcotest.(check (list string)) "payloads" payloads (drain [])));
  ]

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)

let protocol_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500
         ~name:"to_coordinator messages round-trip" gen_to_coordinator
         (fun msg ->
           Cluster.Protocol.decode_to_coordinator
             (Cluster.Protocol.encode_to_coordinator msg)
           = Ok msg));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"to_worker messages round-trip"
         gen_to_worker (fun msg ->
           Cluster.Protocol.decode_to_worker
             (Cluster.Protocol.encode_to_worker msg)
           = Ok msg));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:1000 ~name:"decoding garbage never raises"
         QCheck2.Gen.(string_size ~gen:char (int_range 0 64))
         (fun s ->
           (match Cluster.Protocol.decode_to_coordinator s with
           | Ok _ | Error _ -> true)
           &&
           match Cluster.Protocol.decode_to_worker s with
           | Ok _ | Error _ -> true));
    Alcotest.test_case "trailing bytes are rejected" `Quick (fun () ->
        let s =
          Cluster.Protocol.encode_to_coordinator Cluster.Protocol.Heartbeat
          ^ "junk"
        in
        match Cluster.Protocol.decode_to_coordinator s with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "trailing bytes accepted");
    Alcotest.test_case "truncated message is an error, not an exception"
      `Quick (fun () ->
        let s =
          Cluster.Protocol.encode_to_worker
            (Cluster.Protocol.Reject "some reason")
        in
        for n = 0 to String.length s - 1 do
          match Cluster.Protocol.decode_to_worker (String.sub s 0 n) with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "truncation at %d accepted" n
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Address                                                             *)

let address_tests =
  let roundtrip s =
    match Cluster.Address.of_string s with
    | Ok a -> Cluster.Address.to_string a
    | Error msg -> Alcotest.failf "%s did not parse: %s" s msg
  in
  [
    Alcotest.test_case "unix and tcp addresses parse" `Quick (fun () ->
        Alcotest.(check string)
          "unix" "unix:/tmp/x.sock"
          (roundtrip "unix:/tmp/x.sock");
        Alcotest.(check string)
          "tcp" "tcp:10.0.0.1:9000"
          (roundtrip "tcp:10.0.0.1:9000");
        Alcotest.(check string)
          "tcp default host" "tcp:127.0.0.1:80" (roundtrip "tcp::80"));
    Alcotest.test_case "malformed addresses are rejected" `Quick (fun () ->
        List.iter
          (fun s ->
            match Cluster.Address.of_string s with
            | Error _ -> ()
            | Ok a ->
                Alcotest.failf "%S parsed as %s" s
                  (Cluster.Address.to_string a))
          [ "bogus"; "unix:"; "tcp:host"; "tcp:host:0"; "tcp:host:notaport";
            "tcp:host:70000"; "" ]);
  ]

(* ------------------------------------------------------------------ *)
(* Integration: coordinator + in-process workers over a Unix socket    *)

(* Same synthetic SUT as the runner tests: y = x >> 4 on a 100 ms ramp,
   80 experiments (1 test case x 5 instants x 16 bit-flips). *)
let scaler_sut () =
  let instantiate _tc =
    let store =
      Propane.Signal_store.create ~signals:[ ("x", 16); ("y", 16) ] ()
    in
    let t = ref 0 in
    {
      Propane.Sut.read = Propane.Signal_store.peek store;
      write = Propane.Signal_store.poke store;
      inject = Propane.Signal_store.inject store;
      step =
        (fun () ->
          incr t;
          Propane.Signal_store.write store "x" (!t * 16);
          Propane.Signal_store.write store "y"
            (Propane.Signal_store.read store "x" lsr 4));
      finished = (fun () -> !t >= 100);
      snapshot = None;
      state_hook = None;
    }
  in
  {
    Propane.Sut.name = "scaler";
    signals = [ ("x", 16); ("y", 16) ];
    digests = [ ("SCALE", "scale-v1") ];
    instantiate;
  }

let scaler_campaign =
  Propane.Campaign.make ~name:"scaler" ~targets:[ "x" ]
    ~testcases:[ Propane.Testcase.make ~id:"ramp" ~params:[] ]
    ~times:(List.map Sim.Sim_time.of_ms [ 10; 20; 30; 40; 50 ])
    ~errors:(Propane.Error_model.bit_flips ~width:16)

let scale_model =
  Propagation.System_model.make_exn
    ~modules:
      [
        Propagation.Sw_module.make ~name:"SCALE"
          ~inputs:[ Propagation.Signal.make "x" ]
          ~outputs:[ Propagation.Signal.make "y" ];
      ]
    ~system_inputs:[ Propagation.Signal.make "x" ]
    ~system_outputs:[ Propagation.Signal.make "y" ]

(* Throttled variant: slow enough that the coordinator observes results
   while workers still hold unexecuted runs, so adaptive stop rules
   have room to act (an unthrottled scaler run lasts microseconds). *)
let slow_scaler_sut () =
  let base = scaler_sut () in
  {
    base with
    Propane.Sut.instantiate =
      (fun tc ->
        let inner = base.Propane.Sut.instantiate tc in
        {
          inner with
          Propane.Sut.step =
            (fun () ->
              Unix.sleepf 5e-5;
              inner.Propane.Sut.step ());
        });
  }

let seed = 20010701L

let tmp_path suffix =
  let path = Filename.temp_file "propane-cluster" suffix in
  Unix.unlink path;
  path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let serial_reference ~journal =
  Propane.Runner.run
    ~config:(Propane.Runner.Config.make ~seed ~jobs:1 ~journal ())
    (scaler_sut ()) scaler_campaign

let make_executor ?(sut = scaler_sut) (w : Cluster.Protocol.welcome) =
  if Propane.Campaign.size scaler_campaign <> w.total then
    Error "campaign size mismatch"
  else
    Ok
      (Propane.Runner.executor ~seed:w.Cluster.Protocol.seed (sut ())
         scaler_campaign)

(* Workers run in their own domains; [Coordinator.serve] blocks the
   test's domain.  [worker_hooks] gives each spawned worker its own
   [on_result] so one can be told to die while the others drain the
   campaign.  Every domain is joined, also when [serve] raises. *)
let cluster_run ?(heartbeat_timeout_s = 30.) ?journal ?(resume = false)
    ?(worker_hooks = [ None; None ]) ?(extra_clients = fun _ -> [])
    ?(sut = scaler_sut) ?live ?stop_when ?select ?cells ?budget ?plan
    ?fail_fast ?on_event () =
  let addr = Cluster.Address.Unix_sock (tmp_path ".sock") in
  let listen = Cluster.Address.listen addr in
  let make = make_executor ~sut in
  let workers =
    List.map
      (fun on_result ->
        Domain.spawn (fun () ->
            match Cluster.Worker.run ?on_result ~connect:addr ~make () with
            | r -> r
            | exception _ -> Error "worker died"))
      worker_hooks
  in
  let clients = extra_clients addr in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen with Unix.Unix_error _ -> ());
      Cluster.Address.unlink addr;
      List.iter (fun d -> ignore (Domain.join d)) workers;
      List.iter (fun d -> ignore (Domain.join d)) clients)
    (fun () ->
      let config =
        Propane.Runner.Config.make ~seed ?journal ~resume
          ~jobs:(max 1 (List.length worker_hooks))
          ?stop_when ?budget ?fail_fast ()
      in
      Cluster.Coordinator.serve ~heartbeat_timeout_s ?on_event ?live ?select
        ?cells ?plan ~config ~batch_max:8 ~listen ~sut:"scaler"
        ~campaign:"scaler"
        ~total:(Propane.Campaign.size scaler_campaign)
        ())

let check_results_match what serial cluster =
  Alcotest.(check int)
    (what ^ ": count")
    (Propane.Results.count serial)
    (Propane.Results.count cluster);
  Alcotest.(check bool)
    (what ^ ": outcomes identical")
    true
    (Propane.Results.outcomes serial = Propane.Results.outcomes cluster)

let integration_tests =
  [
    Alcotest.test_case "2-worker journal is byte-identical to serial"
      `Slow (fun () ->
        let serial_path = tmp_path ".journal" in
        let cluster_path = tmp_path ".journal" in
        let serial = serial_reference ~journal:serial_path in
        let cluster = cluster_run ~journal:cluster_path () in
        check_results_match "results" serial cluster;
        Alcotest.(check string)
          "journal bytes" (read_file serial_path) (read_file cluster_path);
        Sys.remove serial_path;
        Sys.remove cluster_path);
    Alcotest.test_case
      "cell-reuse selection journals identically to restricted serial" `Slow
      (fun () ->
        (* A reuse plan restricting the campaign to a middle slice: the
           cluster must schedule only the selected indices, write the
           same cell provenance records, and stream records across the
           deselected gaps in strict index order — byte-for-byte what
           the serial engine produces under the same plan. *)
        let select idx = idx >= 16 && idx < 48 in
        let cells =
          [
            {
              Propane.Journal.target = "x";
              module_name = "SCALE";
              key = String.make 32 'c';
              reused = false;
            };
          ]
        in
        let serial_path = tmp_path ".journal" in
        let cluster_path = tmp_path ".journal" in
        let serial =
          Propane.Runner.run
            ~config:
              (Propane.Runner.Config.make ~seed ~jobs:1 ~journal:serial_path
                 ())
            ~select ~cells (scaler_sut ()) scaler_campaign
        in
        let cluster =
          cluster_run ~journal:cluster_path ~select ~cells ()
        in
        check_results_match "results" serial cluster;
        Alcotest.(check string)
          "journal bytes" (read_file serial_path) (read_file cluster_path);
        Alcotest.(check int)
          "only the selected slice ran" 32
          (Propane.Results.count cluster);
        Sys.remove serial_path;
        Sys.remove cluster_path);
    Alcotest.test_case
      "adaptive plan journals identically across serial and cluster" `Slow
      (fun () ->
        (* The budget scheduler's rounds are a pure function of the
           completed outcome set, so a 2-worker fleet — with its own
           batching, interleaving and round barriers — must journal
           byte-for-byte what the serial engine does under a fresh plan
           of the same budget, rounds trailer included.  Uniform spends
           the whole budget in one round (several batches per worker);
           adaptive stops after the pilot here — the lone module's
           ranking resolves immediately — which is exactly the
           early-stop path worth pinning down. *)
        let budget = 24 in
        List.iter
          (fun mode ->
            let what = Propane.Plan.mode_to_string mode in
            let fresh_plan () =
              Propane.Plan.create ~mode ~budget ~model:scale_model
                ~campaign:scaler_campaign ()
            in
            let serial_path = tmp_path ".journal" in
            let cluster_path = tmp_path ".journal" in
            let serial =
              Propane.Runner.run
                ~config:
                  (Propane.Runner.Config.make ~seed ~jobs:1
                     ~journal:serial_path ~budget ())
                ~plan:(fresh_plan ()) (scaler_sut ()) scaler_campaign
            in
            let plan = fresh_plan () in
            let cluster =
              cluster_run ~journal:cluster_path ~budget ~plan ()
            in
            check_results_match (what ^ " results") serial cluster;
            Alcotest.(check string)
              (what ^ " journal bytes")
              (read_file serial_path) (read_file cluster_path);
            Alcotest.(check int)
              (what ^ ": the fleet executes the plan's allocation")
              (Propane.Plan.allocated plan)
              (Propane.Results.count cluster);
            Alcotest.(check bool)
              (what ^ " plan exhausted")
              true
              (Propane.Plan.exhausted plan);
            if mode = Propane.Plan.Uniform then
              Alcotest.(check int)
                "uniform spends the whole budget" budget
                (Propane.Results.count cluster);
            Sys.remove serial_path;
            Sys.remove cluster_path)
          [ Propane.Plan.Uniform; Propane.Plan.Adaptive ]);
    Alcotest.test_case "dead worker's runs are reassigned" `Slow (fun () ->
        let serial_path = tmp_path ".journal" in
        let cluster_path = tmp_path ".journal" in
        let serial = serial_reference ~journal:serial_path in
        (* First worker abandons the connection after 3 results, exactly
           like a crashed process; the second drains the campaign. *)
        let die_after n = Some (fun ~completed -> if completed >= n then raise Exit) in
        let cluster =
          cluster_run ~journal:cluster_path
            ~worker_hooks:[ die_after 3; None ]
            ()
        in
        check_results_match "results" serial cluster;
        Alcotest.(check string)
          "journal bytes" (read_file serial_path) (read_file cluster_path);
        Sys.remove serial_path;
        Sys.remove cluster_path);
    Alcotest.test_case "silent worker hits its heartbeat deadline" `Slow
      (fun () ->
        let serial = serial_reference ~journal:(tmp_path ".journal") in
        (* A hand-rolled client that takes a batch and then goes quiet:
           the coordinator must reclaim its runs and finish via the real
           worker instead of waiting forever. *)
        let stalling addr =
          [
            Domain.spawn (fun () ->
                match Cluster.Address.connect addr with
                | Error _ -> Error "connect failed"
                | Ok fd ->
                    let reader = Cluster.Frame.reader fd in
                    let send m =
                      Cluster.Frame.write fd
                        (Cluster.Protocol.encode_to_coordinator m)
                    in
                    send
                      (Cluster.Protocol.Join
                         {
                           version = Cluster.Protocol.version;
                           host = "stall";
                           pid = 1;
                         });
                    ignore (Cluster.Frame.read reader);
                    send Cluster.Protocol.Request_batch;
                    ignore (Cluster.Frame.read reader);
                    Unix.sleepf 2.0;
                    (try Unix.close fd with Unix.Unix_error _ -> ());
                    Ok 0);
          ]
        in
        let cluster =
          cluster_run ~heartbeat_timeout_s:0.3 ~worker_hooks:[ None ]
            ~extra_clients:stalling ()
        in
        check_results_match "results" serial cluster);
    Alcotest.test_case "fail-fast through the coordinator keeps finished work"
      `Slow (fun () ->
        let crashing () =
          Propane.Fault.wrap ~crash_after_ms:0 (scaler_sut ())
        in
        let serial_path = tmp_path ".journal" in
        let cluster_path = tmp_path ".journal" in
        let serial =
          Propane.Runner.run
            ~config:(Propane.Runner.Config.make ~seed ~journal:serial_path ())
            (crashing ()) scaler_campaign
        in
        let reported = ref [] in
        (match
           cluster_run ~journal:cluster_path ~sut:crashing
             ~worker_hooks:[ None ] ~fail_fast:true
             ~on_event:(function
               | Propane.Runner.Run_done { index; _ } ->
                   reported := index :: !reported
               | _ -> ())
             ()
         with
        | exception Propane.Runner.Failed_run _ -> ()
        | _ -> Alcotest.fail "expected Failed_run");
        let journalled =
          match Propane.Journal.load cluster_path with
          | Ok j -> List.map fst j.Propane.Journal.entries
          | Error msg -> Alcotest.failf "journal: %s" msg
        in
        if !reported = [] then Alcotest.fail "no run reported";
        List.iter
          (fun index ->
            if not (List.mem index journalled) then
              Alcotest.failf "run %d reported, not journalled" index)
          !reported;
        let resumed =
          cluster_run ~journal:cluster_path ~resume:true ~sut:crashing
            ~worker_hooks:[ None ] ()
        in
        check_results_match "resumed" serial resumed;
        Alcotest.(check string)
          "journal bytes" (read_file serial_path) (read_file cluster_path);
        Sys.remove serial_path;
        Sys.remove cluster_path);
    Alcotest.test_case "a stray result kills its connection, not the journal"
      `Slow (fun () ->
        let serial_path = tmp_path ".journal" in
        let cluster_path = tmp_path ".journal" in
        let serial = serial_reference ~journal:serial_path in
        let total = Propane.Campaign.size scaler_campaign in
        let hung_up = ref false in
        (* A hand-rolled client takes a batch and answers for a run
           outside it, with a genuine outcome of another run.  Only
           after the coordinator hangs up does a real worker attach and
           drain the campaign alone. *)
        let stray addr =
          [
            Domain.spawn (fun () ->
                (match Cluster.Address.connect addr with
                | Error _ -> ()
                | Ok fd ->
                    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
                    let reader = Cluster.Frame.reader fd in
                    let send m =
                      Cluster.Frame.write fd
                        (Cluster.Protocol.encode_to_coordinator m)
                    in
                    let receive () =
                      match Cluster.Frame.read reader with
                      | Ok (Some p) -> (
                          match Cluster.Protocol.decode_to_worker p with
                          | Ok m -> Some m
                          | Error _ -> None)
                      | Ok None | Error _ -> None
                      | exception Unix.Unix_error _ -> None
                    in
                    send
                      (Cluster.Protocol.Join
                         {
                           version = Cluster.Protocol.version;
                           host = "stray";
                           pid = 1;
                         });
                    ignore (receive ());
                    send Cluster.Protocol.Request_batch;
                    (match receive () with
                    | Some (Cluster.Protocol.Batch (first :: _ as batch)) ->
                        let outside =
                          List.find
                            (fun i -> not (List.mem i batch))
                            (List.init total (fun i -> total - 1 - i))
                        in
                        let outcome, _ =
                          Propane.Runner.executor ~seed (scaler_sut ())
                            scaler_campaign first
                        in
                        send
                          (Cluster.Protocol.Result
                             { index = outside; retries = 0; outcome });
                        (* End of stream, not the receive timeout. *)
                        hung_up :=
                          (match Cluster.Frame.read reader with
                          | Ok None -> true
                          | Ok (Some _) | Error _ -> false
                          | exception Unix.Unix_error _ -> false)
                    | _ -> ());
                    (try Unix.close fd with Unix.Unix_error _ -> ()));
                Cluster.Worker.run ~connect:addr ~make:(fun w -> make_executor w) ());
          ]
        in
        let cluster =
          cluster_run ~journal:cluster_path ~worker_hooks:[]
            ~extra_clients:stray ()
        in
        Alcotest.(check bool) "stray connection killed" true !hung_up;
        check_results_match "results" serial cluster;
        Alcotest.(check string)
          "journal bytes" (read_file serial_path) (read_file cluster_path);
        Sys.remove serial_path;
        Sys.remove cluster_path);
    Alcotest.test_case "asking for more while holding a batch kills the \
                        connection" `Slow (fun () ->
        let serial_path = tmp_path ".journal" in
        let cluster_path = tmp_path ".journal" in
        let serial = serial_reference ~journal:serial_path in
        let hung_up = ref false in
        (* A hand-rolled client asks for a second batch without
           answering the first: its runs must return to the queue, not
           be orphaned by a new batch.  A real worker then drains the
           campaign alone. *)
        let greedy addr =
          [
            Domain.spawn (fun () ->
                (match Cluster.Address.connect addr with
                | Error _ -> ()
                | Ok fd ->
                    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
                    let reader = Cluster.Frame.reader fd in
                    let send m =
                      Cluster.Frame.write fd
                        (Cluster.Protocol.encode_to_coordinator m)
                    in
                    send
                      (Cluster.Protocol.Join
                         {
                           version = Cluster.Protocol.version;
                           host = "greedy";
                           pid = 1;
                         });
                    ignore (Cluster.Frame.read reader);
                    send Cluster.Protocol.Request_batch;
                    ignore (Cluster.Frame.read reader);
                    send Cluster.Protocol.Request_batch;
                    (* End of stream, not the receive timeout. *)
                    hung_up :=
                      (match Cluster.Frame.read reader with
                      | Ok None -> true
                      | Ok (Some _) | Error _ -> false
                      | exception Unix.Unix_error _ -> false);
                    (try Unix.close fd with Unix.Unix_error _ -> ()));
                Cluster.Worker.run ~connect:addr
                  ~make:(fun w -> make_executor w)
                  ());
          ]
        in
        let cluster =
          cluster_run ~journal:cluster_path ~worker_hooks:[]
            ~extra_clients:greedy ()
        in
        Alcotest.(check bool) "greedy connection killed" true !hung_up;
        check_results_match "results" serial cluster;
        Alcotest.(check string)
          "journal bytes" (read_file serial_path) (read_file cluster_path);
        Sys.remove serial_path;
        Sys.remove cluster_path);
    Alcotest.test_case "cluster resume skips journalled runs" `Slow
      (fun () ->
        let serial_path = tmp_path ".journal" in
        let cluster_path = tmp_path ".journal" in
        let serial = serial_reference ~journal:serial_path in
        (* Seed the cluster journal with a truncated copy of the serial
           one (header + first 10 records), as an interrupted campaign
           would leave behind. *)
        let full = read_file serial_path in
        let lines = String.split_on_char '\n' full in
        let keep = 15 (* 5 header lines + 10 records *) in
        let truncated =
          String.concat "\n"
            (List.filteri (fun i _ -> i < keep) lines)
          ^ "\n"
        in
        let oc = open_out_bin cluster_path in
        output_string oc truncated;
        close_out oc;
        let cluster = cluster_run ~journal:cluster_path ~resume:true () in
        check_results_match "results" serial cluster;
        Alcotest.(check string)
          "journal bytes" (read_file serial_path) (read_file cluster_path);
        Sys.remove serial_path;
        Sys.remove cluster_path);
    Alcotest.test_case "cluster-fed live analysis equals batch" `Slow
      (fun () ->
        let live =
          Propane.Live.create ~model:scale_model
            ~targets:scaler_campaign.Propane.Campaign.targets ()
        in
        (* A rule that can never fire: the analysis rides along while
           the campaign runs to completion. *)
        let results =
          cluster_run ~live ~stop_when:(`Rankings_stable 1_000_000) ()
        in
        let digest = Propane.Live.digest live in
        Alcotest.(check int)
          "observed every run"
          (Propane.Results.count results)
          digest.Propane.Live.runs_observed;
        let matrices =
          match Propane.Estimator.estimate_all ~model:scale_model results with
          | Ok m -> m
          | Error msg -> Alcotest.failf "batch estimation failed: %s" msg
        in
        let batch = Propagation.Analysis.run_exn scale_model matrices in
        match Propane.Live.snapshot live with
        | Ok analysis ->
            Alcotest.(check string)
              "summaries byte-identical"
              (Fmt.str "%a" Propagation.Analysis.pp_summary batch)
              (Fmt.str "%a" Propagation.Analysis.pp_summary analysis)
        | Error msg -> Alcotest.failf "live snapshot failed: %s" msg);
    Alcotest.test_case "cluster stop-when drains and leaves a resumable journal"
      `Slow (fun () ->
        let serial_path = tmp_path ".journal" in
        let cluster_path = tmp_path ".journal" in
        let serial = serial_reference ~journal:serial_path in
        let live =
          Propane.Live.create ~model:scale_model
            ~targets:scaler_campaign.Propane.Campaign.targets ()
        in
        let stopped =
          cluster_run ~journal:cluster_path ~sut:slow_scaler_sut ~live
            ~stop_when:(`Rankings_stable 5) ()
        in
        if
          Propane.Results.count stopped
          >= Propane.Campaign.size scaler_campaign
        then
          Alcotest.failf "did not stop early: %d of %d"
            (Propane.Results.count stopped)
            (Propane.Campaign.size scaler_campaign);
        Alcotest.(check bool)
          "rule satisfied" true
          (Propane.Live.satisfied live (`Rankings_stable 5));
        (* Resuming the early-stopped journal (fast scaler this time)
           completes the campaign with exactly the uninterrupted
           journal's bytes. *)
        let resumed = cluster_run ~journal:cluster_path ~resume:true () in
        check_results_match "resumed" serial resumed;
        Alcotest.(check string)
          "journal bytes" (read_file serial_path) (read_file cluster_path);
        Sys.remove serial_path;
        Sys.remove cluster_path);
  ]

(* ------------------------------------------------------------------ *)
(* Handshake vetting: reject reasons name the mismatched field         *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* A hand-rolled client that sends [payload] as its first frame and
   captures the coordinator's first reply. *)
let handshake_probe payload out addr =
  Domain.spawn (fun () ->
      match Cluster.Address.connect addr with
      | Error e ->
          out := Error e;
          Error e
      | Ok fd ->
          Fun.protect
            ~finally:(fun () ->
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              let reader = Cluster.Frame.reader fd in
              Cluster.Frame.write fd payload;
              (match Cluster.Frame.read reader with
              | Ok (Some p) -> (
                  match Cluster.Protocol.decode_to_worker p with
                  | Ok (Cluster.Protocol.Reject r) -> out := Ok r
                  | Ok m ->
                      out :=
                        Error
                          (Fmt.str "expected a reject, got %a"
                             Cluster.Protocol.pp_to_worker m)
                  | Error e -> out := Error e)
              | Ok None -> out := Error "connection closed without a reply"
              | Error e -> out := Error e);
              Ok 0))

(* Version 2's opening message: tag 1, version, host, pid, digest. *)
let v2_hello =
  let b = Buffer.create 32 in
  let add_str s =
    Buffer.add_int32_be b (Int32.of_int (String.length s));
    Buffer.add_string b s
  in
  Buffer.add_uint8 b 1;
  Buffer.add_int32_be b 2l;
  add_str "probe";
  Buffer.add_int32_be b 4l;
  add_str "";
  Buffer.contents b

let reject_tests =
  [
    Alcotest.test_case "reject reasons name the mismatched field" `Slow
      (fun () ->
        let bad_version = ref (Error "no reply") in
        let hello = ref (Error "no reply") in
        let pinned = ref (Error "not run") in
        let pin = String.make 32 'f' in
        let clients addr =
          [
            handshake_probe
              (Cluster.Protocol.encode_to_coordinator
                 (Cluster.Protocol.Join
                    { version = 99; host = "probe"; pid = 1 }))
              bad_version addr;
            handshake_probe v2_hello hello addr;
            Domain.spawn (fun () ->
                pinned :=
                  Cluster.Worker.run ~config_digest:pin ~connect:addr
                    ~make:(fun w -> make_executor w)
                    ();
                Ok 0);
          ]
        in
        ignore (cluster_run ~extra_clients:clients ());
        let check name needle = function
          | Ok reason ->
              if not (contains ~needle reason) then
                Alcotest.failf "%s: %S does not name %S" name reason needle
          | Error e -> Alcotest.failf "%s: %s" name e
        in
        check "version skew"
          (Printf.sprintf "protocol version: worker speaks 99, server speaks %d"
             Cluster.Protocol.version)
          !bad_version;
        Alcotest.(check (result string string))
          "a version-2 hello is disconnected unanswered"
          (Error "connection closed without a reply") !hello;
        (* A pin is checked by the worker, which leaves naming both
           digests, so the operator can fix the pin without a second
           round-trip. *)
        let pin_error =
          match !pinned with
          | Ok n -> Error (Printf.sprintf "pinned worker served %d runs" n)
          | Error e -> Ok e
        in
        check "digest skew names the worker pin"
          (Printf.sprintf "config digest: worker pinned %s" pin)
          pin_error;
        check "digest skew names the coordinator digest"
          (Digest.to_hex (Digest.string ""))
          pin_error);
    Alcotest.test_case "a correctly pinned worker is accepted" `Slow
      (fun () ->
        (* The pin is the digest of the coordinator's recipe — "" here,
           since cluster_run passes none.  The pinned worker must drain
           the whole campaign alone. *)
        let pinned addr =
          [
            Domain.spawn (fun () ->
                let make (w : Cluster.Protocol.welcome) =
                  Ok
                    (Propane.Runner.executor ~seed:w.Cluster.Protocol.seed
                       (scaler_sut ()) scaler_campaign)
                in
                Cluster.Worker.run
                  ~config_digest:(Digest.to_hex (Digest.string ""))
                  ~connect:addr ~make ());
          ]
        in
        let results =
          cluster_run ~worker_hooks:[] ~extra_clients:pinned ()
        in
        Alcotest.(check int)
          "campaign completed"
          (Propane.Campaign.size scaler_campaign)
          (Propane.Results.count results));
  ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cluster"
    [
      ("frame", frame_tests);
      ("protocol", protocol_tests);
      ("address", address_tests);
      ("integration", integration_tests);
      ("reject", reject_tests);
    ]
