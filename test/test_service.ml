(* Tests for the campaign service (lib/service): the JSON and HTTP
   codecs, the manifest ledger, and in-process integration of the
   daemon + fleet workers — including the headline guarantees: journals
   byte-identical to solo runs however campaigns interleave over one
   fleet, crash-and-restart resume, and named backpressure rejections. *)

module Service = Propane_service.Service
module Json = Propane_service.Json
module Http = Propane_service.Http
module Manifest = Propane_service.Manifest

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)

let gen_json =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        let scalar =
          oneof
            [
              pure Json.Null;
              map (fun b -> Json.Bool b) bool;
              map (fun i -> Json.Num (float_of_int i)) (int_range (-1000) 1000);
              map (fun f -> Json.Num f) (float_bound_inclusive 1e6);
              map
                (fun s -> Json.Str s)
                (string_size ~gen:char (int_range 0 12));
            ]
        in
        if n = 0 then scalar
        else
          oneof
            [
              scalar;
              map
                (fun xs -> Json.List xs)
                (list_size (int_range 0 4) (self (n / 2)));
              map
                (fun kvs -> Json.Obj kvs)
                (list_size (int_range 0 4)
                   (pair (string_size ~gen:char (int_range 0 8)) (self (n / 2))));
            ]))

let json_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"print/parse round-trips" gen_json
         (fun j -> Json.parse (Json.to_string j) = Ok j));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:1000 ~name:"parsing garbage never raises"
         QCheck2.Gen.(string_size ~gen:char (int_range 0 40))
         (fun s -> match Json.parse s with Ok _ | Error _ -> true));
    Alcotest.test_case "escapes and unicode decode" `Quick (fun () ->
        (match Json.parse {|"a\tb\nA\\"|} with
        | Ok (Json.Str s) -> Alcotest.(check string) "str" "a\tb\nA\\" s
        | _ -> Alcotest.fail "escaped string did not parse");
        match Json.parse {|{"x": [1, 2.5, true, null]}|} with
        | Ok j ->
            Alcotest.(check (option (list (float 1e-9))))
              "array" (Some [ 1.0; 2.5 ])
              (Option.map
                 (List.filter_map Json.num)
                 (Option.bind (Json.member "x" j) Json.list))
        | Error msg -> Alcotest.fail msg);
    Alcotest.test_case "trailing bytes and truncations are errors" `Quick
      (fun () ->
        (match Json.parse "{} junk" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "trailing bytes accepted");
        List.iter
          (fun s ->
            match Json.parse s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%S accepted" s)
          [ "{"; "["; {|{"a":}|}; {|"unterminated|}; "01"; "tru"; "" ]);
  ]

(* ------------------------------------------------------------------ *)
(* HTTP server parser                                                  *)

let http_tests =
  [
    Alcotest.test_case "request parses however bytes arrive" `Quick
      (fun () ->
        let raw =
          "POST /campaigns HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody"
        in
        (* Whole, byte-by-byte, and split mid-header. *)
        let feeds =
          [
            [ raw ];
            List.init (String.length raw) (fun i -> String.make 1 raw.[i]);
            [ String.sub raw 0 20; String.sub raw 20 (String.length raw - 20) ];
          ]
        in
        List.iter
          (fun chunks ->
            let c = Http.conn () in
            List.iter (Http.feed c) chunks;
            match Http.next c with
            | Ok (Some r) ->
                Alcotest.(check string) "meth" "POST" r.Http.meth;
                Alcotest.(check string) "path" "/campaigns" r.Http.path;
                Alcotest.(check string) "body" "body" r.Http.body;
                Alcotest.(check (option string))
                  "header" (Some "4")
                  (List.assoc_opt "content-length" r.Http.headers)
            | Ok None -> Alcotest.fail "request incomplete"
            | Error msg -> Alcotest.fail msg)
          feeds);
    Alcotest.test_case "pipelined requests come out one by one" `Quick
      (fun () ->
        let c = Http.conn () in
        Http.feed c "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        (match Http.next c with
        | Ok (Some r) -> Alcotest.(check string) "first" "/a" r.Http.path
        | _ -> Alcotest.fail "first request missing");
        match Http.next c with
        | Ok (Some r) -> Alcotest.(check string) "second" "/b" r.Http.path
        | _ -> Alcotest.fail "second request missing");
    Alcotest.test_case "oversized header block poisons the connection"
      `Quick (fun () ->
        let c = Http.conn () in
        Http.feed c ("GET /" ^ String.make 20_000 'x' ^ " HTTP/1.1\r\n");
        match Http.next c with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "oversized header accepted");
    Alcotest.test_case "absurd content-length is rejected" `Quick (fun () ->
        let c = Http.conn () in
        Http.feed c "POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        match Http.next c with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "absurd content-length accepted");
  ]

(* ------------------------------------------------------------------ *)
(* Manifest                                                            *)

let tmp_path suffix =
  let path = Filename.temp_file "propane-service" suffix in
  Unix.unlink path;
  path

let manifest_tests =
  [
    Alcotest.test_case "submissions and transitions round-trip" `Quick
      (fun () ->
        let path = tmp_path ".manifest" in
        let m =
          match Manifest.append path with
          | Ok m -> m
          | Error msg -> Alcotest.fail msg
        in
        Manifest.submit m ~id:"c0001" ~body:"tabs\tand\nnewlines{}";
        Manifest.submit m ~id:"c0002" ~body:"{}";
        Manifest.transition m ~id:"c0001" Manifest.Running ~reason:"";
        Manifest.transition m ~id:"c0001" Manifest.Failed
          ~reason:"run 3 crashed\nbadly";
        Manifest.close m;
        (match Manifest.load path with
        | Error msg -> Alcotest.fail msg
        | Ok entries ->
            Alcotest.(check (list string))
              "ids in submission order" [ "c0001"; "c0002" ]
              (List.map (fun (e : Manifest.entry) -> e.id) entries);
            let e1 = List.hd entries in
            Alcotest.(check string) "body" "tabs\tand\nnewlines{}" e1.body;
            Alcotest.(check bool)
              "latest state wins" true
              (e1.state = Manifest.Failed);
            Alcotest.(check string) "reason" "run 3 crashed\nbadly" e1.reason;
            Alcotest.(check bool)
              "second still queued" true
              ((List.nth entries 1).state = Manifest.Queued));
        (* Reopening appends instead of truncating. *)
        (match Manifest.append path with
        | Ok m2 ->
            Manifest.transition m2 ~id:"c0002" Manifest.Done ~reason:"";
            Manifest.close m2
        | Error msg -> Alcotest.fail msg);
        (match Manifest.load path with
        | Ok entries ->
            Alcotest.(check bool)
              "post-reopen transition applied" true
              ((List.nth entries 1).state = Manifest.Done)
        | Error msg -> Alcotest.fail msg);
        Sys.remove path);
    Alcotest.test_case "torn trailing line is tolerated, torn middle is not"
      `Quick (fun () ->
        let path = tmp_path ".manifest" in
        let write s =
          let oc = open_out_bin path in
          output_string oc s;
          close_out oc
        in
        write
          "propane-service-manifest 1\ncampaign\tc0001\t{}\nstate\tc0001\tru";
        (match Manifest.load path with
        | Ok [ e ] ->
            Alcotest.(check bool) "still queued" true (e.state = Manifest.Queued)
        | Ok _ -> Alcotest.fail "wrong entry count"
        | Error msg -> Alcotest.fail msg);
        write
          "propane-service-manifest 1\ngarbage line\ncampaign\tc0001\t{}\n";
        (match Manifest.load path with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "torn middle line accepted");
        write "not a manifest\n";
        (match Manifest.load path with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "bad magic accepted");
        Sys.remove path);
    Alcotest.test_case "every torn tail loads as its committed prefix" `Quick
      (fun () ->
        let path = tmp_path ".manifest" in
        let write s =
          Out_channel.with_open_bin path (fun oc -> output_string oc s)
        in
        (match Manifest.append path with
        | Error msg -> Alcotest.fail msg
        | Ok m ->
            Manifest.submit m ~id:"c0001" ~body:"tabs\tand\nnewlines \\ {}";
            Manifest.transition m ~id:"c0001" Manifest.Running ~reason:"";
            Manifest.submit m ~id:"c0002" ~body:"{\"seed\":7}";
            Manifest.transition m ~id:"c0001" Manifest.Failed
              ~reason:"run 3 crashed\n\tbadly";
            Manifest.close m);
        let full = In_channel.with_open_bin path In_channel.input_all in
        let show (e : Manifest.entry) =
          Printf.sprintf "%s %S %s %S" e.id e.body
            (Manifest.state_to_string e.state)
            e.reason
        in
        let load what =
          match Manifest.load path with
          | Ok entries -> List.map show entries
          | Error msg -> Alcotest.failf "%s: %s" what msg
        in
        let appended =
          show { id = "c0009"; body = "{}"; state = Running; reason = "" }
        in
        for cut = 1 + String.index full '\n' to String.length full do
          let torn = String.sub full 0 cut in
          write (String.sub torn 0 (1 + String.rindex torn '\n'));
          let committed = load "committed prefix" in
          write torn;
          let what = Printf.sprintf "cut at byte %d" cut in
          Alcotest.(check (list string)) what committed (load what);
          (match Manifest.append path with
          | Error msg -> Alcotest.failf "%s: append: %s" what msg
          | Ok m ->
              Manifest.submit m ~id:"c0009" ~body:"{}";
              Manifest.transition m ~id:"c0009" Manifest.Running ~reason:"";
              Manifest.close m);
          Alcotest.(check (list string))
            (what ^ ", then two appends")
            (committed @ [ appended ])
            (load (what ^ ", then two appends"))
        done;
        Sys.remove path);
    Alcotest.test_case "duplicate ids and dangling states are corruption"
      `Quick (fun () ->
        let path = tmp_path ".manifest" in
        let write s =
          let oc = open_out_bin path in
          output_string oc s;
          close_out oc
        in
        write
          "propane-service-manifest 1\ncampaign\tc0001\t{}\ncampaign\tc0001\t{}\n";
        (match Manifest.load path with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "duplicate id accepted");
        write "propane-service-manifest 1\nstate\tc0009\tdone\t\n";
        (match Manifest.load path with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "state for unknown campaign accepted");
        Sys.remove path);
  ]

(* ------------------------------------------------------------------ *)
(* Integration fixtures: the scaler SUT from the cluster tests, two
   campaigns over it, and an in-process service + fleet.               *)

module Sim = Simkernel

let scaler_sut ?(slow = false) () =
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
          if slow then Unix.sleepf 2e-4;
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

(* Two distinct campaigns multiplexed over one fleet.  [slow] throttles
   the SUT so the test can observe (and kill) campaigns mid-flight. *)
let campaign_of_kind kind =
  let times =
    match kind with
    | "a" -> [ 10; 20; 30; 40; 50 ]
    | _ -> [ 15; 35; 55 ]
  in
  Propane.Campaign.make
    ~name:("scaler-" ^ kind)
    ~targets:[ "x" ]
    ~testcases:[ Propane.Testcase.make ~id:"ramp" ~params:[] ]
    ~times:(List.map Sim.Sim_time.of_ms times)
    ~errors:(Propane.Error_model.bit_flips ~width:16)

let seed_of_kind = function "a" -> 11L | _ -> 22L

let recipe_of ~slow kind =
  Printf.sprintf "svc-test;kind=%s;slow=%b" kind slow

let parse_recipe r =
  match String.split_on_char ';' r with
  | [ "svc-test"; kind_f; slow_f ] -> (
      match
        ( String.split_on_char '=' kind_f,
          String.split_on_char '=' slow_f )
      with
      | [ "kind"; kind ], [ "slow"; slow ] ->
          Option.map (fun slow -> (kind, slow)) (bool_of_string_opt slow)
      | _ -> None)
  | _ -> None

(* The submission body: {"kind":"a","tenant":"t","weight":1,"slow":false}. *)
let submission ?(tenant = "default") ?(weight = 1) ?(slow = false) kind =
  Json.to_string
    (Json.Obj
       [
         ("kind", Json.Str kind);
         ("tenant", Json.Str tenant);
         ("weight", Json.Num (float_of_int weight));
         ("slow", Json.Bool slow);
       ])

let parse_submission body =
  match Json.parse body with
  | Error msg -> Error msg
  | Ok json -> (
      let str name default =
        Option.value ~default (Option.bind (Json.member name json) Json.str)
      in
      match Option.bind (Json.member "kind" json) Json.str with
      | None -> Error "missing kind"
      | Some kind when kind <> "a" && kind <> "b" ->
          Error (Printf.sprintf "unknown kind %S" kind)
      | Some kind ->
          let slow =
            Option.value ~default:false
              (Option.bind (Json.member "slow" json) Json.bool)
          in
          let campaign = campaign_of_kind kind in
          let live =
            Propane.Live.create
              ~attribution:(Propane.Estimator.Direct { window_ms = 64 })
              ~model:scale_model ~targets:[ "x" ] ()
          in
          Ok
            {
              Service.tenant = str "tenant" "default";
              weight =
                Option.value ~default:1
                  (Option.bind (Json.member "weight" json) Json.int);
              name = campaign.Propane.Campaign.name;
              sut = "scaler";
              total = Propane.Campaign.size campaign;
              recipe = recipe_of ~slow kind;
              config =
                Propane.Runner.Config.make ~seed:(seed_of_kind kind) ~jobs:1
                  ();
              live = Some live;
              plan = None;
            })

(* The fleet worker's executor factory: rebuild from the wire recipe,
   exactly like [propane worker] does from a real recipe. *)
let worker_make (w : Cluster.Protocol.welcome) =
  match parse_recipe w.Cluster.Protocol.config with
  | None -> Error "unknown recipe"
  | Some (kind, slow) ->
      let campaign = campaign_of_kind kind in
      if Propane.Campaign.size campaign <> w.total then
        Error "campaign size mismatch"
      else
        Ok
          (Propane.Runner.executor ~seed:w.seed
             (scaler_sut ~slow ())
             campaign)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The solo reference: the journal a plain serial run of the same
   recipe writes.  The service's journals must match it byte for
   byte.  [recipe_slow] only changes the recipe string pinned into the
   journal header; the reference itself always runs the fast SUT —
   when compared against a slow-SUT service run it proves wall-clock
   timing never leaks into the bytes. *)
let solo_journal ?(recipe_slow = false) kind =
  let path = tmp_path ".journal" in
  let (_ : Propane.Results.t) =
    Propane.Runner.run
      ~config:
        (Propane.Runner.Config.make ~seed:(seed_of_kind kind) ~jobs:1
           ~journal:path ())
      ~recipe:(recipe_of ~slow:recipe_slow kind)
      (scaler_sut ()) (campaign_of_kind kind)
  in
  let bytes = read_file path in
  Sys.remove path;
  bytes

let fresh_state_dir () =
  let dir = Filename.temp_file "propane-service" ".state" in
  Unix.unlink dir;
  Unix.mkdir dir 0o755;
  dir

let fleet_address state_dir =
  Cluster.Address.Unix_sock (Filename.concat state_dir "f.sock")

let connect_ok addr =
  match Cluster.Address.connect addr with
  | Ok fd -> fd
  | Error msg -> Alcotest.failf "connect: %s" msg

(* Runs [f http] against a live in-process service with [workers] fleet
   workers in their own domains.  [f] returns the stop verdict the
   service should see next ([`Drain] for a graceful end, [`Abort] to
   simulate a crash); the service's own result is returned. *)
let with_service ?(workers = 2) ?(queue_max = 16) ?(tenant_quota = 4)
    ?(heartbeat_timeout_s = 30.) ~state_dir f =
  let listen = fleet_address state_dir in
  let http = Cluster.Address.Unix_sock (Filename.concat state_dir "h.sock") in
  let verdict = Atomic.make `Continue in
  let cfg =
    Service.config ~queue_max ~tenant_quota ~heartbeat_timeout_s
      ~listen ~http ~state_dir ~parse:parse_submission ()
  in
  let daemon =
    Domain.spawn (fun () ->
        Service.run ~stop:(fun () -> Atomic.get verdict) cfg)
  in
  let fleet =
    List.init workers (fun _ ->
        Domain.spawn (fun () ->
            match Cluster.Worker.run ~connect:listen ~make:worker_make () with
            | r -> r
            | exception _ -> Error "worker died"))
  in
  let outcome =
    match f http with
    | v ->
        Atomic.set verdict v;
        Ok (Domain.join daemon)
    | exception e ->
        Atomic.set verdict `Abort;
        ignore (Domain.join daemon);
        List.iter (fun d -> ignore (Domain.join d)) fleet;
        raise e
  in
  List.iter (fun d -> ignore (Domain.join d)) fleet;
  match outcome with Ok r -> r | Error e -> raise e

let http_json ~addr ~meth ~path ?body () =
  match Http.request ?body ~addr ~meth ~path () with
  | Error msg -> Alcotest.failf "%s %s: %s" meth path msg
  | Ok (status, body) -> (
      match Json.parse body with
      | Ok json -> (status, json)
      | Error msg ->
          Alcotest.failf "%s %s: unparseable response %S: %s" meth path body
            msg)

let jstr name json =
  Option.value ~default:"" (Option.bind (Json.member name json) Json.str)

let jint name json =
  Option.value ~default:(-1) (Option.bind (Json.member name json) Json.int)

let rec wait_until ?(timeout = 60.) ?(what = "condition") f =
  if timeout <= 0. then Alcotest.failf "timed out waiting for %s" what
  else if not (f ()) then begin
    Unix.sleepf 0.05;
    wait_until ~timeout:(timeout -. 0.05) ~what f
  end

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let state_of ~addr id =
  let _, json = http_json ~addr ~meth:"GET" ~path:("/campaigns/" ^ id) () in
  jstr "state" json

let submit_ok ~addr body =
  let status, json =
    http_json ~addr ~meth:"POST" ~path:"/campaigns" ~body ()
  in
  Alcotest.(check int) "submit accepted" 201 status;
  jstr "id" json

(* ------------------------------------------------------------------ *)
(* Integration                                                         *)

let service_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:4
         ~name:"interleaved campaigns journal byte-identically to solo runs"
         QCheck2.Gen.(pair bool (int_range 1 3))
         (fun (b_first, workers) ->
           let solo_a = solo_journal "a" and solo_b = solo_journal "b" in
           let state_dir = fresh_state_dir () in
           let result =
             with_service ~workers ~state_dir (fun addr ->
                 let kinds = if b_first then [ "b"; "a" ] else [ "a"; "b" ] in
                 let ids =
                   List.map
                     (fun kind ->
                       ( submit_ok ~addr
                           (submission ~tenant:("tenant-" ^ kind) kind),
                         kind ))
                     kinds
                 in
                 wait_until ~what:"both campaigns done" (fun () ->
                     List.for_all
                       (fun (id, _) -> state_of ~addr id = "done")
                       ids);
                 (* Per-tenant accounting sticks to each campaign. *)
                 List.iter
                   (fun (id, kind) ->
                     let _, json =
                       http_json ~addr ~meth:"GET"
                         ~path:("/campaigns/" ^ id) ()
                     in
                     Alcotest.(check string)
                       "tenant" ("tenant-" ^ kind) (jstr "tenant" json);
                     Alcotest.(check int)
                       "completed = total"
                       (Propane.Campaign.size (campaign_of_kind kind))
                       (jint "completed" json))
                   ids;
                 List.iter
                   (fun (id, kind) ->
                     let solo = if kind = "a" then solo_a else solo_b in
                     let got =
                       read_file
                         (Filename.concat state_dir (id ^ ".journal"))
                     in
                     if got <> solo then
                       Alcotest.failf
                         "journal of %s (kind %s) differs from solo run" id
                         kind)
                   ids;
                 `Drain)
           in
           result = Ok ()));
    Alcotest.test_case "killed service resumes campaigns byte-identically"
      `Slow (fun () ->
        let solo_a = solo_journal ~recipe_slow:true "a" in
        let state_dir = fresh_state_dir () in
        (* Phase 1: crash mid-campaign.  The slow SUT keeps the campaign
           in flight long enough to observe progress, then the service
           aborts without flushing — exactly a SIGKILL's on-disk state. *)
        let crashed =
          with_service ~workers:2 ~state_dir (fun addr ->
              let id = submit_ok ~addr (submission ~slow:true "a") in
              Alcotest.(check string) "first id" "c0001" id;
              wait_until ~what:"some progress" (fun () ->
                  let _, json =
                    http_json ~addr ~meth:"GET" ~path:("/campaigns/" ^ id) ()
                  in
                  jint "completed" json > 0);
              `Abort)
        in
        Alcotest.(check bool) "service aborted" true (Result.is_error crashed);
        (* The journal on disk is a proper prefix: header plus however
           many records were flushed. *)
        let partial = read_file (Filename.concat state_dir "c0001.journal") in
        Alcotest.(check bool)
          "partial journal is shorter" true
          (String.length partial < String.length solo_a);
        (* Phase 2: a fresh service on the same state dir resumes from
           the manifest + journal and completes the campaign.  The slow
           recipe is part of the submission body it re-parses, but the
           records are identical to the fast solo run — outcomes depend
           on (seed, index) only. *)
        let resumed =
          with_service ~workers:2 ~state_dir (fun addr ->
              wait_until ~what:"resumed campaign done" (fun () ->
                  state_of ~addr "c0001" = "done");
              let _, json =
                http_json ~addr ~meth:"GET" ~path:"/campaigns/c0001" ()
              in
              (* Resume replayed the journalled prefix instead of
                 re-running it. *)
              Alcotest.(check bool) "skipped > 0" true (jint "completed" json > 0);
              `Drain)
        in
        Alcotest.(check bool) "clean second run" true (resumed = Ok ());
        (* Solo reference ran the fast SUT (same recipe string pinned);
           the service ran the slow one.  Identical journals prove
           timing never leaks into records. *)
        let final = read_file (Filename.concat state_dir "c0001.journal") in
        if final <> solo_a then
          Alcotest.fail "resumed journal differs from solo run";
        match Manifest.load (Filename.concat state_dir "manifest") with
        | Ok [ e ] ->
            Alcotest.(check bool) "manifest done" true (e.state = Manifest.Done)
        | Ok _ -> Alcotest.fail "manifest entry count"
        | Error msg -> Alcotest.fail msg);
    Alcotest.test_case "backpressure rejections name the exhausted limit"
      `Quick (fun () ->
        let state_dir = fresh_state_dir () in
        let result =
          (* No workers: campaigns stay queued, so the queue fills
             deterministically. *)
          with_service ~workers:0 ~queue_max:2 ~tenant_quota:1 ~state_dir
            (fun addr ->
              let c1 = submit_ok ~addr (submission ~tenant:"alice" "a") in
              (* Tenant quota first. *)
              let status, json =
                http_json ~addr ~meth:"POST" ~path:"/campaigns"
                  ~body:(submission ~tenant:"alice" "b") ()
              in
              Alcotest.(check int) "quota rejection" 429 status;
              let err = jstr "error" json in
              Alcotest.(check bool)
                (Printf.sprintf "quota reason names tenant: %s" err)
                true
                (contains ~needle:"alice" err && contains ~needle:"quota" err);
              (* Then the global queue. *)
              let _ = submit_ok ~addr (submission ~tenant:"bob" "b") in
              let status, json =
                http_json ~addr ~meth:"POST" ~path:"/campaigns"
                  ~body:(submission ~tenant:"carol" "a") ()
              in
              Alcotest.(check int) "queue rejection" 429 status;
              Alcotest.(check bool)
                "queue reason names the limit" true
                (contains ~needle:"queue full" (jstr "error" json));
              (* Parse failures are the client's fault, not capacity. *)
              let status, _ =
                http_json ~addr ~meth:"POST" ~path:"/campaigns"
                  ~body:{|{"kind":"zebra"}|} ()
              in
              Alcotest.(check int) "bad submission" 400 status;
              (* Cancelling frees the slot. *)
              let status, _ =
                http_json ~addr ~meth:"DELETE" ~path:("/campaigns/" ^ c1) ()
              in
              Alcotest.(check bool)
                "cancel accepted" true
                (status = 200 || status = 202);
              wait_until ~what:"cancelled" (fun () ->
                  state_of ~addr c1 = "cancelled");
              let id = submit_ok ~addr (submission ~tenant:"carol" "a") in
              Alcotest.(check bool) "slot freed" true (id <> "");
              (* Unknown ids are 404s. *)
              let status, _ =
                http_json ~addr ~meth:"GET" ~path:"/campaigns/c9999" ()
              in
              Alcotest.(check int) "unknown id" 404 status;
              `Drain)
        in
        Alcotest.(check bool) "clean shutdown" true (result = Ok ()));
    Alcotest.test_case "fleet and status surfaces live telemetry" `Slow
      (fun () ->
        let state_dir = fresh_state_dir () in
        let result =
          with_service ~workers:2 ~state_dir (fun addr ->
              wait_until ~what:"fleet joined" (fun () ->
                  let _, json = http_json ~addr ~meth:"GET" ~path:"/fleet" () in
                  jint "count" json = 2);
              let id = submit_ok ~addr (submission ~slow:true "b") in
              (* While in flight: telemetry and rankings are served. *)
              wait_until ~what:"in-flight progress" (fun () ->
                  let _, json =
                    http_json ~addr ~meth:"GET" ~path:("/campaigns/" ^ id) ()
                  in
                  jint "completed" json > 0
                  && jint "completed" json < jint "total" json);
              let _, json =
                http_json ~addr ~meth:"GET" ~path:("/campaigns/" ^ id) ()
              in
              Alcotest.(check bool)
                "telemetry present" true
                (Json.member "telemetry" json <> None);
              (match Json.member "rankings" json with
              | Some (Json.List (row :: _)) ->
                  Alcotest.(check string) "module" "SCALE" (jstr "module" row);
                  let est =
                    Option.value ~default:Json.Null
                      (Json.member "relative_permeability" row)
                  in
                  let v name =
                    Option.value ~default:Float.nan
                      (Option.bind (Json.member name est) Json.num)
                  in
                  Alcotest.(check bool)
                    "wilson interval brackets the estimate" true
                    (v "lo" <= v "value" && v "value" <= v "hi")
              | _ ->
                  (* Early polls may precede the first snapshot; the
                     campaign has progressed, so rankings must exist. *)
                  Alcotest.fail "no rankings while in flight");
              wait_until ~what:"done" (fun () -> state_of ~addr id = "done");
              let _, fleet = http_json ~addr ~meth:"GET" ~path:"/fleet" () in
              let completed =
                match
                  Option.bind (Json.member "workers" fleet) Json.list
                with
                | Some ws -> List.fold_left (fun n w -> n + jint "completed" w) 0 ws
                | None -> -1
              in
              Alcotest.(check int)
                "fleet executed every run"
                (Propane.Campaign.size (campaign_of_kind "b"))
                completed;
              `Drain)
        in
        Alcotest.(check bool) "clean shutdown" true (result = Ok ()));
    Alcotest.test_case "a stray result kills its worker, not the journal"
      `Slow (fun () ->
        let solo_a = solo_journal "a" in
        let total = Propane.Campaign.size (campaign_of_kind "a") in
        let state_dir = fresh_state_dir () in
        let listen =
          Cluster.Address.Unix_sock (Filename.concat state_dir "f.sock")
        in
        let hung_up = ref false and real = ref None in
        let result =
          with_service ~workers:0 ~state_dir (fun addr ->
              let id = submit_ok ~addr (submission "a") in
              (* A hand-rolled fleet worker takes a batch and answers for
                 a run outside it, with a genuine outcome of another
                 run.  Only after the service hangs up does a real
                 worker join and drain the campaign alone. *)
              (match Cluster.Address.connect listen with
              | Error msg -> Alcotest.failf "connect: %s" msg
              | Ok fd ->
                  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
                  let reader = Cluster.Frame.reader fd in
                  let send m =
                    Cluster.Frame.write fd
                      (Cluster.Protocol.encode_to_coordinator m)
                  in
                  let rec receive () =
                    match Cluster.Frame.read reader with
                    | Ok (Some p) -> (
                        match Cluster.Protocol.decode_to_worker p with
                        | Ok Cluster.Protocol.Ping -> receive ()
                        | Ok m -> Some m
                        | Error _ -> None)
                    | Ok None | Error _ -> None
                    | exception Unix.Unix_error _ -> None
                  in
                  send
                    (Cluster.Protocol.Join
                       { version = Cluster.Protocol.version; host = "stray";
                         pid = 1 });
                  (match receive () with
                  | Some (Cluster.Protocol.Assign w) -> (
                      send Cluster.Protocol.Request_batch;
                      match (receive (), worker_make w) with
                      | Some (Cluster.Protocol.Batch (first :: _ as batch)),
                        Ok exec ->
                          let outside =
                            List.find
                              (fun i -> not (List.mem i batch))
                              (List.init total (fun i -> total - 1 - i))
                          in
                          send
                            (Cluster.Protocol.Result
                               { index = outside; retries = 0;
                                 outcome = fst (exec first) });
                          (* End of stream, not the receive timeout. *)
                          hung_up :=
                            (match Cluster.Frame.read reader with
                            | Ok None -> true
                            | Ok (Some _) | Error _ -> false
                            | exception Unix.Unix_error _ -> false)
                      | _ -> Alcotest.fail "expected a batch")
                  | _ -> Alcotest.fail "expected an assignment");
                  (try Unix.close fd with Unix.Unix_error _ -> ()));
              real :=
                Some
                  (Domain.spawn (fun () ->
                       Cluster.Worker.run ~connect:listen ~make:worker_make
                         ()));
              wait_until ~what:"campaign done" (fun () ->
                  state_of ~addr id = "done");
              Alcotest.(check string)
                "journal bytes" solo_a
                (read_file (Filename.concat state_dir (id ^ ".journal")));
              `Drain)
        in
        Option.iter (fun d -> ignore (Domain.join d)) !real;
        Alcotest.(check bool) "stray worker killed" true !hung_up;
        Alcotest.(check bool) "clean shutdown" true (result = Ok ()));
    Alcotest.test_case "version skew is rejected naming both versions" `Quick
      (fun () ->
        let state_dir = fresh_state_dir () in
        let listen = fleet_address state_dir in
        let reply = ref None in
        let result =
          with_service ~workers:0 ~state_dir (fun _ ->
              let fd = connect_ok listen in
              Cluster.Frame.write fd
                (Cluster.Protocol.encode_to_coordinator
                   (Cluster.Protocol.Join
                      { version = 99; host = "probe"; pid = 1 }));
              reply := Some (Cluster.Frame.read (Cluster.Frame.reader fd));
              Unix.close fd;
              `Drain)
        in
        Alcotest.(check bool) "clean shutdown" true (result = Ok ());
        match !reply with
        | Some (Ok (Some p)) -> (
            match Cluster.Protocol.decode_to_worker p with
            | Ok (Cluster.Protocol.Reject reason) ->
                let needle =
                  Printf.sprintf
                    "protocol version: worker speaks 99, server speaks %d"
                    Cluster.Protocol.version
                in
                if not (contains ~needle reason) then
                  Alcotest.failf "%S does not name %S" reason needle
            | _ -> Alcotest.fail "expected a reject")
        | _ -> Alcotest.fail "no reply");
    Alcotest.test_case
      "a pinned worker serves its recipe and leaves at the next campaign"
      `Slow (fun () ->
        let solo_a = solo_journal "a" and solo_b = solo_journal "b" in
        let digest kind = Digest.to_hex (Digest.string (recipe_of ~slow:false kind)) in
        let state_dir = fresh_state_dir () in
        let listen = fleet_address state_dir in
        let pinned_runs = Atomic.make 0 in
        let spawn ?config_digest ?on_result () =
          Domain.spawn (fun () ->
              Cluster.Worker.run ?config_digest ?on_result ~connect:listen
                ~make:worker_make ())
        in
        let pinned = ref None and other = ref None in
        let result =
          with_service ~workers:0 ~state_dir (fun addr ->
              (* Alone in the fleet, the worker pinned to a's recipe
                 serves all of a. *)
              pinned :=
                Some
                  (spawn ~config_digest:(digest "a")
                     ~on_result:(fun ~completed ->
                       Atomic.set pinned_runs completed)
                     ());
              let a = submit_ok ~addr (submission "a") in
              wait_until ~what:"a done" (fun () -> state_of ~addr a = "done");
              other := Some (spawn ());
              wait_until ~what:"second worker joined" (fun () ->
                  let _, json =
                    http_json ~addr ~meth:"GET" ~path:"/fleet" ()
                  in
                  jint "count" json = 2);
              (* Both workers are assigned b; the pinned one leaves and b
                 completes on the other. *)
              let b = submit_ok ~addr (submission "b") in
              wait_until ~what:"b done" (fun () -> state_of ~addr b = "done");
              Alcotest.(check string)
                "a journal bytes" solo_a
                (read_file (Filename.concat state_dir (a ^ ".journal")));
              Alcotest.(check string)
                "b journal bytes" solo_b
                (read_file (Filename.concat state_dir (b ^ ".journal")));
              `Drain)
        in
        let join d = Domain.join (Option.get d) in
        Alcotest.(check bool) "clean shutdown" true (result = Ok ());
        Alcotest.(check int)
          "the pinned worker ran all of a"
          (Propane.Campaign.size (campaign_of_kind "a"))
          (Atomic.get pinned_runs);
        (match join !pinned with
        | Ok n -> Alcotest.failf "pinned worker was dismissed after %d runs" n
        | Error msg ->
            List.iter
              (fun needle ->
                if not (contains ~needle msg) then
                  Alcotest.failf "%S does not name %S" msg needle)
              [ "worker pinned " ^ digest "a"; digest "b" ]);
        Alcotest.(check (result int string))
          "the other worker ran all of b"
          (Ok (Propane.Campaign.size (campaign_of_kind "b")))
          (join !other));
    Alcotest.test_case "silent connections are closed after the timeout"
      `Slow (fun () ->
        let solo_a = solo_journal "a" in
        let state_dir = fresh_state_dir () in
        let eof fd =
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
          let t0 = Unix.gettimeofday () in
          match Unix.read fd (Bytes.create 64) 0 64 with
          | 0 -> Unix.gettimeofday () -. t0 < 3.0
          | _ -> false
          | exception Unix.Unix_error _ -> false
        in
        let result =
          with_service ~workers:1 ~heartbeat_timeout_s:0.5 ~state_dir
            (fun addr ->
              (* One socket says nothing; the other sends half a
                 request line. *)
              let silent = connect_ok (fleet_address state_dir) in
              let half = connect_ok addr in
              ignore (Unix.write_substring half "GET /fle" 0 8);
              Alcotest.(check bool) "fleet socket reads EOF" true (eof silent);
              Alcotest.(check bool) "http socket reads EOF" true (eof half);
              Unix.close silent;
              Unix.close half;
              (* A real worker, parked and pinged through the same
                 budget, still serves a byte-identical campaign. *)
              let id = submit_ok ~addr (submission "a") in
              wait_until ~what:"campaign done" (fun () ->
                  state_of ~addr id = "done");
              Alcotest.(check string)
                "journal bytes" solo_a
                (read_file (Filename.concat state_dir (id ^ ".journal")));
              `Drain)
        in
        Alcotest.(check bool) "clean shutdown" true (result = Ok ()));
  ]

let () =
  Alcotest.run "service"
    [
      ("json", json_tests);
      ("http", http_tests);
      ("manifest", manifest_tests);
      ("service", service_tests);
    ]
