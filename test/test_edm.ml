(* Tests for the EDM/ERM library: assertions, detectors, recovery
   wrappers, coverage assessment and placement proposals. *)

let check_raises_invalid name f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")

(* ------------------------------------------------------------------ *)

let assertion_tests =
  let check_a a ~prev v = Edm.Assertion.check a ~prev v in
  [
    Alcotest.test_case "range accepts the bounds" `Quick (fun () ->
        let a = Edm.Assertion.Range { lo = 0; hi = 10 } in
        Alcotest.(check bool) "lo" true (check_a a ~prev:None 0);
        Alcotest.(check bool) "hi" true (check_a a ~prev:None 10);
        Alcotest.(check bool) "below" false (check_a a ~prev:None (-1));
        Alcotest.(check bool) "above" false (check_a a ~prev:None 11));
    Alcotest.test_case "max rate compares to the previous sample" `Quick
      (fun () ->
        let a = Edm.Assertion.Max_rate { per_sample = 5 } in
        Alcotest.(check bool) "first" true (check_a a ~prev:None 1000);
        Alcotest.(check bool) "small step" true (check_a a ~prev:(Some 10) 15);
        Alcotest.(check bool) "big step" false (check_a a ~prev:(Some 10) 16);
        Alcotest.(check bool)
          "negative step" false
          (check_a a ~prev:(Some 10) 4));
    Alcotest.test_case "boolean accepts exactly 0 and 1" `Quick (fun () ->
        let a = Edm.Assertion.Boolean in
        Alcotest.(check bool) "zero" true (check_a a ~prev:None 0);
        Alcotest.(check bool) "one" true (check_a a ~prev:None 1);
        Alcotest.(check bool) "two" false (check_a a ~prev:None 2));
    Alcotest.test_case "non-decreasing tracks the previous sample" `Quick
      (fun () ->
        let a = Edm.Assertion.Non_decreasing in
        Alcotest.(check bool) "first" true (check_a a ~prev:None 5);
        Alcotest.(check bool) "same" true (check_a a ~prev:(Some 5) 5);
        Alcotest.(check bool) "up" true (check_a a ~prev:(Some 5) 6);
        Alcotest.(check bool) "down" false (check_a a ~prev:(Some 5) 4));
    Alcotest.test_case "describe covers every constructor" `Quick (fun () ->
        List.iter
          (fun a ->
            Alcotest.(check bool)
              "non-empty" true
              (String.length (Edm.Assertion.describe a) > 0))
          [
            Edm.Assertion.Range { lo = 0; hi = 1 };
            Edm.Assertion.Max_rate { per_sample = 1 };
            Edm.Assertion.Boolean;
            Edm.Assertion.Non_decreasing;
          ]);
  ]

(* ------------------------------------------------------------------ *)

let detector_tests =
  let trace ?(signal = "s") values =
    let set = Propane.Trace_set.create ~signals:[ signal ] () in
    List.iter (fun v -> Propane.Trace_set.sample_array set [| v |]) values;
    set
  in
  let detector assertions =
    Edm.Detector.make ~name:"d" ~signal:"s" assertions
  in
  [
    Alcotest.test_case "clean trace never fires" `Quick (fun () ->
        let d = detector [ Edm.Assertion.Range { lo = 0; hi = 100 } ] in
        let v = Edm.Detector.evaluate d (trace [ 1; 2; 3 ]) in
        Alcotest.(check bool) "fired" false v.Edm.Detector.fired);
    Alcotest.test_case "first violation is located" `Quick (fun () ->
        let d = detector [ Edm.Assertion.Range { lo = 0; hi = 10 } ] in
        let v = Edm.Detector.evaluate d (trace [ 1; 2; 99; 3; 99 ]) in
        Alcotest.(check bool) "fired" true v.Edm.Detector.fired;
        Alcotest.(check (option int)) "at" (Some 2) v.Edm.Detector.first_ms);
    Alcotest.test_case "assertions are a conjunction" `Quick (fun () ->
        let d =
          detector
            [
              Edm.Assertion.Range { lo = 0; hi = 1000 };
              Edm.Assertion.Max_rate { per_sample = 2 };
            ]
        in
        let v = Edm.Detector.evaluate d (trace [ 1; 2; 500 ]) in
        Alcotest.(check (option int)) "rate trips" (Some 2) v.Edm.Detector.first_ms);
    Alcotest.test_case "rate check uses consecutive samples" `Quick (fun () ->
        let d = detector [ Edm.Assertion.Max_rate { per_sample = 10 } ] in
        let v = Edm.Detector.evaluate d (trace [ 0; 10; 20; 35 ]) in
        Alcotest.(check (option int)) "at" (Some 3) v.Edm.Detector.first_ms);
    check_raises_invalid "wrong signal rejected" (fun () ->
        Edm.Detector.evaluate
          (detector [ Edm.Assertion.Boolean ])
          (trace ~signal:"other" [ 0 ]));
    check_raises_invalid "empty assertion list rejected" (fun () ->
        Edm.Detector.make ~name:"d" ~signal:"s" []);
    Alcotest.test_case "empty trace never fires" `Quick (fun () ->
        let d = detector [ Edm.Assertion.Boolean ] in
        let v = Edm.Detector.evaluate d (trace []) in
        Alcotest.(check bool) "fired" false v.Edm.Detector.fired);
  ]

(* ------------------------------------------------------------------ *)

let recovery_tests =
  [
    Alcotest.test_case "clamp saturates" `Quick (fun () ->
        let g = Edm.Recovery.make_guard (Edm.Recovery.Clamp { lo = 0; hi = 10 }) () in
        Alcotest.(check int) "low" 0 (g (-5));
        Alcotest.(check int) "pass" 7 (g 7);
        Alcotest.(check int) "high" 10 (g 99));
    Alcotest.test_case "hold-last replaces implausible values" `Quick
      (fun () ->
        let g =
          Edm.Recovery.make_guard
            (Edm.Recovery.Hold_last_if (Edm.Assertion.Max_rate { per_sample = 5 }))
            ()
        in
        Alcotest.(check int) "first accepted" 100 (g 100);
        Alcotest.(check int) "step accepted" 103 (g 103);
        Alcotest.(check int) "spike held" 103 (g 500);
        Alcotest.(check int) "recovers" 105 (g 105));
    Alcotest.test_case "hold-last yields 0 before any accepted write" `Quick
      (fun () ->
        let g =
          Edm.Recovery.make_guard
            (Edm.Recovery.Hold_last_if (Edm.Assertion.Range { lo = 0; hi = 5 }))
            ()
        in
        Alcotest.(check int) "default" 0 (g 100));
    Alcotest.test_case "guards from one recovery are independent" `Quick
      (fun () ->
        let r =
          Edm.Recovery.Hold_last_if (Edm.Assertion.Max_rate { per_sample = 1 })
        in
        let g1 = Edm.Recovery.make_guard r () in
        let g2 = Edm.Recovery.make_guard r () in
        ignore (g1 100);
        Alcotest.(check int) "fresh state" 50 (g2 50));
    Alcotest.test_case "forward is the identity" `Quick (fun () ->
        let g = Edm.Recovery.make_guard Edm.Recovery.Forward () in
        Alcotest.(check int) "id" 1234 (g 1234));
  ]

(* ------------------------------------------------------------------ *)
(* Coverage on a miniature SUT: SCALE computes y = x >> 4 and a
   detector on y with a tight range triggers on high-bit corruption. *)

let scaler_sut () =
  let instantiate _tc =
    let store =
      Propane.Signal_store.create ~signals:[ ("x", 16); ("y", 16) ] ()
    in
    let t = ref 0 in
    {
      Propane.Sut.read = Propane.Signal_store.peek store;
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
    digests = [];
    instantiate;
  }

let scaler_campaign =
  Propane.Campaign.make ~name:"edm" ~targets:[ "x" ]
    ~testcases:[ Propane.Testcase.make ~id:"ramp" ~params:[] ]
    ~times:[ Simkernel.Sim_time.of_ms 10 ]
    ~errors:(Propane.Error_model.bit_flips ~width:16)

let coverage_tests =
  [
    Alcotest.test_case "y-rate detector catches high-bit flips" `Quick
      (fun () ->
        (* In the golden run y advances by exactly 1 per ms; any flip of
           x's bits 4..15 makes y jump. *)
        let detector =
          Edm.Detector.make ~name:"y-rate" ~signal:"y"
            [ Edm.Assertion.Max_rate { per_sample = 1 } ]
        in
        match
          Edm.Coverage.assess ~outputs:[ "y" ] ~detectors:[ detector ]
            (scaler_sut ()) scaler_campaign
        with
        | [ r ] ->
            Alcotest.(check bool)
              "no golden false alarm" false r.Edm.Coverage.golden_false_alarm;
            Alcotest.(check int) "runs" 16 r.Edm.Coverage.runs;
            (* 12 of 16 flips reach y (and therefore the output). *)
            Alcotest.(check int) "output failures" 12
              r.Edm.Coverage.output_failures;
            (* Two down-flips first move y by only one step and are
               caught a millisecond after the output diverged. *)
            Alcotest.(check int) "timely" 10
              r.Edm.Coverage.timely_output_detections;
            Alcotest.(check (float 1e-9))
              "usefulness" (10.0 /. 12.0) (Edm.Coverage.usefulness r);
            Alcotest.(check int) "false alarms" 0 r.Edm.Coverage.false_alarms
        | other -> Alcotest.failf "expected 1 report, got %d" (List.length other));
    Alcotest.test_case "a detector on an untouched signal reports nothing"
      `Quick (fun () ->
        let detector =
          Edm.Detector.make ~name:"x-bool" ~signal:"y"
            [ Edm.Assertion.Range { lo = 0; hi = 65_535 } ]
        in
        match
          Edm.Coverage.assess ~outputs:[ "y" ] ~detectors:[ detector ]
            (scaler_sut ()) scaler_campaign
        with
        | [ r ] ->
            Alcotest.(check int) "fired" 0 r.Edm.Coverage.fired;
            Alcotest.(check (float 1e-9))
              "coverage" 0.0
              (Edm.Coverage.detection_coverage r)
        | _ -> Alcotest.fail "expected 1 report");
    Alcotest.test_case "latency is measured from the injection" `Quick
      (fun () ->
        let detector =
          Edm.Detector.make ~name:"y-rate" ~signal:"y"
            [ Edm.Assertion.Max_rate { per_sample = 1 } ]
        in
        match
          Edm.Coverage.assess ~outputs:[ "y" ] ~detectors:[ detector ]
            (scaler_sut ()) scaler_campaign
        with
        | [ r ] -> (
            match r.Edm.Coverage.mean_latency_ms with
            | Some l -> Alcotest.(check bool) "small" true (l >= 0.0 && l < 5.0)
            | None -> Alcotest.fail "expected a latency")
        | _ -> Alcotest.fail "expected 1 report");
    Alcotest.test_case "crashed runs count with their divergences" `Quick
      (fun () ->
        (* Every run crashes 3 ms after its flip at ms 10: each signal
           not yet diverged diverges at the crash (ms 13), and the
           detectors judge the 13 ms recorded before it.  y-rate fires
           on the 12 flips of bits 4..15, x-rate on all 16; two
           down-flips each fire a millisecond after y diverged. *)
        let detectors =
          [
            Edm.Detector.make ~name:"y-rate" ~signal:"y"
              [ Edm.Assertion.Max_rate { per_sample = 1 } ];
            Edm.Detector.make ~name:"x-rate" ~signal:"x"
              [ Edm.Assertion.Max_rate { per_sample = 16 } ];
          ]
        in
        let sut = Propane.Fault.wrap ~crash_after_ms:3 (scaler_sut ()) in
        let check (r : Edm.Coverage.report) ~fired ~timely =
          let name = r.Edm.Coverage.detector.Edm.Detector.name in
          let check_int what = Alcotest.(check int) (name ^ " " ^ what) in
          check_int "runs" 16 r.Edm.Coverage.runs;
          check_int "effective" 16 r.Edm.Coverage.effective;
          check_int "output failures" 16 r.Edm.Coverage.output_failures;
          check_int "fired" fired r.Edm.Coverage.fired;
          check_int "detections" fired r.Edm.Coverage.detections;
          check_int "false alarms" 0 r.Edm.Coverage.false_alarms;
          check_int "timely" timely r.Edm.Coverage.timely_output_detections;
          Alcotest.(check (option (float 1e-9)))
            (name ^ " latency")
            (Some (2.0 /. float_of_int fired))
            r.Edm.Coverage.mean_latency_ms
        in
        match
          Edm.Coverage.assess ~outputs:[ "y" ] ~detectors sut scaler_campaign
        with
        | [ y_rate; x_rate ] ->
            check y_rate ~fired:12 ~timely:10;
            check x_rate ~fired:16 ~timely:14
        | other -> Alcotest.failf "expected 2 reports, got %d" (List.length other));
    Alcotest.test_case "severity and coverage classify Runner.run's outcomes"
      `Quick (fun () ->
        (* Noise draws from each run's RNG stream, so both assessments
           match a plain campaign at the same seed only if they run
           exactly its experiments. *)
        let campaign =
          Propane.Campaign.make ~name:"noise" ~targets:[ "x" ]
            ~testcases:[ Propane.Testcase.make ~id:"ramp" ~params:[] ]
            ~times:(List.init 20 (fun i -> Simkernel.Sim_time.of_ms (i + 1)))
            ~errors:[ Propane.Error_model.Noise 8 ]
        in
        let outcomes =
          Propane.Results.outcomes
            (Propane.Runner.run
               ~config:(Propane.Runner.Config.make ~seed:7L ())
               (scaler_sut ()) campaign)
        in
        let count p = List.length (List.filter p outcomes) in
        let effective (o : Propane.Results.outcome) = o.divergences <> [] in
        let at_output o = Propane.Results.divergence_of o "y" <> None in
        let deviations = count at_output in
        Alcotest.(check bool)
          "noise both reaches and misses y" true
          (0 < deviations && deviations < 20);
        (match
           Propane.Severity.assess ~seed:7L ~outputs:[ "y" ]
             ~mission_failed:(fun ~golden:_ ~run:_ -> false)
             (scaler_sut ()) campaign
         with
        | [ r ] ->
            Alcotest.(check int)
              "no effect"
              (count (fun o -> not (effective o)))
              r.Propane.Severity.no_effect;
            Alcotest.(check int)
              "internal only"
              (count (fun o -> effective o && not (at_output o)))
              r.Propane.Severity.internal_only;
            Alcotest.(check int)
              "output deviation" deviations r.Propane.Severity.output_deviation;
            Alcotest.(check int)
              "mission failure" 0 r.Propane.Severity.mission_failure
        | other ->
            Alcotest.failf "expected 1 severity report, got %d"
              (List.length other));
        let detector =
          Edm.Detector.make ~name:"y-rate" ~signal:"y"
            [ Edm.Assertion.Max_rate { per_sample = 1 } ]
        in
        match
          Edm.Coverage.assess ~seed:7L ~outputs:[ "y" ] ~detectors:[ detector ]
            (scaler_sut ()) campaign
        with
        | [ r ] ->
            Alcotest.(check int) "runs" 20 r.Edm.Coverage.runs;
            Alcotest.(check int)
              "effective" (count effective) r.Edm.Coverage.effective;
            Alcotest.(check int)
              "output failures" deviations r.Edm.Coverage.output_failures
        | other ->
            Alcotest.failf "expected 1 coverage report, got %d"
              (List.length other));
  ]

(* ------------------------------------------------------------------ *)

let selector_tests =
  let placement () =
    let analysis =
      Propagation.Analysis.run_exn Arrestment.Model.system
        (Arrestment.Model.paper_matrices ())
    in
    analysis.Propagation.Analysis.placement
  in
  [
    Alcotest.test_case "budgets bound the proposals" `Quick (fun () ->
        let plan = Edm.Selector.propose ~edm_budget:2 ~erm_budget:2 (placement ()) in
        Alcotest.(check int) "edm" 2 (List.length plan.Edm.Selector.edm_locations));
    Alcotest.test_case "top EDM location is the most exposed signal" `Quick
      (fun () ->
        let plan = Edm.Selector.propose (placement ()) in
        match plan.Edm.Selector.edm_locations with
        | top :: _ ->
            Alcotest.(check string) "signal" "SetValue" top.Edm.Selector.subject
        | [] -> Alcotest.fail "no proposals");
    Alcotest.test_case "cut signals lead the ERM list (OB5)" `Quick (fun () ->
        let plan = Edm.Selector.propose (placement ()) in
        match plan.Edm.Selector.erm_locations with
        | top :: _ ->
            Alcotest.(check bool)
              "a cut signal" true
              (List.mem top.Edm.Selector.subject [ "SetValue"; "OutValue" ])
        | [] -> Alcotest.fail "no proposals");
    Alcotest.test_case "barrier modules are always proposed (OB6)" `Quick
      (fun () ->
        let plan = Edm.Selector.propose ~erm_budget:1 (placement ()) in
        let subjects =
          List.map (fun p -> p.Edm.Selector.subject) plan.Edm.Selector.erm_locations
        in
        Alcotest.(check bool) "DIST_S" true (List.mem "DIST_S" subjects);
        Alcotest.(check bool) "PRES_S" true (List.mem "PRES_S" subjects));
    Alcotest.test_case "exclusions become notes (OB4)" `Quick (fun () ->
        let plan = Edm.Selector.propose (placement ()) in
        Alcotest.(check bool)
          "mentions TOC2" true
          (List.exists
             (fun note ->
               let nh = String.length note in
               let rec go i =
                 if i + 4 > nh then false
                 else if String.equal (String.sub note i 4) "TOC2" then true
                 else go (i + 1)
               in
               go 0)
             plan.Edm.Selector.notes));
  ]

let () =
  Alcotest.run "edm"
    [
      ("assertion", assertion_tests);
      ("detector", detector_tests);
      ("recovery", recovery_tests);
      ("coverage", coverage_tests);
      ("selector", selector_tests);
    ]
