(* Tests for the arrestment target system: physics, environment glue,
   the six control modules, the static model, full golden runs and
   golden-state restore. *)

open Arrestment

let close = Alcotest.(check (float 1e-9))

let check_raises_invalid name f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")

let store () =
  Propane.Signal_store.create ~signals:Signals.store_layout ()

let name = Propagation.Signal.name

(* ------------------------------------------------------------------ *)

let physics_tests =
  [
    Alcotest.test_case "full pressure stops every envelope corner" `Quick
      (fun () ->
        List.iter
          (fun (mass_kg, velocity_mps) ->
            let p = Physics.create ~mass_kg ~velocity_mps in
            let steps = ref 0 in
            while (not (Physics.at_rest p)) && !steps < 60_000 do
              Physics.step_ms p ~commanded_pressure:Params.pressure_full_scale;
              incr steps
            done;
            Alcotest.(check bool) "at rest" true (Physics.at_rest p);
            Alcotest.(check bool)
              "within runway" true
              (Physics.position_m p < Params.runway_length_m))
          [ (8_000.0, 40.0); (8_000.0, 80.0); (20_000.0, 40.0); (20_000.0, 80.0) ]);
    Alcotest.test_case "velocity never increases" `Quick (fun () ->
        let p = Physics.create ~mass_kg:14_000.0 ~velocity_mps:60.0 in
        let prev = ref (Physics.velocity_mps p) in
        for _ = 1 to 5_000 do
          Physics.step_ms p ~commanded_pressure:10_000;
          Alcotest.(check bool) "monotone" true (Physics.velocity_mps p <= !prev);
          prev := Physics.velocity_mps p
        done);
    Alcotest.test_case "position is monotone" `Quick (fun () ->
        let p = Physics.create ~mass_kg:14_000.0 ~velocity_mps:60.0 in
        let prev = ref 0.0 in
        for _ = 1 to 5_000 do
          Physics.step_ms p ~commanded_pressure:0;
          Alcotest.(check bool) "monotone" true (Physics.position_m p >= !prev);
          prev := Physics.position_m p
        done);
    Alcotest.test_case "valve follows the command with lag" `Quick (fun () ->
        let p = Physics.create ~mass_kg:14_000.0 ~velocity_mps:60.0 in
        Physics.step_ms p ~commanded_pressure:60_000;
        let after_1ms = Physics.applied_pressure p in
        Alcotest.(check bool) "lagging" true (after_1ms < 60_000 && after_1ms > 0);
        for _ = 1 to 1_000 do
          Physics.step_ms p ~commanded_pressure:60_000
        done;
        Alcotest.(check bool)
          "converged" true
          (Physics.applied_pressure p > 59_000));
    Alcotest.test_case "pulses follow position" `Quick (fun () ->
        let p = Physics.create ~mass_kg:14_000.0 ~velocity_mps:60.0 in
        for _ = 1 to 1_000 do
          Physics.step_ms p ~commanded_pressure:0
        done;
        Alcotest.(check int)
          "pulses = floor(x * ppm)"
          (int_of_float (Float.floor (Physics.position_m p *. Params.pulses_per_metre)))
          (Physics.total_pulses p));
    Alcotest.test_case "no braking overruns the runway" `Quick (fun () ->
        let p = Physics.create ~mass_kg:20_000.0 ~velocity_mps:80.0 in
        let steps = ref 0 in
        while (not (Physics.overrun p)) && !steps < 60_000 do
          Physics.step_ms p ~commanded_pressure:0;
          incr steps
        done;
        Alcotest.(check bool) "overrun" true (Physics.overrun p));
    check_raises_invalid "non-positive mass rejected" (fun () ->
        Physics.create ~mass_kg:0.0 ~velocity_mps:60.0);
    check_raises_invalid "non-positive velocity rejected" (fun () ->
        Physics.create ~mass_kg:10.0 ~velocity_mps:0.0);
    Alcotest.test_case "commanded pressure is clamped" `Quick (fun () ->
        let p = Physics.create ~mass_kg:14_000.0 ~velocity_mps:60.0 in
        Physics.step_ms p ~commanded_pressure:999_999;
        Alcotest.(check bool)
          "within scale" true
          (Physics.applied_pressure p <= Params.pressure_full_scale));
  ]

(* ------------------------------------------------------------------ *)

let environment_tests =
  [
    Alcotest.test_case "TCNT advances every millisecond" `Quick (fun () ->
        let st = store () in
        let env = Environment.create st ~mass_kg:14_000.0 ~velocity_mps:60.0 in
        Environment.pre_step env;
        Environment.pre_step env;
        Alcotest.(check int)
          "ticks" (2 * Params.tcnt_ticks_per_ms)
          (Propane.Signal_store.peek st (name Signals.tcnt)));
    Alcotest.test_case "PACNT accumulates drum pulses" `Quick (fun () ->
        let st = store () in
        let env = Environment.create st ~mass_kg:14_000.0 ~velocity_mps:60.0 in
        for _ = 1 to 100 do
          Environment.pre_step env;
          Propane.Signal_store.poke st (name Signals.toc2) 0;
          Environment.post_step env
        done;
        (* 100 ms at ~60 m/s is ~6 m, i.e. ~60 pulses. *)
        let pacnt = Propane.Signal_store.peek st (name Signals.pacnt) in
        Alcotest.(check bool)
          "plausible" true
          (pacnt > 40 && pacnt < 80));
    Alcotest.test_case "TIC1 latches after a pulse" `Quick (fun () ->
        let st = store () in
        let env = Environment.create st ~mass_kg:14_000.0 ~velocity_mps:60.0 in
        for _ = 1 to 50 do
          Environment.pre_step env;
          Environment.post_step env
        done;
        let tic1 = Propane.Signal_store.peek st (name Signals.tic1) in
        let tcnt = Propane.Signal_store.peek st (name Signals.tcnt) in
        Alcotest.(check bool) "latched" true (tic1 > 0);
        (* At 60 m/s pulses are < 2 ms apart: the gap stays small. *)
        Alcotest.(check bool)
          "recent" true
          ((tcnt - tic1) land 0xFFFF < 10 * Params.tcnt_ticks_per_ms));
    Alcotest.test_case "conversion overwrites the ADC register" `Quick
      (fun () ->
        let st = store () in
        let env = Environment.create st ~mass_kg:14_000.0 ~velocity_mps:60.0 in
        Propane.Signal_store.poke st (name Signals.adc) 12_345;
        Environment.convert_adc env;
        Alcotest.(check int)
          "fresh conversion" 0
          (Propane.Signal_store.peek st (name Signals.adc)));
    Alcotest.test_case "finished after sustained rest" `Quick (fun () ->
        let st = store () in
        let env = Environment.create st ~mass_kg:8_000.0 ~velocity_mps:40.0 in
        let steps = ref 0 in
        while (not (Environment.finished env)) && !steps < 60_000 do
          Environment.pre_step env;
          Propane.Signal_store.poke st (name Signals.toc2) 3_000;
          Environment.post_step env;
          incr steps
        done;
        Alcotest.(check bool) "finished" true (Environment.finished env);
        Alcotest.(check int) "elapsed" !steps (Environment.elapsed_ms env));
  ]

(* ------------------------------------------------------------------ *)

let module_tests =
  [
    Alcotest.test_case "CLOCK: slot number cycles mod 7" `Quick (fun () ->
        let st = store () in
        let clock = Clock_mod.create st in
        let seen = ref [] in
        for _ = 1 to 14 do
          Clock_mod.step clock;
          seen :=
            Propane.Signal_store.peek st (name Signals.ms_slot_nbr) :: !seen
        done;
        Alcotest.(check (list int))
          "cycle"
          [ 0; 6; 5; 4; 3; 2; 1; 0; 6; 5; 4; 3; 2; 1 ]
          !seen);
    Alcotest.test_case "CLOCK: mscnt counts activations" `Quick (fun () ->
        let st = store () in
        let clock = Clock_mod.create st in
        for _ = 1 to 5 do
          Clock_mod.step clock
        done;
        Alcotest.(check int)
          "mscnt" 5
          (Propane.Signal_store.peek st (name Signals.mscnt)));
    Alcotest.test_case "CLOCK: mscnt independent of slot corruption" `Quick
      (fun () ->
        let st = store () in
        let clock = Clock_mod.create st in
        Clock_mod.step clock;
        Propane.Signal_store.poke st (name Signals.ms_slot_nbr) 5_000;
        Clock_mod.step clock;
        Alcotest.(check int)
          "mscnt" 2
          (Propane.Signal_store.peek st (name Signals.mscnt)));
    Alcotest.test_case "DIST_S: accepts plausible pulses" `Quick (fun () ->
        let st = store () in
        let dist = Dist_s.create st in
        (* Simulate 2 pulses with a fresh capture. *)
        Propane.Signal_store.poke st (name Signals.tcnt) 1_000;
        Propane.Signal_store.poke st (name Signals.tic1) 950;
        Propane.Signal_store.poke st (name Signals.pacnt) 2;
        Dist_s.step dist;
        Alcotest.(check int)
          "pulscnt" 2
          (Propane.Signal_store.peek st (name Signals.pulscnt)));
    Alcotest.test_case "DIST_S: rejects pulses with a stale capture gap"
      `Quick (fun () ->
        let st = store () in
        let dist = Dist_s.create st in
        Propane.Signal_store.poke st (name Signals.tcnt) 10_000;
        Propane.Signal_store.poke st (name Signals.tic1) 0;
        Propane.Signal_store.poke st (name Signals.pacnt) 2;
        Dist_s.step dist;
        Alcotest.(check int)
          "pulscnt" 0
          (Propane.Signal_store.peek st (name Signals.pulscnt)));
    Alcotest.test_case "DIST_S: clamps implausible bursts" `Quick (fun () ->
        let st = store () in
        let dist = Dist_s.create st in
        Propane.Signal_store.poke st (name Signals.tcnt) 1_000;
        Propane.Signal_store.poke st (name Signals.tic1) 950;
        Propane.Signal_store.poke st (name Signals.pacnt) 500;
        Dist_s.step dist;
        Alcotest.(check int)
          "clamped" 3
          (Propane.Signal_store.peek st (name Signals.pulscnt)));
    Alcotest.test_case "DIST_S: slow_speed from a long pulse gap" `Quick
      (fun () ->
        let st = store () in
        let dist = Dist_s.create st in
        (* One pulse, then a gap beyond the slow threshold. *)
        Propane.Signal_store.poke st (name Signals.tcnt) 100;
        Propane.Signal_store.poke st (name Signals.tic1) 90;
        Propane.Signal_store.poke st (name Signals.pacnt) 1;
        Dist_s.step dist;
        Alcotest.(check int)
          "fast" 0
          (Propane.Signal_store.peek st (name Signals.slow_speed));
        Propane.Signal_store.poke st (name Signals.tcnt)
          (100 + Params.slow_speed_gap_ticks + 10);
        Dist_s.step dist;
        Alcotest.(check int)
          "slow" 1
          (Propane.Signal_store.peek st (name Signals.slow_speed)));
    Alcotest.test_case "DIST_S: stopped needs a long pulse-free streak" `Quick
      (fun () ->
        let st = store () in
        let dist = Dist_s.create st in
        Propane.Signal_store.poke st (name Signals.tcnt) 100;
        Propane.Signal_store.poke st (name Signals.tic1) 90;
        Propane.Signal_store.poke st (name Signals.pacnt) 1;
        Dist_s.step dist;
        for _ = 1 to Params.stopped_debounce_ms - 1 do
          Dist_s.step dist
        done;
        Alcotest.(check int)
          "not yet" 0
          (Propane.Signal_store.peek st (name Signals.stopped));
        Dist_s.step dist;
        Alcotest.(check int)
          "stopped" 1
          (Propane.Signal_store.peek st (name Signals.stopped)));
    Alcotest.test_case "DIST_S: stopped stays clear before any pulse" `Quick
      (fun () ->
        let st = store () in
        let dist = Dist_s.create st in
        for _ = 1 to Params.stopped_debounce_ms + 50 do
          Dist_s.step dist
        done;
        Alcotest.(check int)
          "clear" 0
          (Propane.Signal_store.peek st (name Signals.stopped)));
    Alcotest.test_case "PRES_S: conversion result reaches InValue" `Quick
      (fun () ->
        let st = store () in
        let pres =
          Pres_s.create st ~start_conversion:(fun () ->
              Propane.Signal_store.poke st (name Signals.adc) 4_321)
        in
        Pres_s.step pres;
        Alcotest.(check int)
          "copied" 4_321
          (Propane.Signal_store.peek st (name Signals.in_value)));
    Alcotest.test_case "PRES_S: one-sample spikes are rejected" `Quick
      (fun () ->
        let st = store () in
        let value = ref 1_000 in
        let pres =
          Pres_s.create st ~start_conversion:(fun () ->
              Propane.Signal_store.poke st (name Signals.adc) !value)
        in
        Pres_s.step pres;
        value := 1_000 + Params.pres_spike_limit + 500;
        Pres_s.step pres;
        Alcotest.(check int)
          "held" 1_000
          (Propane.Signal_store.peek st (name Signals.in_value));
        (* The second out-of-band sample is accepted as a step change. *)
        Pres_s.step pres;
        Alcotest.(check int)
          "accepted" !value
          (Propane.Signal_store.peek st (name Signals.in_value)));
    Alcotest.test_case "CALC: advances at a checkpoint and sets pressure"
      `Quick (fun () ->
        let st = store () in
        let calc = Calc.create st in
        Propane.Signal_store.poke st (name Signals.mscnt) 100;
        Propane.Signal_store.poke st (name Signals.pulscnt)
          Params.checkpoint_pulses.(0);
        Calc.step calc;
        Alcotest.(check int)
          "i advanced" 1
          (Propane.Signal_store.peek st (name Signals.i));
        Alcotest.(check bool)
          "pressure set" true
          (Propane.Signal_store.peek st (name Signals.set_value) > 0));
    Alcotest.test_case "CALC: before the checkpoint, the initial set point"
      `Quick (fun () ->
        let st = store () in
        let calc = Calc.create st in
        Propane.Signal_store.poke st (name Signals.mscnt) 1;
        Propane.Signal_store.poke st (name Signals.pulscnt) 10;
        Calc.step calc;
        Alcotest.(check int)
          "i" 0
          (Propane.Signal_store.peek st (name Signals.i));
        Alcotest.(check int)
          "initial" Params.initial_set_value
          (Propane.Signal_store.peek st (name Signals.set_value)));
    Alcotest.test_case "CALC: slow speed drops the set point and ends \
                        checkpointing" `Quick (fun () ->
        let st = store () in
        let calc = Calc.create st in
        Propane.Signal_store.poke st (name Signals.slow_speed) 1;
        Calc.step calc;
        Alcotest.(check int)
          "slow pressure" Params.slow_speed_set_value
          (Propane.Signal_store.peek st (name Signals.set_value));
        Alcotest.(check int)
          "index fast-forwarded"
          (Array.length Params.checkpoint_pulses)
          (Propane.Signal_store.peek st (name Signals.i)));
    Alcotest.test_case "CALC: stopped latches the finished state" `Quick
      (fun () ->
        let st = store () in
        let calc = Calc.create st in
        Propane.Signal_store.poke st (name Signals.stopped) 1;
        Calc.step calc;
        Propane.Signal_store.poke st (name Signals.stopped) 0;
        Calc.step calc;
        Alcotest.(check int)
          "pressure stays zero" 0
          (Propane.Signal_store.peek st (name Signals.set_value)));
    Alcotest.test_case "CALC: corrupted index is written back raw" `Quick
      (fun () ->
        let st = store () in
        let calc = Calc.create st in
        Propane.Signal_store.poke st (name Signals.i) 5_000;
        Propane.Signal_store.poke st (name Signals.pulscnt) 1;
        Calc.step calc;
        Alcotest.(check int)
          "raw" 5_000
          (Propane.Signal_store.peek st (name Signals.i)));
    Alcotest.test_case "V_REG: converges on the set point" `Quick (fun () ->
        let st = store () in
        let vreg = V_reg.create st in
        Propane.Signal_store.poke st (name Signals.set_value) 10_000;
        for _ = 1 to 50 do
          (* Pretend the plant follows perfectly. *)
          Propane.Signal_store.poke st (name Signals.in_value)
            (Propane.Signal_store.peek st (name Signals.out_value));
          V_reg.step vreg
        done;
        let out = Propane.Signal_store.peek st (name Signals.out_value) in
        Alcotest.(check bool)
          "near set point" true
          (abs (out - 10_000) < 1_000));
    Alcotest.test_case "V_REG: output clamped to the pressure range" `Quick
      (fun () ->
        let st = store () in
        let vreg = V_reg.create st in
        Propane.Signal_store.poke st (name Signals.set_value) 60_000;
        Propane.Signal_store.poke st (name Signals.in_value) 0;
        for _ = 1 to 100 do
          V_reg.step vreg
        done;
        Alcotest.(check bool)
          "clamped" true
          (Propane.Signal_store.peek st (name Signals.out_value)
          <= Params.pressure_full_scale));
    Alcotest.test_case "PRES_A: scales the command into the PWM register"
      `Quick (fun () ->
        let st = store () in
        Propane.Signal_store.poke st (name Signals.out_value) 48_000;
        Pres_a.step (Pres_a.create st);
        Alcotest.(check int)
          "TOC2" (48_000 lsr Params.toc2_shift)
          (Propane.Signal_store.peek st (name Signals.toc2)));
    Alcotest.test_case "PRES_A: PWM resolution hides low bits" `Quick
      (fun () ->
        let st = store () in
        let pres_a = Pres_a.create st in
        Propane.Signal_store.poke st (name Signals.out_value) 48_000;
        Pres_a.step pres_a;
        let before = Propane.Signal_store.peek st (name Signals.toc2) in
        Propane.Signal_store.poke st (name Signals.out_value) 48_007;
        Pres_a.step pres_a;
        Alcotest.(check int)
          "unchanged" before
          (Propane.Signal_store.peek st (name Signals.toc2)));
  ]

(* ------------------------------------------------------------------ *)

let model_tests =
  [
    Alcotest.test_case "25 input/output pairs" `Quick (fun () ->
        Alcotest.(check int)
          "pairs" 25
          (Propagation.System_model.pair_count Model.system));
    Alcotest.test_case "13 injection targets" `Quick (fun () ->
        Alcotest.(check int) "targets" 13 (List.length Model.injection_targets);
        Alcotest.(check bool)
          "TOC2 is not a target" false
          (List.mem "TOC2" Model.injection_targets));
    Alcotest.test_case "six modules in paper order" `Quick (fun () ->
        Alcotest.(check (list string))
          "names"
          [ "CLOCK"; "DIST_S"; "PRES_S"; "CALC"; "V_REG"; "PRES_A" ]
          Model.module_names);
    Alcotest.test_case "paper numbering: PACNT is input 1 of DIST_S" `Quick
      (fun () ->
        let dist = Propagation.System_model.find_module_exn Model.system "DIST_S" in
        Alcotest.(check (option int))
          "port" (Some 1)
          (Propagation.Sw_module.input_index dist Signals.pacnt));
    Alcotest.test_case "paper numbering: SetValue is output 2 of CALC" `Quick
      (fun () ->
        let calc = Propagation.System_model.find_module_exn Model.system "CALC" in
        Alcotest.(check (option int))
          "port" (Some 2)
          (Propagation.Sw_module.output_index calc Signals.set_value));
    Alcotest.test_case "CALC and CLOCK have the paper's feedback loops" `Quick
      (fun () ->
        let feedback name' =
          Propagation.Sw_module.feedback_signals
            (Propagation.System_model.find_module_exn Model.system name')
        in
        Alcotest.(check (list string))
          "CALC" [ "i" ]
          (List.map Propagation.Signal.name (feedback "CALC"));
        Alcotest.(check (list string))
          "CLOCK" [ "ms_slot_nbr" ]
          (List.map Propagation.Signal.name (feedback "CLOCK")));
    Alcotest.test_case "paper matrices reproduce Table 2 aggregates" `Quick
      (fun () ->
        let matrices = Model.paper_matrices () in
        let m name' = Propagation.String_map.find name' matrices in
        close "CLOCK P" 0.500 (Propagation.Perm_matrix.relative (m "CLOCK"));
        close "CLOCK Pnw" 1.000 (Propagation.Perm_matrix.non_weighted (m "CLOCK"));
        close "DIST_S Pnw" 0.715
          (Propagation.Perm_matrix.non_weighted (m "DIST_S"));
        close "PRES_S Pnw" 0.000
          (Propagation.Perm_matrix.non_weighted (m "PRES_S"));
        Alcotest.(check (float 5e-4))
          "CALC P" 0.523
          (Propagation.Perm_matrix.relative (m "CALC"));
        close "V_REG P" 0.902 (Propagation.Perm_matrix.relative (m "V_REG"));
        close "PRES_A P" 0.860 (Propagation.Perm_matrix.relative (m "PRES_A")));
    Alcotest.test_case "paper matrices reproduce Table 2 exposures" `Quick
      (fun () ->
        let graph =
          Propagation.Perm_graph.build_exn Model.system (Model.paper_matrices ())
        in
        Alcotest.(check (float 5e-4))
          "CALC Xnw" 3.130
          (Propagation.Exposure.module_exposure_nw graph "CALC");
        Alcotest.(check (float 5e-4))
          "CALC X" 0.313
          (Propagation.Exposure.module_exposure graph "CALC");
        Alcotest.(check (float 2e-3))
          "V_REG Xnw" 2.815
          (Propagation.Exposure.module_exposure_nw graph "V_REG");
        Alcotest.(check (float 5e-4))
          "PRES_A Xnw" 1.804
          (Propagation.Exposure.module_exposure_nw graph "PRES_A");
        close "CLOCK X" 0.500
          (Propagation.Exposure.module_exposure graph "CLOCK"));
    Alcotest.test_case "paper matrices reproduce Table 3 exposures" `Quick
      (fun () ->
        let graph =
          Propagation.Perm_graph.build_exn Model.system (Model.paper_matrices ())
        in
        let x sg = Propagation.Exposure.signal_exposure graph sg in
        close "SetValue" 2.814 (x Signals.set_value);
        close "OutValue" 1.804 (x Signals.out_value);
        close "TOC2" 0.860 (x Signals.toc2);
        close "slow_speed" 0.223 (x Signals.slow_speed);
        close "stopped" 0.000 (x Signals.stopped);
        close "mscnt" 0.000 (x Signals.mscnt);
        close "InValue" 0.000 (x Signals.in_value));
    Alcotest.test_case "backtrack tree of TOC2 has the paper's 22 paths"
      `Quick (fun () ->
        let graph =
          Propagation.Perm_graph.build_exn Model.system (Model.paper_matrices ())
        in
        let tree = Propagation.Backtrack_tree.build graph Signals.toc2 in
        Alcotest.(check int)
          "total" 22
          (Propagation.Backtrack_tree.leaf_count tree);
        Alcotest.(check int)
          "non-zero (Table 4)" 13
          (List.length
             (Propagation.Path.non_zero
                (Propagation.Path.of_backtrack_tree tree))));
    Alcotest.test_case "trace tree of ADC is the Fig. 11 chain" `Quick
      (fun () ->
        let graph =
          Propagation.Perm_graph.build_exn Model.system (Model.paper_matrices ())
        in
        let tree = Propagation.Trace_tree.build graph Signals.adc in
        Alcotest.(check int) "one path" 1 (Propagation.Trace_tree.leaf_count tree);
        Alcotest.(check int) "depth" 4 (Propagation.Trace_tree.depth tree));
    Alcotest.test_case "trace tree of PACNT never nests i under i (Fig. 12)"
      `Quick (fun () ->
        let graph =
          Propagation.Perm_graph.build_exn Model.system (Model.paper_matrices ())
        in
        let tree = Propagation.Trace_tree.build graph Signals.pacnt in
        Propagation.Trace_tree.fold
          (fun () (n : Propagation.Trace_tree.node) ->
            if Propagation.Signal.equal n.signal Signals.i then
              List.iter
                (fun (c : Propagation.Trace_tree.child) ->
                  Alcotest.(check bool)
                    "no i under i" false
                    (Propagation.Signal.equal c.node.signal Signals.i))
                n.children)
          () tree);
  ]

(* ------------------------------------------------------------------ *)

let golden_run_tests =
  let sut = System.sut () in
  [
    Alcotest.test_case "arrestments complete across the envelope" `Slow
      (fun () ->
        List.iter
          (fun (mass_kg, velocity_mps) ->
            let tc = System.testcase ~mass_kg ~velocity_mps in
            let traces = Propane.Runner.golden_run sut tc in
            let dur = Propane.Trace_set.duration_ms traces in
            let final s = Propane.Trace_set.get traces s (dur - 1) in
            Alcotest.(check bool)
              "long enough for the injection window" true (dur > 5_100);
            Alcotest.(check int) "stopped" 1 (final "stopped");
            Alcotest.(check int) "set value zeroed" 0 (final "SetValue");
            Alcotest.(check bool)
              "within runway" true
              (float_of_int (final "pulscnt") /. Params.pulses_per_metre
              < Params.runway_length_m))
          [
            (8_000.0, 40.0);
            (8_000.0, 80.0);
            (14_000.0, 60.0);
            (20_000.0, 40.0);
            (20_000.0, 80.0);
          ]);
    Alcotest.test_case "golden runs are deterministic" `Slow (fun () ->
        let tc = System.testcase ~mass_kg:12_000.0 ~velocity_mps:55.0 in
        let a = Propane.Runner.golden_run sut tc in
        let b = Propane.Runner.golden_run sut tc in
        Alcotest.(check int)
          "no divergences" 0
          (List.length (Propane.Golden.compare_runs ~golden:a ~run:b ())));
    Alcotest.test_case "pulscnt is plausible against physics" `Slow (fun () ->
        let tc = System.testcase ~mass_kg:14_000.0 ~velocity_mps:60.0 in
        let traces = Propane.Runner.golden_run sut tc in
        let dur = Propane.Trace_set.duration_ms traces in
        let final = Propane.Trace_set.get traces "pulscnt" (dur - 1) in
        Alcotest.(check bool)
          "within runway pulses" true
          (final > 500
          && float_of_int final
             < Params.runway_length_m *. Params.pulses_per_metre));
    Alcotest.test_case "checkpoint index reaches the final phase" `Slow
      (fun () ->
        let tc = System.testcase ~mass_kg:14_000.0 ~velocity_mps:60.0 in
        let traces = Propane.Runner.golden_run sut tc in
        let dur = Propane.Trace_set.duration_ms traces in
        Alcotest.(check int)
          "i" 6
          (Propane.Trace_set.get traces "i" (dur - 1)));
    Alcotest.test_case "slow_speed precedes stopped" `Slow (fun () ->
        let tc = System.testcase ~mass_kg:14_000.0 ~velocity_mps:60.0 in
        let traces = Propane.Runner.golden_run sut tc in
        let first_one s =
          let sample = Propane.Trace_set.get traces s in
          let n = Propane.Trace_set.duration_ms traces in
          let rec go j =
            if j >= n then None else if sample j = 1 then Some j else go (j + 1)
          in
          go 0
        in
        match (first_one "slow_speed", first_one "stopped") with
        | Some slow, Some stopped ->
            Alcotest.(check bool) "order" true (slow < stopped)
        | _ -> Alcotest.fail "both flags must fire in a golden run");
  ]

(* ------------------------------------------------------------------ *)
(* Golden-state restore: a run restored from a state the golden run
   saved must behave exactly like one simulated from millisecond 0. *)

type Propane.Sut.state += Foreign_state

let hook (instance : Propane.Sut.instance) =
  match instance.Propane.Sut.state_hook with
  | Some h -> h
  | None -> Alcotest.fail "the arrestment SUT carries no state hook"

(* A fresh instance restored to [state]. *)
let restored sut tc state =
  let instance = sut.Propane.Sut.instantiate tc in
  (hook instance).Propane.Sut.restore state;
  instance

(* Steps [instance] from millisecond [from] to the golden's end, failing
   on the first sample that differs from the golden run. *)
let check_replays_golden ~what sut golden instance ~from =
  let names = Array.of_list (Propane.Sut.signal_names sut) in
  let duration = Propane.Golden.frozen_duration_ms golden in
  for ms = from to duration - 1 do
    if instance.Propane.Sut.finished () then
      Alcotest.failf "%s: finished at %d ms, the golden at %d" what ms
        duration;
    instance.Propane.Sut.step ();
    Array.iteri
      (fun signal name ->
        let expected = Propane.Golden.frozen_value golden ~signal ~ms in
        let got = instance.Propane.Sut.read name in
        if got <> expected then
          Alcotest.failf "%s: %s = %d at %d ms, golden %d" what name got ms
            expected)
      names
  done;
  Alcotest.(check bool)
    (what ^ ": finished") true
    (instance.Propane.Sut.finished ())

let restore_tests =
  let sut = System.sut () in
  let tc = System.testcase ~mass_kg:12_000.0 ~velocity_mps:70.0 in
  [
    Alcotest.test_case "every saved state replays the golden from its instant"
      `Quick (fun () ->
        (* The last three fall in the end phase: at rest, stopped
           reported, CALC latched finished. *)
        let duration =
          Propane.Trace_set.duration_ms (Propane.Runner.golden_run sut tc)
        in
        let instants =
          List.sort Int.compare
            [
              1; 7; 500; 2_345; 5_000; duration - 700; duration - 300;
              duration - 1;
            ]
        in
        let golden =
          Propane.Runner.frozen_golden ~save_at:(0 :: 30_000 :: instants) sut
            tc
        in
        let saved =
          Array.to_list
            (Array.combine golden.Propane.Golden.saved_at golden.saved)
        in
        Alcotest.(check (list int))
          "instants inside the run" instants (List.map fst saved);
        List.iter
          (fun (k, state) ->
            check_replays_golden
              ~what:(Printf.sprintf "restored at %d ms" k)
              sut golden (restored sut tc state) ~from:k)
          saved);
    Alcotest.test_case "restoring never aliases the saved state" `Quick
      (fun () ->
        let golden = Propane.Runner.frozen_golden ~save_at:[ 2_000 ] sut tc in
        let k = golden.Propane.Golden.saved_at.(0)
        and state = golden.Propane.Golden.saved.(0) in
        let a = restored sut tc state and b = restored sut tc state in
        (* PACNT is a hardware counter: the flip lands in DIST_S's window
           ring as a huge delta.  The checkpoint index [i] feeds back on
           itself, so its flip persists in CALC. *)
        a.Propane.Sut.inject "PACNT" (fun v -> v lxor 0x400);
        b.Propane.Sut.inject "i" (fun v -> v lxor 0x4);
        for _ = 1 to 300 do
          a.Propane.Sut.step ();
          b.Propane.Sut.step ()
        done;
        let diverged (instance : Propane.Sut.instance) name =
          let signal =
            Option.get
              (List.find_index (String.equal name)
                 (Propane.Sut.signal_names sut))
          in
          instance.Propane.Sut.read name
          <> Propane.Golden.frozen_value golden ~signal ~ms:(k + 299)
        in
        Alcotest.(check bool) "a diverged" true (diverged a "pulscnt");
        Alcotest.(check bool) "b diverged" true (diverged b "i");
        check_replays_golden ~what:"third instance" sut golden
          (restored sut tc state) ~from:k);
    Alcotest.test_case "guarded instances carry no hook" `Quick (fun () ->
        let guard =
          { System.signal = "SetValue"; make_transform = (fun () v -> v) }
        in
        let instance =
          (System.sut ~guards:[ guard ] ()).Propane.Sut.instantiate tc
        in
        Alcotest.(check bool)
          "no hook" true
          (Option.is_none instance.Propane.Sut.state_hook));
    Alcotest.test_case "a state from another SUT is refused" `Quick (fun () ->
        let instance = sut.Propane.Sut.instantiate tc in
        match (hook instance).Propane.Sut.restore Foreign_state with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "restored a foreign state");
  ]

(* A run's millisecond loop allocates nothing in the SUT: neither a
   step nor a rejoin check does, so the words counted for N of either
   do not grow with N. *)
let allocation_tests =
  let sut = System.sut () in
  let tc = System.testcase ~mass_kg:12_000.0 ~velocity_mps:70.0 in
  let grows what words =
    let short = words 1_000 and long = words 10_000 in
    if long > short then
      Alcotest.failf "%s: %.0f words for 1,000, %.0f for 10,000" what short
        long
  in
  [
    Alcotest.test_case "an arrestment step allocates nothing" `Quick
      (fun () ->
        grows "steps" (fun n ->
            let instance = sut.Propane.Sut.instantiate tc in
            let before = Gc.minor_words () in
            for _ = 1 to n do
              instance.Propane.Sut.step ()
            done;
            Gc.minor_words () -. before));
    Alcotest.test_case "matches allocates nothing" `Quick (fun () ->
        (* The instance's own state: every part is compared. *)
        let instance = sut.Propane.Sut.instantiate tc in
        for _ = 1 to 500 do
          instance.Propane.Sut.step ()
        done;
        let hook = hook instance in
        let state = hook.Propane.Sut.save () in
        Alcotest.(check bool) "its own state" true (hook.matches state);
        grows "matches" (fun n ->
            let before = Gc.minor_words () in
            for _ = 1 to n do
              ignore (Sys.opaque_identity (hook.matches state))
            done;
            Gc.minor_words () -. before));
    Alcotest.test_case "a pending trap or a step is a difference" `Quick
      (fun () ->
        let instance = sut.Propane.Sut.instantiate tc in
        let hook = hook instance in
        let state = hook.Propane.Sut.save () in
        instance.Propane.Sut.inject "SetValue" Fun.id;
        Alcotest.(check bool) "pending trap" false (hook.matches state);
        hook.restore state;
        Alcotest.(check bool) "restore drops it" true (hook.matches state);
        instance.Propane.Sut.step ();
        Alcotest.(check bool) "one step on" false (hook.matches state));
  ]

(* Campaigns start each run at its first fire from the golden's saved
   state.  The same SUT without its state hook runs every run from
   millisecond 0; that path is the oracle. *)
let from_zero (sut : Propane.Sut.t) =
  {
    sut with
    instantiate =
      (fun tc -> { (sut.instantiate tc) with Propane.Sut.state_hook = None });
  }

type restore_case = {
  mass_kg : float;
  velocity_mps : float;
  targets : string list;
  times : int list;
  errors : Propane.Error_model.t list;
  window : int option;
  jobs : int;
  crash_after_ms : int option;
}

let restore_case_gen =
  let open QCheck2.Gen in
  let spatial =
    oneof
      [
        map (fun b -> Propane.Error_model.Bit_flip b) (int_range 0 15);
        (let* b = int_range 0 14 in
         let+ d = int_range 1 (15 - b) in
         Propane.Error_model.Multi_bit [ b; b + d ]);
        (let* first = int_range 0 14 in
         let+ len = int_range 2 (16 - first) in
         Propane.Error_model.Burst { first; len });
        map (fun c -> Propane.Error_model.Stuck_at c) (int_range 0 0xFFFF);
        map (fun d -> Propane.Error_model.Offset d) (int_range (-500) 500);
        map (fun a -> Propane.Error_model.Noise a) (int_range 1 500);
        pure Propane.Error_model.Replace_uniform;
      ]
  in
  let error =
    frequency
      [
        (2, spatial);
        ( 1,
          map2
            (fun model delay_ms ->
              Propane.Error_model.Delayed { model; delay_ms })
            spatial (int_range 1 300) );
        ( 1,
          map3
            (fun model period_ms window_ms ->
              Propane.Error_model.Intermittent { model; period_ms; window_ms })
            spatial (int_range 1 40) (int_range 1 120) );
      ]
  in
  let* mass_kg = float_range 8_000.0 20_000.0 in
  let* velocity_mps = float_range 40.0 80.0 in
  let* n_targets = int_range 1 3 in
  let* targets = shuffle_l Model.injection_targets in
  (* Instants past the golden's end and at 0 included: neither has a
     saved state of its own. *)
  let* times = list_size (int_range 1 3) (int_range 0 13_000) in
  let* errors = list_size (int_range 1 3) error in
  let* window = opt (int_range 1 64) in
  let* jobs = oneofl [ 1; 3 ] in
  let+ crash_after_ms = opt (int_range 0 60) in
  {
    mass_kg;
    velocity_mps;
    targets = List.filteri (fun i _ -> i < n_targets) targets;
    times = List.sort_uniq Int.compare times;
    errors;
    window;
    jobs;
    crash_after_ms;
  }

let print_restore_case c =
  Printf.sprintf
    "m=%.0f v=%.1f targets=[%s] times=[%s] errors=[%s] window=%s jobs=%d \
     crash=%s"
    c.mass_kg c.velocity_mps
    (String.concat ";" c.targets)
    (String.concat ";" (List.map string_of_int c.times))
    (String.concat ";" (List.map Propane.Error_model.describe c.errors))
    (Option.fold ~none:"none" ~some:string_of_int c.window)
    c.jobs
    (Option.fold ~none:"none" ~some:string_of_int c.crash_after_ms)

let restore_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"restored runs match ms-0 runs" ~count:20
       ~print:print_restore_case restore_case_gen (fun c ->
         let sut =
           System.sut
             ?fault:
               (Option.map
                  (fun crash_after_ms -> Propane.Fault.spec ~crash_after_ms ())
                  c.crash_after_ms)
             ()
         in
         let campaign =
           Propane.Campaign.make ~name:"restore" ~targets:c.targets
             ~testcases:
               [
                 System.testcase ~mass_kg:c.mass_kg
                   ~velocity_mps:c.velocity_mps;
               ]
             ~times:(List.map Simkernel.Sim_time.of_ms c.times)
             ~errors:c.errors
         in
         let outcomes sut =
           Propane.Results.outcomes
             (Propane.Runner.run
                ~config:
                  (Propane.Runner.Config.make ~seed:9L
                     ?truncate_after_ms:(Option.map (fun w -> 2 * w) c.window)
                     ~jobs:c.jobs ())
                sut campaign)
         in
         outcomes sut = outcomes (from_zero sut)))

(* Whole CLI campaigns, journalled as [propane campaign] journals them:
   a delayed model under two domains, crashing runs with a retry, and
   fires at 9,500 ms, after the 2x2 grid's fast cases end (6,875 and
   7,624 ms) and before the slow ones do (10,844 and 15,553 ms), so
   goldens stop both at the arrestment's end and at the read horizon. *)
let restored_journals =
  Alcotest.test_case "restored journals match ms-0 journals" `Slow (fun () ->
      let journal recipe sut =
        let path = Filename.temp_file "restore" ".journal" in
        let config = { recipe.Recipe.config with journal = Some path } in
        let prepared = Recipe.prepare recipe in
        let (_ : Propane.Results.t) =
          Propane.Runner.run ~config ?live:prepared.live
            ?select:prepared.select ?cells:prepared.cells ?plan:prepared.plan
            ~recipe:(Recipe.encode recipe) (sut prepared) prepared.campaign
        in
        let bytes = In_channel.with_open_bin path In_channel.input_all in
        Sys.remove path;
        bytes
      in
      List.iter
        (fun (row, recipe) ->
          let restored = journal recipe (fun p -> p.Recipe.sut) in
          let zero = journal recipe (fun p -> from_zero p.Recipe.sut) in
          Alcotest.(check bool) row true (String.equal restored zero))
        [
          ( "--cases 2 --times 2 --model delayed:40 --jobs 2",
            Recipe.make ~cases:2 ~times:2 ~model:"delayed:40" ~jobs:2 () );
          ( "--cases 2 --times 2 --chaos-crash-after 30 --retries 1",
            Recipe.make ~cases:2 ~times:2 ~chaos_crash:30 ~retries:1 () );
          ( "--cases 2 --times 1 --model delayed:9000",
            Recipe.make ~cases:2 ~times:1 ~model:"delayed:9000" () );
        ])

(* ------------------------------------------------------------------ *)

let campaign_tests =
  [
    Alcotest.test_case "mini campaign reproduces the paper's structure" `Slow
      (fun () ->
        let campaign =
          Propane.Campaign.make ~name:"structure"
            ~targets:Model.injection_targets
            ~testcases:[ System.testcase ~mass_kg:14_000.0 ~velocity_mps:60.0 ]
            ~times:[ Simkernel.Sim_time.of_ms 1_500 ]
            ~errors:(Propane.Error_model.bit_flips ~width:Signals.width)
        in
        let results =
          Propane.Runner.run
            ~config:
              (Propane.Runner.Config.make ~seed:5L ~truncate_after_ms:128 ())
            (System.sut ())
            campaign
        in
        match Propane.Estimator.estimate_all ~model:Model.system results with
        | Error msg -> Alcotest.fail msg
        | Ok matrices ->
            let m name' = Propagation.String_map.find name' matrices in
            let get name' i k =
              Propagation.Perm_matrix.get (m name') ~input:i ~output:k
            in
            (* CLOCK row [0; 1] — exactly the paper's Table 1/2. *)
            close "slot->mscnt" 0.0 (get "CLOCK" 1 1);
            close "slot->slot" 1.0 (get "CLOCK" 1 2);
            (* PRES_S is non-permeable (OB3). *)
            close "ADC->InValue" 0.0 (get "PRES_S" 1 1);
            (* The stopped column is all zero (OB2). *)
            close "PACNT->stopped" 0.0 (get "DIST_S" 1 3);
            close "TIC1->stopped" 0.0 (get "DIST_S" 2 3);
            close "TCNT->stopped" 0.0 (get "DIST_S" 3 3);
            (* i -> i is the sentinel 1.000 of Table 1. *)
            close "i->i" 1.0 (get "CALC" 5 1);
            (* The high-permeability hot path SetValue -> OutValue -> TOC2. *)
            Alcotest.(check bool)
              "SetValue->OutValue high" true
              (get "V_REG" 1 1 > 0.8);
            Alcotest.(check bool)
              "OutValue->TOC2 high" true
              (get "PRES_A" 1 1 > 0.5));
  ]

(* ------------------------------------------------------------------ *)
(* Properties of golden runs over the whole workload envelope. *)

let envelope_gen =
  QCheck2.Gen.(pair (float_range 8_000.0 20_000.0) (float_range 40.0 80.0))

let trace_values traces signal =
  List.init
    (Propane.Trace_set.duration_ms traces)
    (Propane.Trace_set.get traces signal)

let monotone values =
  match values with
  | [] -> true
  | _ :: tail -> List.for_all2 ( <= ) (List.filteri (fun i _ -> i < List.length tail) values) tail

let envelope_tests =
  let sut = System.sut () in
  let golden (mass_kg, velocity_mps) =
    Propane.Runner.golden_run sut (System.testcase ~mass_kg ~velocity_mps)
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"every arrestment in the envelope completes in bounds" ~count:12
         envelope_gen (fun case ->
           let traces = golden case in
           let dur = Propane.Trace_set.duration_ms traces in
           let final s = Propane.Trace_set.get traces s (dur - 1) in
           dur > 5_100
           && dur < Propane.Runner.default_max_ms
           && final "stopped" = 1
           && float_of_int (final "pulscnt") /. Params.pulses_per_metre
              < Params.runway_length_m));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"pulscnt and i never decrease in a golden run"
         ~count:8 envelope_gen (fun case ->
           let traces = golden case in
           monotone (trace_values traces "pulscnt")
           && monotone (trace_values traces "i")));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"stopped latches: once raised it stays raised"
         ~count:8 envelope_gen (fun case ->
           let traces = golden case in
           monotone (trace_values traces "stopped")));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"TOC2 never exceeds the scaled valve range"
         ~count:8 envelope_gen (fun case ->
           let traces = golden case in
           List.for_all
             (fun v -> v <= Params.pressure_full_scale lsr Params.toc2_shift)
             (trace_values traces "TOC2")));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"the slot number trace cycles through 0..6"
         ~count:5 envelope_gen (fun case ->
           let traces = golden case in
           List.for_all
             (fun v -> 0 <= v && v < 7)
             (trace_values traces "ms_slot_nbr")));
  ]

(* ------------------------------------------------------------------ *)
(* The campaign recipe: codec, validation, field classification and
   the one estimation ending. *)

let recipe_gen =
  let open QCheck2.Gen in
  let* cases = int_range 2 6 in
  let* times = int_range 1 6 in
  let* full = bool in
  let* model =
    oneofl [ "single-bit"; "multi-bit:2"; "stuck-at:5"; "burst:4"; "delayed:8" ]
  in
  let* window = int_range 1 200 in
  let* seed = map Int64.of_int (int_range 0 1_000_000) in
  let* run_timeout_ms = int_range 0 500 in
  let* retries = int_range 0 3 in
  let* budget = opt (int_range 13 2_000) in
  let* plan = oneofl Propane.Plan.[ Adaptive; Uniform ] in
  let* chaos_crash = opt (int_range 0 100) in
  let+ chaos_hang = opt (int_range 0 100) in
  (* The codec writes the plan mode only under a budget. *)
  let plan = Option.map (fun _ -> plan) budget in
  Recipe.make ~cases ~times ~full ~model ~window ~seed ~run_timeout_ms ~retries
    ?budget ?plan ?chaos_crash ?chaos_hang ()

(* Random values for the resumable scheduling fields. *)
let reschedule_gen =
  let open QCheck2.Gen in
  let* jobs = int_range 1 8 in
  let* journal_batch = int_range 1 64 in
  let* fail_fast = bool in
  let+ stop_when =
    opt (oneofl [ `Rankings_stable 3; `Ci_width 0.4; `Ci_width 0.125 ])
  in
  fun (r : Recipe.t) ->
    { r with config = { r.config with jobs; journal_batch; fail_fast; stop_when } }

(* A different value: [None] becomes [Some lo]. *)
let bump ?(lo = 0) = function None -> Some lo | Some n -> Some (n + 1)

(* One change per outcome field, each of which must move the cache key. *)
let outcome_changes : (string * (Recipe.t -> Recipe.t)) list =
  [
    ("seed", fun r -> { r with config = { r.config with seed = Int64.succ r.config.seed } });
    ("window", fun r -> Recipe.{ r with window = r.window + 1 });
    ("retries", fun r -> { r with config = { r.config with retries = r.config.retries + 1 } });
    ( "run_timeout_ms",
      fun r ->
        { r with config = { r.config with run_timeout_ms = bump ~lo:1 r.config.run_timeout_ms } } );
    ("max_ms", fun r -> { r with config = { r.config with max_ms = r.config.max_ms + 1 } });
    ("chaos_crash", fun r -> { r with chaos_crash = bump r.chaos_crash });
    ("chaos_hang", fun r -> { r with chaos_hang = bump r.chaos_hang });
  ]

let contains ~needle hay =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let recipe_property ?(count = 200) ~print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen prop)

let recipe_tests =
  [
    recipe_property "decode (encode r) = Ok r" recipe_gen ~print:Recipe.encode
      (fun r -> Recipe.decode (Recipe.encode r) = Ok r);
    recipe_property "every outcome field moves the cache key" recipe_gen
      ~print:Recipe.encode
      (fun r ->
        List.for_all
          (fun (field, change) ->
            (not (String.equal (Recipe.key r) (Recipe.key (change r))))
            || QCheck2.Test.fail_reportf "%s left the key unchanged" field)
          outcome_changes);
    recipe_property "scheduling and plan fields keep the cache key"
      QCheck2.Gen.(
        let* r = recipe_gen in
        let* reschedule = reschedule_gen in
        let* budget = opt (int_range 13 2_000) in
        let+ plan = oneofl Propane.Plan.[ Adaptive; Uniform ] in
        (r, reschedule { r with config = { r.config with budget; plan } }))
      ~print:(fun (a, b) -> Recipe.encode a ^ "\n" ^ Recipe.encode b)
      (fun (a, b) -> String.equal (Recipe.key a) (Recipe.key b));
    Alcotest.test_case "congruent roster spellings share every cell" `Quick
      (fun () ->
        let cells model =
          let r = Recipe.make ~cases:2 ~times:1 ~model () in
          List.map
            (fun (c : Propane.Cell.t) -> c.key)
            (Propane.Cell.plan ~sut:(Recipe.sut r) ~model:Model.system
               ~recipe:(Recipe.key r) (Recipe.campaign r))
              .cells
        in
        Alcotest.(check (list string))
          "stuck-at:5 vs stuck-at:65541" (cells "stuck-at:5")
          (cells "stuck-at:65541"));
    recipe_property "first_difference is None exactly for resumable changes"
      QCheck2.Gen.(
        let* r = recipe_gen in
        let* reschedule = reschedule_gen in
        let+ change =
          oneofl
            (outcome_changes
            @ [
                ("cases", fun r -> Recipe.{ r with cases = r.cases + 1 });
                ("model", fun r -> { r with model = "burst:2" });
                ( "budget",
                  fun r ->
                    { r with config = { r.config with budget = bump ~lo:1 r.config.budget } } );
              ])
        in
        (r, reschedule r, change))
      ~print:(fun (r, _, (field, _)) -> field ^ " of " ^ Recipe.encode r)
      (fun (r, rescheduled, (_, change)) ->
        Recipe.first_difference r rescheduled = None
        && Recipe.first_difference r (change r) <> None);
    Alcotest.test_case "decode refuses every out-of-range field" `Quick
      (fun () ->
        let ok = Recipe.make () in
        List.iter
          (fun (field, (r : Recipe.t)) ->
            match Recipe.decode (Recipe.encode r) with
            | Ok _ -> Alcotest.failf "decode accepted a bad %s" field
            | Error msg ->
                if not (contains ~needle:field msg) then
                  Alcotest.failf "%s: message %S does not name it" field msg)
          [
            ("cases", { ok with cases = -4 });
            ("times", { ok with times = 0 });
            ("window", { ok with window = 0 });
            ("chaos_crash", { ok with chaos_crash = Some (-5) });
            ("chaos_hang", { ok with chaos_hang = Some (-1) });
            ("model", { ok with model = "stuck-nowhere" });
            ("retries", { ok with config = { ok.config with retries = -1 } });
          ]);
    Alcotest.test_case "a --full journal resumes under any --cases" `Quick
      (fun () ->
        (* The line `campaign --full` wrote before the grid was fixed. *)
        let older =
          "propane-recipe3;cases=3;times=4;full=true;model=single-bit;\
           window=64;config=max_ms=20000,seed=42,truncate_after_ms=128,\
           retries=0,fail_fast=false,jobs=1,journal_batch=32;chaos_crash=;\
           chaos_hang="
        in
        let full = Recipe.make ~full:true ~cases:4 () in
        match Recipe.decode older with
        | Error msg -> Alcotest.fail msg
        | Ok r ->
            Alcotest.(check (option (triple string string string)))
              "first_difference" None
              (Recipe.first_difference r full);
            Alcotest.(check bool)
              "the grid is written as 5 cases, 10 times" true
              (contains ~needle:";cases=5;times=10;full=true;"
                 (Recipe.encode full)));
    recipe_property ~count:4 ~print:Recipe.encode
      "prepare and the one ending match estimate_all"
      QCheck2.Gen.(
        let* model = oneofl [ "single-bit"; "stuck-at"; "delayed:8" ] in
        let* window = int_range 8 128 in
        let+ seed = map Int64.of_int (int_range 0 1_000) in
        Recipe.make ~cases:2 ~times:1 ~model ~window ~seed ())
      (fun r ->
        let p = Recipe.prepare r in
        let results =
          Propane.Runner.run ~config:r.config ?live:p.live ?plan:p.plan p.sut
            p.campaign
        in
        let render a =
          Fmt.str "%a" Propagation.Analysis.pp_summary a
          ^ Report.Table.render (Report.Experiments.table1 ~ci:true a)
        in
        let batch =
          Result.bind
            (Propane.Estimator.estimate_all ~window_ms:r.window
               ~model:Model.system results)
            (Propagation.Analysis.run Model.system)
        in
        match (Recipe.analyse ~window:r.window results, batch) with
        | Ok a, Ok b -> String.equal (render a) (render b)
        | _ -> false);
  ]

let () =
  Alcotest.run "arrestment"
    [
      ("physics", physics_tests);
      ("environment", environment_tests);
      ("modules", module_tests);
      ("model", model_tests);
      ("golden_runs", golden_run_tests);
      ("restore", restore_tests @ [ restore_property; restored_journals ]);
      ("allocation", allocation_tests);
      ("campaign", campaign_tests);
      ("envelope", envelope_tests);
      ("recipe", recipe_tests);
    ]
