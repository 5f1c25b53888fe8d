(* Tests for the PROPANE fault-injection substrate.

   The campaign/estimator tests use a tiny synthetic system under test
   with analytically known permeability: module SCALE computes
   y = x >> 4 every millisecond, so exactly the 4 low bits of x are
   invisible and the true permeability of the (x, y) pair under the
   16-bit-flip model is 12/16 = 0.75. *)

module Sim = Simkernel

let check_raises_invalid name f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")

let close = Alcotest.(check (float 1e-9))

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.equal (String.sub haystack i nn) needle then true
    else go (i + 1)
  in
  go 0

(* All runner invocations below go through the {!Propane.Runner.Config}
   API; this shim keeps the flat labels the test bodies were written
   with while exercising exactly the packaged-config entry point. *)
let runner ?max_ms ?seed ?truncate_after_ms ?run_timeout_ms ?retries
    ?fail_fast ?jobs ?journal ?resume ?journal_batch ?stop_when ?on_event
    ?on_run_traces ?live sut campaign =
  let config =
    Propane.Runner.Config.make ?max_ms ?seed ?truncate_after_ms
      ?run_timeout_ms ?retries ?fail_fast ?jobs ?journal ?resume
      ?journal_batch ?stop_when ()
  in
  Propane.Runner.run ~config ?on_event ?on_run_traces ?live sut campaign

(* ------------------------------------------------------------------ *)

let error_model_tests =
  let rng () = Sim.Rng.create 1L in
  [
    Alcotest.test_case "bit flip toggles one bit" `Quick (fun () ->
        Alcotest.(check int)
          "flipped" 0b1001
          (Propane.Error_model.apply (Propane.Error_model.Bit_flip 3)
             ~width:16 ~rng:(rng ()) 0b0001));
    Alcotest.test_case "bit flip is an involution" `Quick (fun () ->
        let flip v =
          Propane.Error_model.apply (Propane.Error_model.Bit_flip 7) ~width:16
            ~rng:(rng ()) v
        in
        Alcotest.(check int) "id" 12345 (flip (flip 12345)));
    Alcotest.test_case "stuck-at replaces and truncates" `Quick (fun () ->
        Alcotest.(check int)
          "value" 0xFF
          (Propane.Error_model.apply
             (Propane.Error_model.Stuck_at 0x1FF)
             ~width:8 ~rng:(rng ()) 3));
    Alcotest.test_case "offset wraps at width" `Quick (fun () ->
        Alcotest.(check int)
          "value" 1
          (Propane.Error_model.apply (Propane.Error_model.Offset 2) ~width:16
             ~rng:(rng ()) 0xFFFF));
    Alcotest.test_case "negative offset wraps" `Quick (fun () ->
        Alcotest.(check int)
          "value" 0xFFFF
          (Propane.Error_model.apply
             (Propane.Error_model.Offset (-1))
             ~width:16 ~rng:(rng ()) 0));
    Alcotest.test_case "uniform replacement stays in range" `Quick (fun () ->
        let rng = rng () in
        for _ = 1 to 100 do
          let v =
            Propane.Error_model.apply Propane.Error_model.Replace_uniform
              ~width:8 ~rng 0
          in
          Alcotest.(check bool) "range" true (0 <= v && v <= 255)
        done);
    Alcotest.test_case "bit_flips covers every position once" `Quick (fun () ->
        let flips = Propane.Error_model.bit_flips ~width:16 in
        Alcotest.(check int) "count" 16 (List.length flips);
        List.iteri
          (fun idx e ->
            Alcotest.(check bool)
              "position" true
              (Propane.Error_model.equal e (Propane.Error_model.Bit_flip idx)))
          flips);
    check_raises_invalid "flip outside width rejected" (fun () ->
        Propane.Error_model.apply (Propane.Error_model.Bit_flip 16) ~width:16
          ~rng:(rng ()) 0);
    check_raises_invalid "bad width rejected" (fun () ->
        Propane.Error_model.apply (Propane.Error_model.Stuck_at 0) ~width:0
          ~rng:(rng ()) 0);
    Alcotest.test_case "describe is informative" `Quick (fun () ->
        Alcotest.(check string)
          "bit flip" "bit-flip@5"
          (Propane.Error_model.describe (Propane.Error_model.Bit_flip 5)));
  ]

(* ------------------------------------------------------------------ *)
(* Properties across the full error-model taxonomy.  Every generated
   model is valid at [em_width]; canonicalization must preserve both
   behaviour and RNG consumption exactly, or cache keys and journal
   replay split on spelling differences. *)

module EM = Propane.Error_model

let em_width = 16
let em_mask = (1 lsl em_width) - 1

(* The spatial models that draw no randomness. *)
let gen_deterministic_spatial =
  QCheck2.Gen.
    [
      map (fun b -> EM.Bit_flip b) (int_range 0 (em_width - 1));
      map
        (fun bits -> EM.Multi_bit (List.sort_uniq Int.compare bits))
        (list_size (int_range 1 6) (int_range 0 (em_width - 1)));
      map2
        (fun first len ->
          EM.Burst { first; len = min len (em_width - first) })
        (int_range 0 (em_width - 1))
        (int_range 1 em_width);
      map (fun c -> EM.Stuck_at c) (int_range (-200_000) 200_000);
      map (fun d -> EM.Offset d) (int_range (-200_000) 200_000);
    ]

let gen_spatial_model =
  QCheck2.Gen.(
    oneof
      (gen_deterministic_spatial
      @ [
          map (fun a -> EM.Noise a) (int_range 1 em_mask);
          pure EM.Replace_uniform;
        ]))

(* A spatial model from [spatial], bare or wrapped in a temporal one. *)
let gen_error_model_over spatial =
  QCheck2.Gen.(
    frequency
      [
        (3, spatial);
        ( 1,
          map2
            (fun model delay_ms -> EM.Delayed { model; delay_ms })
            spatial (int_range 0 100) );
        ( 1,
          map3
            (fun model period_ms window_ms ->
              EM.Intermittent { model; period_ms; window_ms })
            spatial (int_range 1 20) (int_range 1 100) );
      ])

let gen_error_model = gen_error_model_over gen_spatial_model

let error_model_property_tests =
  let apply_seeded e seed v =
    EM.apply e ~width:em_width ~rng:(Sim.Rng.create seed) v
  in
  let gen_seed = QCheck2.Gen.(map Int64.of_int int) in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"every generated model validates"
         gen_error_model (fun e ->
           match EM.validate ~width:em_width e with
           | Ok () -> true
           | Error _ -> false));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500
         ~name:"apply truncates to width for all models"
         QCheck2.Gen.(tup3 gen_error_model gen_seed (int_range 0 em_mask))
         (fun (e, seed, v) ->
           let r = apply_seeded e seed v in
           0 <= r && r <= em_mask));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500
         ~name:"canonicalize agrees with the original on every stream"
         QCheck2.Gen.(tup3 gen_error_model gen_seed (int_range 0 em_mask))
         (fun (e, seed, v) ->
           apply_seeded (EM.canonicalize ~width:em_width e) seed v
           = apply_seeded e seed v));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"canonicalize is idempotent"
         gen_error_model (fun e ->
           let c = EM.canonicalize ~width:em_width e in
           EM.equal c (EM.canonicalize ~width:em_width c)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200
         ~name:"congruent stuck-at/offset constants share one description"
         QCheck2.Gen.(tup2 (int_range (-3) 3) (int_range 0 em_mask))
         (fun (k, c) ->
           let d e = EM.describe (EM.canonicalize ~width:em_width e) in
           let shifted = c + (k * (em_mask + 1)) in
           String.equal (d (EM.Stuck_at c)) (d (EM.Stuck_at shifted))
           && String.equal (d (EM.Offset c)) (d (EM.Offset shifted))));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200
         ~name:"multi-bit singleton is the bit flip"
         QCheck2.Gen.(tup2 (int_range 0 (em_width - 1)) (int_range 0 em_mask))
         (fun (b, v) ->
           apply_seeded (EM.Multi_bit [ b ]) 1L v
           = apply_seeded (EM.Bit_flip b) 1L v
           && EM.equal
                (EM.canonicalize ~width:em_width (EM.Multi_bit [ b ]))
                (EM.Bit_flip b)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200
         ~name:"burst equals the multi-bit over its range"
         QCheck2.Gen.(
           tup3
             (int_range 0 (em_width - 1))
             (int_range 1 em_width) (int_range 0 em_mask))
         (fun (first, len, v) ->
           let len = min len (em_width - first) in
           apply_seeded (EM.Burst { first; len }) 1L v
           = apply_seeded
               (EM.Multi_bit (List.init len (fun i -> first + i)))
               1L v));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500
         ~name:"replace-uniform and noise always corrupt"
         QCheck2.Gen.(tup2 gen_seed (int_range 0 em_mask))
         (fun (seed, v) ->
           apply_seeded EM.Replace_uniform seed v <> v
           && apply_seeded (EM.Noise 3) seed v <> v
           && apply_seeded (EM.Noise em_mask) seed v <> v));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300
         ~name:"fires holds exactly within [first_fire, last_fire]"
         QCheck2.Gen.(tup2 gen_error_model (int_range 0 100))
         (fun (e, inject_ms) ->
           let first = EM.first_fire_ms e ~inject_ms in
           let last = EM.last_fire_ms e ~inject_ms in
           EM.fires e ~inject_ms ~ms:first
           && EM.fires e ~inject_ms ~ms:last
           && first <= last
           &&
           let ok = ref true in
           for ms = 0 to last + 50 do
             if EM.fires e ~inject_ms ~ms && (ms < first || ms > last) then
               ok := false
           done;
           !ok));
    Alcotest.test_case "temporal nesting is rejected" `Quick (fun () ->
        match
          EM.validate ~width:16
            (EM.Delayed
               {
                 model =
                   EM.Intermittent
                     { model = EM.Bit_flip 0; period_ms = 1; window_ms = 2 };
                 delay_ms = 1;
               })
        with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "nested temporal accepted");
    Alcotest.test_case "describe covers the taxonomy" `Quick (fun () ->
        List.iter
          (fun (e, expect) ->
            Alcotest.(check string) expect expect (EM.describe e))
          [
            (EM.Multi_bit [ 3; 5 ], "multi-bit@3+5");
            (EM.Burst { first = 2; len = 3 }, "burst@2..4");
            (EM.Noise 4, "noise -4..+4");
            ( EM.Intermittent
                { model = EM.Bit_flip 1; period_ms = 4; window_ms = 16 },
              "bit-flip@1 every 4ms for 16ms" );
            ( EM.Delayed { model = EM.Replace_uniform; delay_ms = 8 },
              "replace-uniform after 8ms" );
          ]);
    Alcotest.test_case "roster grammar round-trips through validate" `Quick
      (fun () ->
        List.iter
          (fun spec ->
            match EM.roster_of_string ~width:16 spec with
            | Error msg -> Alcotest.failf "%s: %s" spec msg
            | Ok models ->
                Alcotest.(check bool)
                  (spec ^ " non-empty") true
                  (models <> []);
                List.iter
                  (fun m ->
                    match EM.validate ~width:16 m with
                    | Ok () -> ()
                    | Error msg -> Alcotest.failf "%s: %s" spec msg)
                  models)
          [
            "single-bit"; "multi-bit:2"; "multi-bit:3"; "burst:4"; "stuck-at";
            "stuck-at:7"; "offset:64"; "noise:16"; "uniform"; "delayed:8";
            "delayed:8:burst:2"; "intermittent:4:16";
            "intermittent:4:16:stuck-at";
          ]);
    Alcotest.test_case "roster grammar rejects nonsense" `Quick (fun () ->
        List.iter
          (fun spec ->
            match EM.roster_of_string ~width:16 spec with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %S" spec)
          [
            ""; "bogus"; "multi-bit:0"; "multi-bit:17"; "burst:0"; "burst:17";
            "offset:0"; "offset:65536"; "noise:0"; "delayed:-1";
            "intermittent:0:16"; "delayed:4:delayed:4";
            "intermittent:4:16:intermittent:4:16";
          ]);
  ]

(* ------------------------------------------------------------------ *)

let trace_tests =
  (* One-signal runs, compared as the golden run comparison does. *)
  let t values =
    let set = Propane.Trace_set.create ~signals:[ "x" ] () in
    List.iter (fun v -> Propane.Trace_set.sample_array set [| v |]) values;
    set
  in
  let first_difference ?until_ms golden run =
    match Propane.Golden.compare_runs ?until_ms ~golden ~run () with
    | [] -> None
    | [ d ] -> Some d.Propane.Golden.first_ms
    | _ -> Alcotest.fail "one signal diverged twice"
  in
  [
    Alcotest.test_case "push/get/length" `Quick (fun () ->
        let tr = Propane.Trace_set.create ~signals:[ "x" ] () in
        Propane.Trace_set.sample_array tr [| 1 |];
        Propane.Trace_set.sample_array tr [| 2 |];
        Alcotest.(check int) "len" 2 (Propane.Trace_set.duration_ms tr);
        Alcotest.(check int) "get" 2 (Propane.Trace_set.get tr "x" 1));
    Alcotest.test_case "growth beyond initial capacity" `Quick (fun () ->
        let tr = Propane.Trace_set.create ~capacity:4 ~signals:[ "x" ] () in
        for j = 0 to 999 do
          Propane.Trace_set.sample_array tr [| j |]
        done;
        Alcotest.(check int) "len" 1000 (Propane.Trace_set.duration_ms tr);
        Alcotest.(check int) "last" 999 (Propane.Trace_set.get tr "x" 999));
    check_raises_invalid "get out of range" (fun () ->
        Propane.Trace_set.get (t [ 1 ]) "x" 1);
    Alcotest.test_case "first_difference finds earliest" `Quick (fun () ->
        Alcotest.(check (option int))
          "diff" (Some 2)
          (first_difference (t [ 1; 2; 3; 4 ]) (t [ 1; 2; 9; 4 ])));
    Alcotest.test_case "identical traces never differ" `Quick (fun () ->
        Alcotest.(check (option int))
          "none" None
          (first_difference (t [ 1; 2; 3 ]) (t [ 1; 2; 3 ])));
    Alcotest.test_case "length mismatch is a divergence" `Quick (fun () ->
        Alcotest.(check (option int))
          "at end of shorter" (Some 2)
          (first_difference (t [ 1; 2; 3 ]) (t [ 1; 2 ])));
    Alcotest.test_case "until_ms bounds the comparison" `Quick (fun () ->
        Alcotest.(check (option int))
          "ignored" None
          (first_difference ~until_ms:2 (t [ 1; 2; 3 ]) (t [ 1; 2; 9 ])));
    Alcotest.test_case "until_ms ignores a shorter run" `Quick (fun () ->
        Alcotest.(check (option int))
          "ignored" None
          (first_difference ~until_ms:2 (t [ 1; 2; 3; 4 ]) (t [ 1; 2 ])));
    check_raises_invalid "different signals rejected" (fun () ->
        let y = Propane.Trace_set.create ~signals:[ "y" ] () in
        Propane.Trace_set.sample_array y [| 1 |];
        Propane.Golden.compare_runs ~golden:(t [ 1 ]) ~run:y ());
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"equal traces have no first difference"
         ~count:200
         QCheck2.Gen.(small_list (int_range 0 1000))
         (fun values -> first_difference (t values) (t values) = None));
  ]

(* ------------------------------------------------------------------ *)

let trace_set_tests =
  let samples set signal =
    List.init (Propane.Trace_set.duration_ms set) (Propane.Trace_set.get set signal)
  in
  [
    Alcotest.test_case "synchronized sampling" `Quick (fun () ->
        (* A restored run's recording: a block of golden milliseconds,
           one millisecond at a time, then the golden's suffix once the
           run has rejoined it. *)
        let set = Propane.Trace_set.create ~signals:[ "a"; "b" ] () in
        let golden = [| 1; 2; 3; 4; 99; 98; 7; 8; 9 |] in
        Propane.Trace_set.sample_block set golden ~from:0 ~until:2;
        Propane.Trace_set.sample_array set [| 5; 6 |];
        Propane.Trace_set.sample_block set golden ~from:3 ~until:4;
        Alcotest.(check int) "duration" 4 (Propane.Trace_set.duration_ms set);
        Alcotest.(check (list int)) "a" [ 1; 3; 5; 7 ] (samples set "a");
        Alcotest.(check (list int)) "b" [ 2; 4; 6; 8 ] (samples set "b"));
    check_raises_invalid "sample_block rejects a short block" (fun () ->
        let set = Propane.Trace_set.create ~signals:[ "a"; "b" ] () in
        Propane.Trace_set.sample_block set [| 1; 2; 3 |] ~from:0 ~until:2);
    check_raises_invalid "duplicate signals rejected" (fun () ->
        Propane.Trace_set.create ~signals:[ "a"; "a" ] ());
    check_raises_invalid "empty signal list rejected" (fun () ->
        Propane.Trace_set.create ~signals:[] ());
    Alcotest.test_case "get refuses an unknown signal" `Quick (fun () ->
        let set = Propane.Trace_set.create ~signals:[ "a" ] () in
        Propane.Trace_set.sample_array set [| 7 |];
        Alcotest.(check int) "known" 7 (Propane.Trace_set.get set "a" 0);
        match Propane.Trace_set.get set "zz" 0 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "unknown signal accepted");
    Alcotest.test_case "sample_array appends in signal order" `Quick (fun () ->
        let set = Propane.Trace_set.create ~signals:[ "a"; "b" ] () in
        Propane.Trace_set.sample_array set [| 1; 2 |];
        Propane.Trace_set.sample_array set [| 3; 4 |];
        Alcotest.(check int) "duration" 2 (Propane.Trace_set.duration_ms set);
        Alcotest.(check (list int)) "a" [ 1; 3 ] (samples set "a");
        Alcotest.(check (list int)) "b" [ 2; 4 ] (samples set "b"));
    check_raises_invalid "sample_array rejects a length mismatch" (fun () ->
        let set = Propane.Trace_set.create ~signals:[ "a"; "b" ] () in
        Propane.Trace_set.sample_array set [| 1 |]);
  ]

(* ------------------------------------------------------------------ *)

let golden_tests =
  let run_of values_per_signal =
    let set =
      Propane.Trace_set.create ~signals:(List.map fst values_per_signal) ()
    in
    let n = List.length (snd (List.hd values_per_signal)) in
    for j = 0 to n - 1 do
      Propane.Trace_set.sample_array set
        (Array.of_list
           (List.map (fun (_, values) -> List.nth values j) values_per_signal))
    done;
    set
  in
  [
    Alcotest.test_case "reports first divergence per signal" `Quick (fun () ->
        let golden = run_of [ ("a", [ 1; 1; 1 ]); ("b", [ 2; 2; 2 ]) ] in
        let run = run_of [ ("a", [ 1; 9; 1 ]); ("b", [ 2; 2; 2 ]) ] in
        match Propane.Golden.compare_runs ~golden ~run () with
        | [ { Propane.Golden.signal = "a"; first_ms = 1 } ] -> ()
        | other ->
            Alcotest.failf "unexpected: %a"
              Fmt.(list Propane.Golden.pp_divergence)
              other);
    Alcotest.test_case "identical runs have no divergences" `Quick (fun () ->
        let golden = run_of [ ("a", [ 1; 2; 3 ]) ] in
        let run = run_of [ ("a", [ 1; 2; 3 ]) ] in
        Alcotest.(check int)
          "none" 0
          (List.length (Propane.Golden.compare_runs ~golden ~run ())));
    Alcotest.test_case "until_ms forgives a truncated run" `Quick (fun () ->
        let golden = run_of [ ("a", [ 1; 2; 3; 4 ]) ] in
        let run = run_of [ ("a", [ 1; 2 ]) ] in
        Alcotest.(check int)
          "none" 0
          (List.length (Propane.Golden.compare_runs ~until_ms:2 ~golden ~run ())));
    check_raises_invalid "different signal sets rejected" (fun () ->
        let golden = run_of [ ("a", [ 1 ]) ] in
        let run = run_of [ ("b", [ 1 ]) ] in
        Propane.Golden.compare_runs ~golden ~run ());
    Alcotest.test_case "freeze preserves every sample" `Quick (fun () ->
        let set = run_of [ ("a", [ 1; 2; 3 ]); ("b", [ 4; 5; 6 ]) ] in
        let f = Propane.Golden.freeze set in
        Alcotest.(check (list string))
          "signals" [ "a"; "b" ]
          (Propane.Golden.frozen_signals f);
        Alcotest.(check int) "duration" 3 (Propane.Golden.frozen_duration_ms f);
        List.iteri
          (fun s name ->
            for ms = 0 to 2 do
              Alcotest.(check int)
                (Printf.sprintf "%s@%d" name ms)
                (Propane.Trace_set.get set name ms)
                (Propane.Golden.frozen_value f ~signal:s ~ms)
            done)
          [ "a"; "b" ]);
    check_raises_invalid "frozen_value rejects an out-of-range ms" (fun () ->
        let f = Propane.Golden.freeze (run_of [ ("a", [ 1; 2 ]) ]) in
        Propane.Golden.frozen_value f ~signal:0 ~ms:2);
    check_raises_invalid "frozen_value rejects an unknown signal" (fun () ->
        let f = Propane.Golden.freeze (run_of [ ("a", [ 1; 2 ]) ]) in
        Propane.Golden.frozen_value f ~signal:1 ~ms:0);
  ]

(* ------------------------------------------------------------------ *)

let observer_tests =
  (* Two-signal runs: [set_of a b] pairs sample lists of equal length. *)
  let set_of a b =
    let set = Propane.Trace_set.create ~signals:[ "a"; "b" ] () in
    List.iter2 (fun x y -> Propane.Trace_set.sample_array set [| x; y |]) a b;
    set
  in
  let drive check a b =
    List.iteri
      (fun ms (x, y) -> Propane.Golden.sample check ~ms [| x; y |])
      (List.combine a b);
    Propane.Golden.divergences check ~run_ms:(List.length a)
  in
  (* Golden and run of independent lengths, low-entropy samples so
     divergences, agreements and length mismatches all occur. *)
  let runs_gen =
    QCheck2.Gen.(
      let samples n = list_size (return n) (int_range 0 2) in
      int_range 1 20 >>= fun gl ->
      int_range 1 20 >>= fun rl ->
      samples gl >>= fun ga ->
      samples gl >>= fun gb ->
      samples rl >>= fun ra ->
      samples rl >>= fun rb ->
      option (int_range 0 22) >>= fun until_ms ->
      return (ga, gb, ra, rb, until_ms))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"streaming divergence observer agrees with compare_runs"
         ~count:500 runs_gen
         (fun (ga, gb, ra, rb, until_ms) ->
           let golden = set_of ga gb and run = set_of ra rb in
           let post = Propane.Golden.compare_runs ?until_ms ~golden ~run () in
           let check =
             Propane.Golden.check ?until_ms (Propane.Golden.freeze golden)
           in
           drive check ra rb = post));
    Alcotest.test_case "divergence observer saturates when all diverge" `Quick
      (fun () ->
        let golden = Propane.Golden.freeze (set_of [ 1; 1; 1 ] [ 2; 2; 2 ]) in
        let check = Propane.Golden.check golden in
        Alcotest.(check bool) "fresh" false (Propane.Golden.saturated check);
        Propane.Golden.sample check ~ms:0 [| 1; 2 |];
        Alcotest.(check bool)
          "clean sample" false
          (Propane.Golden.saturated check);
        Propane.Golden.sample check ~ms:1 [| 9; 9 |];
        Alcotest.(check bool)
          "all diverged" true
          (Propane.Golden.saturated check);
        Alcotest.(check bool)
          "both reported" true
          (Propane.Golden.divergences check ~run_ms:2
          = [
              { Propane.Golden.signal = "a"; first_ms = 1 };
              { Propane.Golden.signal = "b"; first_ms = 1 };
            ]));
  ]

(* ------------------------------------------------------------------ *)

(* Section 7.3's plan: the recipe behind `propane campaign --full`. *)
let paper_campaign =
  lazy (Arrestment.Recipe.campaign (Arrestment.Recipe.make ~full:true ()))

let testcase_tests =
  [
    Alcotest.test_case "params are retrievable" `Quick (fun () ->
        let tc = Propane.Testcase.make ~id:"t" ~params:[ ("mass", 10.0) ] in
        Alcotest.(check (option (float 0.0)))
          "present" (Some 10.0)
          (Propane.Testcase.param tc "mass");
        Alcotest.(check (option (float 0.0)))
          "absent" None
          (Propane.Testcase.param tc "velocity"));
    check_raises_invalid "param_exn on missing" (fun () ->
        Propane.Testcase.param_exn (Propane.Testcase.make ~id:"t" ~params:[]) "x");
    check_raises_invalid "duplicate params rejected" (fun () ->
        Propane.Testcase.make ~id:"t" ~params:[ ("m", 1.0); ("m", 2.0) ]);
    Alcotest.test_case "grid is the cartesian product" `Quick (fun () ->
        let cases =
          Propane.Testcase.grid
            [ ("a", [ 1.0; 2.0 ]); ("b", [ 3.0; 4.0; 5.0 ]) ]
        in
        Alcotest.(check int) "count" 6 (List.length cases);
        let ids = List.map Propane.Testcase.id cases in
        Alcotest.(check int)
          "distinct ids" 6
          (List.length (List.sort_uniq String.compare ids)));
    Alcotest.test_case "uniform_axis endpoints and spacing" `Quick (fun () ->
        let _, values =
          Propane.Testcase.uniform_axis "m" ~lo:8_000.0 ~hi:20_000.0 ~steps:5
        in
        Alcotest.(check int) "count" 5 (List.length values);
        close "lo" 8_000.0 (List.hd values);
        close "hi" 20_000.0 (List.nth values 4);
        close "mid" 14_000.0 (List.nth values 2));
    check_raises_invalid "axis needs lo < hi" (fun () ->
        Propane.Testcase.uniform_axis "m" ~lo:2.0 ~hi:1.0 ~steps:3);
    Alcotest.test_case "the paper's workload is 25 cases" `Quick (fun () ->
        Alcotest.(check int)
          "count" 25
          (List.length (Lazy.force paper_campaign).testcases));
  ]

(* ------------------------------------------------------------------ *)

let campaign_tests =
  [
    Alcotest.test_case "paper plan is 4,000 runs per signal" `Quick (fun () ->
        Alcotest.(check int)
          "per target" 4_000
          (Propane.Campaign.runs_per_target (Lazy.force paper_campaign)));
    Alcotest.test_case "full arrestment campaign is 52,000 runs" `Quick
      (fun () ->
        Alcotest.(check int)
          "size" 52_000
          (Propane.Campaign.size (Lazy.force paper_campaign)));
    Alcotest.test_case "paper times are 0.5s..5.0s" `Quick (fun () ->
        Alcotest.(check (list int))
          "times"
          [ 500; 1_000; 1_500; 2_000; 2_500; 3_000; 3_500; 4_000; 4_500; 5_000 ]
          (List.map Sim.Sim_time.to_ms (Lazy.force paper_campaign).times));
    Alcotest.test_case "experiments expand deterministically" `Quick (fun () ->
        let plan =
          Propane.Campaign.make ~name:"t" ~targets:[ "x"; "y" ]
            ~testcases:[ Propane.Testcase.make ~id:"a" ~params:[] ]
            ~times:[ Sim.Sim_time.of_ms 1 ]
            ~errors:[ Propane.Error_model.Bit_flip 0 ]
        in
        let exps = Propane.Campaign.experiments plan in
        Alcotest.(check int) "count" 2 (List.length exps);
        Alcotest.(check (list string))
          "targets in order" [ "x"; "y" ]
          (List.map (fun (_, inj) -> inj.Propane.Injection.target) exps));
    check_raises_invalid "duplicate targets rejected" (fun () ->
        Propane.Campaign.make ~name:"t" ~targets:[ "x"; "x" ]
          ~testcases:[ Propane.Testcase.make ~id:"a" ~params:[] ]
          ~times:[ Sim.Sim_time.of_ms 1 ]
          ~errors:[ Propane.Error_model.Bit_flip 0 ]);
    check_raises_invalid "empty dimensions rejected" (fun () ->
        Propane.Campaign.make ~name:"t" ~targets:[] ~testcases:[] ~times:[]
          ~errors:[]);
  ]

(* ------------------------------------------------------------------ *)

let store_layout = [ ("x", 16); ("y", 16); ("hw", 16) ]

let signal_store_tests =
  let make () =
    Propane.Signal_store.create
      ~modes:[ ("hw", Propane.Signal_store.Immediate) ]
      ~signals:store_layout ()
  in
  [
    Alcotest.test_case "write truncates to width" `Quick (fun () ->
        let store = Propane.Signal_store.create ~signals:[ ("n", 8) ] () in
        Propane.Signal_store.write store "n" 0x1FF;
        Alcotest.(check int) "value" 0xFF (Propane.Signal_store.read store "n"));
    Alcotest.test_case "at-read trap fires on first read only" `Quick
      (fun () ->
        let store = make () in
        Propane.Signal_store.write store "x" 5;
        Propane.Signal_store.inject store "x" (fun v -> v + 1);
        Alcotest.(check int)
          "peek unaffected" 5
          (Propane.Signal_store.peek store "x");
        Alcotest.(check int) "corrupted" 6 (Propane.Signal_store.read store "x");
        Alcotest.(check int) "persists" 6 (Propane.Signal_store.read store "x");
        Propane.Signal_store.write store "x" 10;
        Alcotest.(check int)
          "consumed" 10
          (Propane.Signal_store.read store "x"));
    Alcotest.test_case "at-read trap survives producer writes" `Quick
      (fun () ->
        let store = make () in
        Propane.Signal_store.inject store "x" (fun v -> v lxor 0x8000);
        Propane.Signal_store.write store "x" 100;
        Alcotest.(check int)
          "corrupts fresh value" (100 lxor 0x8000)
          (Propane.Signal_store.read store "x"));
    Alcotest.test_case "immediate mode corrupts the cell now" `Quick (fun () ->
        let store = make () in
        Propane.Signal_store.write store "hw" 3;
        Propane.Signal_store.inject store "hw" (fun v -> v + 4);
        Alcotest.(check int) "peek" 7 (Propane.Signal_store.peek store "hw"));
    Alcotest.test_case "immediate corruption is clobbered by a write" `Quick
      (fun () ->
        let store = make () in
        Propane.Signal_store.inject store "hw" (fun v -> v + 4);
        Propane.Signal_store.write store "hw" 100;
        Alcotest.(check int) "fresh" 100 (Propane.Signal_store.read store "hw"));
    Alcotest.test_case "immediate corruption survives read-modify-write" `Quick
      (fun () ->
        let store = make () in
        Propane.Signal_store.write store "hw" 10;
        Propane.Signal_store.inject store "hw" (fun v -> v + 1000);
        Propane.Signal_store.write store "hw"
          (Propane.Signal_store.peek store "hw" + 1);
        Alcotest.(check int)
          "carried" 1011
          (Propane.Signal_store.read store "hw"));
    Alcotest.test_case "write guards transform produced values" `Quick
      (fun () ->
        let store = make () in
        Propane.Signal_store.add_write_guard store "y" (fun v -> min v 10);
        Propane.Signal_store.write store "y" 100;
        Alcotest.(check int) "clamped" 10 (Propane.Signal_store.read store "y"));
    Alcotest.test_case "guards also see trap-corrupted values" `Quick
      (fun () ->
        let store = make () in
        Propane.Signal_store.add_write_guard store "x" (fun v -> min v 10);
        Propane.Signal_store.write store "x" 5;
        Propane.Signal_store.inject store "x" (fun _ -> 5000);
        Alcotest.(check int) "repaired" 10 (Propane.Signal_store.read store "x"));
    Alcotest.test_case "guards do not apply to poke" `Quick (fun () ->
        let store = make () in
        Propane.Signal_store.add_write_guard store "y" (fun v -> min v 10);
        Propane.Signal_store.poke store "y" 100;
        Alcotest.(check int) "raw" 100 (Propane.Signal_store.peek store "y"));
    check_raises_invalid "unknown signal rejected" (fun () ->
        Propane.Signal_store.read (make ()) "zz");
    check_raises_invalid "mode for unknown signal rejected" (fun () ->
        Propane.Signal_store.create
          ~modes:[ ("zz", Propane.Signal_store.Immediate) ]
          ~signals:store_layout ());
    Alcotest.test_case "snapshot is per-name peek in creation order" `Quick
      (fun () ->
        let store = make () in
        Propane.Signal_store.write store "x" 5;
        Propane.Signal_store.write store "y" 7;
        Propane.Signal_store.write store "hw" 9;
        Propane.Signal_store.inject store "x" (fun v -> v + 1);
        let buf = Array.make 3 0 in
        Propane.Signal_store.snapshot store buf;
        Alcotest.(check (array int))
          "peeks"
          (Array.of_list
             (List.map
                (fun (name, _) -> Propane.Signal_store.peek store name)
                store_layout))
          buf;
        Alcotest.(check (array int)) "values" [| 5; 7; 9 |] buf;
        Alcotest.(check int)
          "trap still armed" 6
          (Propane.Signal_store.read store "x"));
    Alcotest.test_case "read_ports fires a trap once, through the guards"
      `Quick (fun () ->
        (* The same reads through read_handle are the reference. *)
        let fired read =
          let store = make () in
          Propane.Signal_store.add_write_guard store "x" (fun v -> min v 10);
          Propane.Signal_store.write store "x" 5;
          Propane.Signal_store.write store "y" 3;
          Propane.Signal_store.inject store "x" (fun v -> v + 5000);
          let ports =
            [|
              Propane.Signal_store.handle store "x";
              Propane.Signal_store.handle store "y";
            |]
          in
          let first = read ports in
          Propane.Signal_store.write store "x" 4;
          (first, read ports)
        in
        let bulk ports =
          let buf = Array.make 2 0 in
          Propane.Signal_store.read_ports ports buf;
          buf
        in
        let first, second = fired bulk in
        Alcotest.(check (array int)) "repaired" [| 10; 3 |] first;
        Alcotest.(check (array int)) "consumed" [| 4; 3 |] second;
        Alcotest.(check (pair (array int) (array int)))
          "as read_handle"
          (fired (Array.map Propane.Signal_store.read_handle))
          (first, second));
    Alcotest.test_case "write_ports masks and applies guards" `Quick (fun () ->
        let store =
          Propane.Signal_store.create ~signals:[ ("n", 8); ("y", 16) ] ()
        in
        Propane.Signal_store.add_write_guard store "y" (fun v -> min v 10);
        Propane.Signal_store.write_ports
          [|
            Propane.Signal_store.handle store "n";
            Propane.Signal_store.handle store "y";
          |]
          [| 0x1FF; 100 |];
        Alcotest.(check (list int))
          "stored" [ 0xFF; 10 ]
          (List.map (Propane.Signal_store.peek store) [ "n"; "y" ]));
    Alcotest.test_case "load masks and bypasses guards" `Quick (fun () ->
        let store =
          Propane.Signal_store.create ~signals:[ ("n", 8); ("y", 16) ] ()
        in
        Propane.Signal_store.add_write_guard store "y" (fun v -> min v 10);
        Propane.Signal_store.load store [| 0x1FF; 100 |];
        Alcotest.(check (list int))
          "stored" [ 0xFF; 100 ]
          (List.map (Propane.Signal_store.peek store) [ "n"; "y" ]));
    check_raises_invalid "bulk values need one per signal" (fun () ->
        Propane.Signal_store.snapshot (make ()) (Array.make 2 0));
    Alcotest.test_case "mode lookup" `Quick (fun () ->
        let store = make () in
        Alcotest.(check bool)
          "hw immediate" true
          (Propane.Signal_store.mode store "hw" = Propane.Signal_store.Immediate);
        Alcotest.(check bool)
          "x at-read" true
          (Propane.Signal_store.mode store "x" = Propane.Signal_store.At_read));
  ]

(* ------------------------------------------------------------------ *)
(* Synthetic SUT: y = x >> 4, x driven externally as a ramp.           *)

type Propane.Sut.state += Scaler of { t : int; values : int array }

(* [hook] adds a state hook, so campaigns start its runs at their first
   fire and stop them once they rejoin the golden run.  y is recomputed
   from x every [read_every] ms; x is rewritten every ms. *)
let scaler_sut ?(hook = false) ?(read_every = 1) () =
  let instantiate _tc =
    let store =
      Propane.Signal_store.create ~signals:[ ("x", 16); ("y", 16) ] ()
    in
    let t = ref 0 in
    let save () =
      let values = Array.make 2 0 in
      Propane.Signal_store.snapshot store values;
      Scaler { t = !t; values }
    in
    let restore = function
      | Scaler s ->
          t := s.t;
          Propane.Signal_store.load store s.values
      | _ -> invalid_arg "scaler: foreign state"
    in
    let matches = function
      | Scaler s -> !t = s.t && Propane.Signal_store.matches store s.values
      | _ -> invalid_arg "scaler: foreign state"
    in
    {
      Propane.Sut.read = Propane.Signal_store.peek store;
      inject = Propane.Signal_store.inject store;
      step =
        (fun () ->
          incr t;
          Propane.Signal_store.write store "x" (!t * 16);
          if !t mod read_every = 0 then
            Propane.Signal_store.write store "y"
              (Propane.Signal_store.read store "x" lsr 4));
      finished = (fun () -> !t >= 100);
      snapshot = None;
      state_hook = (if hook then Some { save; restore; matches } else None);
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

let scaler_campaign =
  Propane.Campaign.make ~name:"scaler" ~targets:[ "x" ]
    ~testcases:[ Propane.Testcase.make ~id:"ramp" ~params:[] ]
    ~times:(List.map Sim.Sim_time.of_ms [ 10; 20; 30; 40; 50 ])
    ~errors:(Propane.Error_model.bit_flips ~width:16)

(* Counts every instance's steps, in instantiation order.  Built with
   [{ inner with step }], so it inherits the inner hook. *)
let counting (sut : Propane.Sut.t) =
  let counts = ref [] in
  let instantiate tc =
    let inner = sut.Propane.Sut.instantiate tc in
    let n = ref 0 in
    counts := n :: !counts;
    {
      inner with
      Propane.Sut.step =
        (fun () ->
          incr n;
          inner.Propane.Sut.step ());
    }
  in
  ({ sut with Propane.Sut.instantiate }, fun () -> List.rev_map ( ! ) !counts)

let runner_tests =
  [
    Alcotest.test_case "runs start at their first fire only with a state hook"
      `Quick (fun () ->
        (* The scaler campaign fires at 10..50 ms; a 5 ms truncation
           leaves at most 6 ms per run once the prefix is skipped, and
           no run reads its golden past 50 + 5 + 1 ms.  x is rewritten
           every ms, so a hooked run's state equals the golden's again
           2 ms after its fire, and the run stops there. *)
        let steps ?truncate_after_ms ~golden hook =
          let sut, counts = counting (scaler_sut ~hook ()) in
          let results =
            runner ~seed:3L ?truncate_after_ms sut scaler_campaign
          in
          match counts () with
          | stepped :: runs ->
              Alcotest.(check int) "golden steps" golden stepped;
              (Propane.Results.outcomes results, runs)
          | [] -> Alcotest.fail "no instance"
        in
        let plain, from_zero = steps ~truncate_after_ms:5 ~golden:56 false in
        let hooked, from_fire = steps ~truncate_after_ms:5 ~golden:56 true in
        (* Untruncated, the golden runs to the scaler's end. *)
        ignore (steps ~golden:100 true);
        Alcotest.(check int) "one instance per run" 80 (List.length from_zero);
        Alcotest.(check bool)
          "without the hook every run steps through its prefix" true
          (List.for_all (fun n -> n > 10) from_zero);
        Alcotest.(check bool)
          "with it no run steps more than 2 ms" true
          (List.for_all (fun n -> n <= 2) from_fire);
        Alcotest.(check bool) "same outcomes" true (plain = hooked));
    Alcotest.test_case "latest_saved picks the last instant at or before"
      `Quick (fun () ->
        let tc = Propane.Testcase.make ~id:"t" ~params:[] in
        let golden =
          Propane.Runner.frozen_golden ~save_at:[ 30; 10; 20; 10 ]
            (scaler_sut ~hook:true ()) tc
        in
        let at upto =
          Option.map fst (Propane.Golden.latest_saved golden ~upto)
        in
        Alcotest.(check (list int))
          "instants" [ 10; 20; 30 ]
          (Array.to_list golden.Propane.Golden.saved_at);
        Alcotest.(check (list (option int)))
          "lookups"
          [ None; Some 10; Some 10; Some 20; Some 30; Some 30 ]
          (List.map at [ 9; 10; 19; 20; 30; 5_000 ]);
        Alcotest.(check (list int))
          "first instant after" [ 0; 1; 1; 2; 3; 3 ]
          (List.map
             (fun ms -> Propane.Golden.saved_after golden ~ms)
             [ 9; 10; 19; 20; 30; 5_000 ]);
        let plain =
          Propane.Runner.frozen_golden ~save_at:[ 30 ] (scaler_sut ()) tc
        in
        Alcotest.(check int)
          "nothing saved without a hook" 0
          (Array.length plain.Propane.Golden.saved_at));
    Alcotest.test_case "golden run stops at finished" `Quick (fun () ->
        let traces =
          Propane.Runner.golden_run (scaler_sut ())
            (Propane.Testcase.make ~id:"t" ~params:[])
        in
        Alcotest.(check int)
          "duration" 100
          (Propane.Trace_set.duration_ms traces));
    Alcotest.test_case "golden run honours max_ms" `Quick (fun () ->
        let traces =
          Propane.Runner.golden_run ~max_ms:10 (scaler_sut ())
            (Propane.Testcase.make ~id:"t" ~params:[])
        in
        Alcotest.(check int)
          "duration" 10
          (Propane.Trace_set.duration_ms traces));
    Alcotest.test_case "injection corrupts the target trace" `Quick (fun () ->
        let sut = scaler_sut () in
        let tc = Propane.Testcase.make ~id:"t" ~params:[] in
        let golden = Propane.Runner.golden_run sut tc in
        let injection =
          Propane.Injection.make ~target:"x" ~at:(Sim.Sim_time.of_ms 10)
            ~error:(Propane.Error_model.Bit_flip 15)
        in
        let outcome =
          Propane.Runner.run_experiment sut
            ~golden:(Propane.Golden.freeze golden) tc injection
        in
        Alcotest.(check (option int))
          "x diverges at 10" (Some 10)
          (Propane.Results.divergence_of outcome "x");
        Alcotest.(check (option int))
          "y diverges at 10" (Some 10)
          (Propane.Results.divergence_of outcome "y"));
    Alcotest.test_case "low-bit flips never reach y" `Quick (fun () ->
        let sut = scaler_sut () in
        let tc = Propane.Testcase.make ~id:"t" ~params:[] in
        let golden = Propane.Runner.golden_run sut tc in
        let injection =
          Propane.Injection.make ~target:"x" ~at:(Sim.Sim_time.of_ms 10)
            ~error:(Propane.Error_model.Bit_flip 2)
        in
        let outcome =
          Propane.Runner.run_experiment sut
            ~golden:(Propane.Golden.freeze golden) tc injection
        in
        Alcotest.(check bool)
          "x diverges" true
          (Propane.Results.divergence_of outcome "x" <> None);
        Alcotest.(check (option int))
          "y clean" None
          (Propane.Results.divergence_of outcome "y"));
    Alcotest.test_case "injection beyond duration leaves the run golden" `Quick
      (fun () ->
        let sut = scaler_sut () in
        let tc = Propane.Testcase.make ~id:"t" ~params:[] in
        let golden = Propane.Runner.golden_run sut tc in
        let injection =
          Propane.Injection.make ~target:"x" ~at:(Sim.Sim_time.of_ms 5_000)
            ~error:(Propane.Error_model.Bit_flip 15)
        in
        let outcome =
          Propane.Runner.run_experiment sut
            ~golden:(Propane.Golden.freeze golden) tc injection
        in
        Alcotest.(check int)
          "no divergences" 0
          (List.length outcome.Propane.Results.divergences));
    Alcotest.test_case "truncation shortens the run but keeps the window"
      `Quick (fun () ->
        let sut = scaler_sut () in
        let tc = Propane.Testcase.make ~id:"t" ~params:[] in
        let golden = Propane.Runner.golden_run sut tc in
        let injection =
          Propane.Injection.make ~target:"x" ~at:(Sim.Sim_time.of_ms 10)
            ~error:(Propane.Error_model.Bit_flip 15)
        in
        let outcome =
          Propane.Runner.run_experiment ~truncate_after_ms:5 sut
            ~golden:(Propane.Golden.freeze golden) tc injection
        in
        Alcotest.(check (option int))
          "still seen" (Some 10)
          (Propane.Results.divergence_of outcome "y"));
    Alcotest.test_case "delayed injection diverges only after its delay"
      `Quick (fun () ->
        let sut = scaler_sut () in
        let tc = Propane.Testcase.make ~id:"t" ~params:[] in
        let golden = Propane.Runner.golden_run sut tc in
        let injection =
          Propane.Injection.make ~target:"x" ~at:(Sim.Sim_time.of_ms 10)
            ~error:
              (Propane.Error_model.Delayed
                 { model = Propane.Error_model.Bit_flip 15; delay_ms = 25 })
        in
        let outcome =
          Propane.Runner.run_experiment sut
            ~golden:(Propane.Golden.freeze golden) tc injection
        in
        Alcotest.(check (option int))
          "x diverges at inject + delay" (Some 35)
          (Propane.Results.divergence_of outcome "x");
        Alcotest.(check (option int))
          "y diverges at inject + delay" (Some 35)
          (Propane.Results.divergence_of outcome "y"));
    Alcotest.test_case "truncation preserves a delayed fire" `Quick (fun () ->
        let sut = scaler_sut () in
        let tc = Propane.Testcase.make ~id:"t" ~params:[] in
        let golden = Propane.Runner.golden_run sut tc in
        let injection =
          Propane.Injection.make ~target:"x" ~at:(Sim.Sim_time.of_ms 10)
            ~error:
              (Propane.Error_model.Delayed
                 { model = Propane.Error_model.Bit_flip 15; delay_ms = 25 })
        in
        (* Truncation counts from the last fire, not the injection
           time, so a 5 ms margin still reaches the delayed shot. *)
        let outcome =
          Propane.Runner.run_experiment ~truncate_after_ms:5 sut
            ~golden:(Propane.Golden.freeze golden) tc injection
        in
        Alcotest.(check (option int))
          "still seen" (Some 35)
          (Propane.Results.divergence_of outcome "y"));
    Alcotest.test_case "intermittent re-corrupts every period in its window"
      `Quick (fun () ->
        let campaign =
          Propane.Campaign.make ~name:"intermittent" ~targets:[ "x" ]
            ~testcases:[ Propane.Testcase.make ~id:"ramp" ~params:[] ]
            ~times:[ Sim.Sim_time.of_ms 10 ]
            ~errors:
              [
                Propane.Error_model.Intermittent
                  {
                    model = Propane.Error_model.Bit_flip 15;
                    period_ms = 10;
                    window_ms = 31;
                  };
              ]
        in
        (* With the hook the run restores at 10 ms, and the recorder
           gets ms 0-9 from the golden run. *)
        List.iter
          (fun hook ->
            let captured = ref None in
            let (_ : Propane.Results.t) =
              runner
                ~on_run_traces:(fun ~index:_ _ ts -> captured := Some ts)
                (scaler_sut ~hook ()) campaign
            in
            match !captured with
            | None -> Alcotest.fail "no traces captured"
            | Some ts ->
                let x = Propane.Trace_set.get ts "x" in
                Alcotest.(check int)
                  "full duration" 100
                  (Propane.Trace_set.duration_ms ts);
                for ms = 0 to Propane.Trace_set.duration_ms ts - 1 do
                  (* golden x is (ms+1)*16; the flip lands at 10, 20,
                     30 and 40 (the last period start inside the 31 ms
                     window) and nowhere else. *)
                  let golden_v = (ms + 1) * 16 in
                  let expect =
                    if List.mem ms [ 10; 20; 30; 40 ] then golden_v lxor 32768
                    else golden_v
                  in
                  Alcotest.(check int)
                    (Printf.sprintf "hook %b x@%d" hook ms)
                    expect (x ms)
                done)
          [ false; true ]);
    check_raises_invalid "temporal models cannot nest in an injection"
      (fun () ->
        Propane.Injection.make ~target:"x" ~at:(Sim.Sim_time.of_ms 0)
          ~error:
            (Propane.Error_model.Delayed
               {
                 model =
                   Propane.Error_model.Delayed
                     { model = Propane.Error_model.Bit_flip 0; delay_ms = 1 };
                 delay_ms = 1;
               }));
    check_raises_invalid "unknown target rejected" (fun () ->
        let sut = scaler_sut () in
        let tc = Propane.Testcase.make ~id:"t" ~params:[] in
        Propane.Runner.run_experiment sut
          ~golden:(Propane.Runner.frozen_golden sut tc)
          tc
          (Propane.Injection.make ~target:"zz" ~at:(Sim.Sim_time.of_ms 0)
             ~error:(Propane.Error_model.Bit_flip 0)));
    Alcotest.test_case "campaigns are deterministic for a seed" `Quick
      (fun () ->
        let run () =
          runner ~seed:7L (scaler_sut ()) scaler_campaign
        in
        let a = run () and b = run () in
        Alcotest.(check int)
          "count" (Propane.Results.count a)
          (Propane.Results.count b);
        List.iter2
          (fun (x : Propane.Results.outcome) (y : Propane.Results.outcome) ->
            Alcotest.(check int)
              "divergence lists" 0
              (compare x.divergences y.divergences))
          (Propane.Results.outcomes a)
          (Propane.Results.outcomes b));
    Alcotest.test_case "parallel campaign equals the sequential one" `Quick
      (fun () ->
        (* Includes a randomised error model so the per-index rng
           derivation is genuinely exercised. *)
        let campaign =
          Propane.Campaign.make ~name:"par" ~targets:[ "x" ]
            ~testcases:[ Propane.Testcase.make ~id:"ramp" ~params:[] ]
            ~times:[ Sim.Sim_time.of_ms 10; Sim.Sim_time.of_ms 40 ]
            ~errors:
              (Propane.Error_model.bit_flips ~width:16
              @ [ Propane.Error_model.Replace_uniform ])
        in
        let seq = runner ~seed:9L ~jobs:1 (scaler_sut ()) campaign in
        let par = runner ~seed:9L ~jobs:3 (scaler_sut ()) campaign in
        Alcotest.(check int)
          "count" (Propane.Results.count seq)
          (Propane.Results.count par);
        List.iter2
          (fun (a : Propane.Results.outcome) (b : Propane.Results.outcome) ->
            Alcotest.(check string)
              "target" a.injection.Propane.Injection.target
              b.injection.Propane.Injection.target;
            Alcotest.(check bool)
              "divergences" true
              (a.divergences = b.divergences))
          (Propane.Results.outcomes seq)
          (Propane.Results.outcomes par));
    check_raises_invalid "run rejects zero jobs" (fun () ->
        runner ~jobs:0 (scaler_sut ()) scaler_campaign);
    check_raises_invalid "resume without a journal is rejected" (fun () ->
        runner ~resume:true (scaler_sut ()) scaler_campaign);
    Alcotest.test_case "events bracket every run" `Quick (fun () ->
        let size = Propane.Campaign.size scaler_campaign in
        let runs = ref 0 and started = ref 0 and finished = ref 0 in
        let goldens = ref 0 in
        let _ =
          runner
            ~on_event:(fun ev ->
              match ev with
              | Propane.Runner.Started { total; skipped; jobs } ->
                  incr started;
                  Alcotest.(check int) "total" size total;
                  Alcotest.(check int) "skipped" 0 skipped;
                  Alcotest.(check int) "jobs" 1 jobs
              | Propane.Runner.Goldens_done { testcases } ->
                  incr goldens;
                  Alcotest.(check int) "goldens" 1 testcases
              | Propane.Runner.Worker_attached _ ->
                  Alcotest.fail "local runs attach no remote workers"
              | Propane.Runner.Analysis_tick _ ->
                  Alcotest.fail "no live analysis attached"
              | Propane.Runner.Run_done { completed; total; worker; _ } ->
                  incr runs;
                  Alcotest.(check int) "completed" !runs completed;
                  Alcotest.(check int) "run total" size total;
                  Alcotest.(check int) "worker" 0 worker
              | Propane.Runner.Finished { completed; total } ->
                  incr finished;
                  Alcotest.(check int) "finished completed" size completed;
                  Alcotest.(check int) "finished total" size total)
            (scaler_sut ()) scaler_campaign
        in
        Alcotest.(check int) "runs" size !runs;
        Alcotest.(check int) "started once" 1 !started;
        Alcotest.(check int) "goldens once" 1 !goldens;
        Alcotest.(check int) "finished once" 1 !finished);
    Alcotest.test_case "early exit stops once every signal diverged" `Quick
      (fun () ->
        let sut = scaler_sut () in
        let tc = Propane.Testcase.make ~id:"t" ~params:[] in
        let golden = Propane.Golden.freeze (Propane.Runner.golden_run sut tc) in
        let injection =
          (* Bit 15 propagates to y, so both signals diverge at ms 10
             and the run can stop right after. *)
          Propane.Injection.make ~target:"x" ~at:(Sim.Sim_time.of_ms 10)
            ~error:(Propane.Error_model.Bit_flip 15)
        in
        let counted, steps = counting sut in
        let outcome =
          Propane.Runner.run_experiment counted ~golden tc injection
        in
        Alcotest.(check (list int)) "stopped early" [ 11 ] (steps ());
        Alcotest.(check bool)
          "completed" true
          (outcome.Propane.Results.status = Propane.Results.Completed);
        Alcotest.(check int)
          "both diverged" 2
          (List.length outcome.Propane.Results.divergences));
    Alcotest.test_case "a rider recorder keeps the run full-length" `Quick
      (fun () ->
        let tc = Propane.Testcase.make ~id:"t" ~params:[] in
        let campaign =
          Propane.Campaign.make ~name:"recorded" ~targets:[ "x" ]
            ~testcases:[ tc ] ~times:[ Sim.Sim_time.of_ms 10 ]
            ~errors:[ Propane.Error_model.Bit_flip 15 ]
        in
        let lengths = ref [] in
        let results =
          runner
            ~on_run_traces:(fun ~index:_ _ set ->
              lengths := Propane.Trace_set.duration_ms set :: !lengths)
            (scaler_sut ()) campaign
        in
        Alcotest.(check (list int)) "full duration" [ 100 ] !lengths;
        match Propane.Results.outcomes results with
        | [ outcome ] ->
            Alcotest.(check (option int))
              "outcome unchanged" (Some 10)
              (Propane.Results.divergence_of outcome "y")
        | _ -> Alcotest.fail "one run expected");
    Alcotest.test_case "the run loop allocates nothing per simulated ms" `Quick
      (fun () ->
        (* x counts up, y stays 0: a flip of x never reaches y, so no run
           saturates and each steps to its golden's end.  Neither [step]
           nor [snapshot] allocates, and there is no state hook. *)
        let sut =
          let instantiate _tc =
            let x = ref 0 in
            {
              Propane.Sut.read = (function "x" -> !x | _ -> 0);
              inject = (fun name f -> if name = "x" then x := f !x);
              step = (fun () -> incr x);
              finished = (fun () -> false);
              snapshot =
                Some
                  (fun buf ->
                    buf.(0) <- !x;
                    buf.(1) <- 0);
              state_hook = None;
            }
          in
          {
            Propane.Sut.name = "counter";
            signals = [ ("x", 16); ("y", 16) ];
            digests = [];
            instantiate;
          }
        in
        let tc = Propane.Testcase.make ~id:"t" ~params:[] in
        let injection =
          Propane.Injection.make ~target:"x" ~at:(Sim.Sim_time.of_ms 5)
            ~error:(Propane.Error_model.Bit_flip 15)
        in
        let words_per_run max_ms =
          let golden = Propane.Runner.frozen_golden ~max_ms sut tc in
          let run () = Propane.Runner.run_experiment sut ~golden tc injection in
          Alcotest.(check (list string))
            "x alone diverges" [ "x@5ms" ]
            (List.map
               (Fmt.str "%a" Propane.Golden.pp_divergence)
               (run ()).Propane.Results.divergences);
          let before = Gc.minor_words () in
          let (_ : Propane.Results.outcome) = run () in
          Gc.minor_words () -. before
        in
        let short = words_per_run 1_000 and long = words_per_run 10_000 in
        if long > short then
          Alcotest.failf "%.0f words per 1,000-ms run, %.0f per 10,000-ms run"
            short long);
    Alcotest.test_case "a rider never changes an outcome" `Quick (fun () ->
        (* The stuck-at's first fire makes x and y diverge at 6 ms, and
           the fault crashes the SUT one step later.  The outcome is
           fixed when every signal has diverged; the crash only ends the
           recording. *)
        let error =
          Propane.Error_model.Intermittent
            {
              model = Propane.Error_model.Stuck_at 36315;
              period_ms = 20;
              window_ms = 19;
            }
        in
        let tc = Propane.Testcase.make ~id:"ramp" ~params:[] in
        let injection =
          Propane.Injection.make ~target:"x" ~at:(Sim.Sim_time.of_ms 6) ~error
        in
        let campaign =
          Propane.Campaign.make ~name:"rider" ~targets:[ "x" ]
            ~testcases:[ tc ] ~times:[ Sim.Sim_time.of_ms 6 ] ~errors:[ error ]
        in
        let describe (o : Propane.Results.outcome) =
          Fmt.str "%a [%a]" Propane.Results.pp_status o.status
            Fmt.(list ~sep:(any "; ") Propane.Golden.pp_divergence)
            o.divergences
        in
        let check what o =
          Alcotest.(check string) what "completed [x@6ms; y@6ms]" (describe o)
        in
        List.iter
          (fun hook ->
            let sut =
              Propane.Fault.wrap ~crash_after_ms:1 (scaler_sut ~hook ())
            in
            let golden = Propane.Runner.frozen_golden ~save_at:[ 6 ] sut tc in
            check "bare"
              (Propane.Runner.run_experiment sut ~golden tc injection);
            List.iter
              (fun jobs ->
                let lengths = ref [] in
                let results =
                  runner ~jobs
                    ~on_run_traces:(fun ~index:_ _ set ->
                      lengths := Propane.Trace_set.duration_ms set :: !lengths)
                    sut campaign
                in
                List.iter (check "on_run_traces")
                  (Propane.Results.outcomes results);
                Alcotest.(check (list int))
                  "traces stop at the crash" [ 7 ] !lengths)
              [ 1; 2 ])
          [ false; true ]);
    Alcotest.test_case "streaming, keep-traces and jobs:4 agree exactly" `Quick
      (fun () ->
        let outcomes r = Propane.Results.outcomes r in
        let streaming =
          runner ~seed:5L (scaler_sut ()) scaler_campaign
        in
        let kept =
          runner ~seed:5L
            ~on_run_traces:(fun ~index:_ _ _ -> ())
            (scaler_sut ()) scaler_campaign
        in
        let par =
          runner ~seed:5L ~jobs:4 (scaler_sut ()) scaler_campaign
        in
        Alcotest.(check bool)
          "on_run_traces identical" true
          (outcomes streaming = outcomes kept);
        Alcotest.(check bool)
          "jobs:4 identical" true
          (outcomes streaming = outcomes par));
    Alcotest.test_case "streaming and keep-traces journals are byte-identical"
      `Quick (fun () ->
        let journal_of ~traced =
          let path = Filename.temp_file "propane_stream" ".journal" in
          let _ =
            runner ~seed:11L ~journal:path
              ?on_run_traces:
                (if traced then Some (fun ~index:_ _ _ -> ()) else None)
              (scaler_sut ()) scaler_campaign
          in
          let contents =
            In_channel.with_open_bin path In_channel.input_all
          in
          Sys.remove path;
          contents
        in
        Alcotest.(check bool)
          "same bytes" true
          (String.equal (journal_of ~traced:false) (journal_of ~traced:true)));
    Alcotest.test_case "on_run_traces sees every run in full" `Quick (fun () ->
        (* The hooked scaler restores each run at its first fire and
           hands the recorder the golden prefix; the hookless one steps
           from ms 0.  Their traces agree sample by sample. *)
        let traces hook =
          let seen = Hashtbl.create 80 in
          let _ =
            runner ~seed:7L
              ~on_run_traces:(fun ~index _ set ->
                Alcotest.(check int)
                  "full duration" 100
                  (Propane.Trace_set.duration_ms set);
                Hashtbl.replace seen index
                  (List.map
                     (fun s ->
                       List.init
                         (Propane.Trace_set.duration_ms set)
                         (Propane.Trace_set.get set s))
                     (Propane.Trace_set.signals set)))
              (scaler_sut ~hook ()) scaler_campaign
          in
          Alcotest.(check int)
            "all runs" (Propane.Campaign.size scaler_campaign)
            (Hashtbl.length seen);
          seen
        in
        let from_zero = traces false and restored = traces true in
        Hashtbl.iter
          (fun index samples ->
            Alcotest.(check (list (list int)))
              (Printf.sprintf "run %d" index)
              samples
              (Hashtbl.find restored index))
          from_zero);
    Alcotest.test_case "parallel runs emit events from the coordinator" `Quick
      (fun () ->
        let size = Propane.Campaign.size scaler_campaign in
        let runs = ref 0 in
        let _ =
          runner ~jobs:3
            ~on_event:(function
              | Propane.Runner.Run_done { completed; worker; _ } ->
                  incr runs;
                  (* Events arrive in completion order but counts are
                     monotone because they are emitted serially. *)
                  Alcotest.(check int) "completed" !runs completed;
                  Alcotest.(check bool) "worker id" true
                    (0 <= worker && worker < 3)
              | _ -> ())
            (scaler_sut ()) scaler_campaign
        in
        Alcotest.(check int) "runs" size !runs);
    Alcotest.test_case "an injected run that finishes early has its true length"
      `Quick (fun () ->
        (* A self-halting SUT: s ramps by one per ms and the run is over
           once s reaches 60; k never changes.  Flipping bit 6 of s at
           ms 10 pushes it past the threshold, so the injected run ends
           ~50 ms before the golden one — the check must be told the
           true length for the length-mismatch rule to fire on k. *)
        let halting =
          let instantiate _tc =
            let store =
              Propane.Signal_store.create
                ~signals:[ ("s", 16); ("k", 1) ]
                ()
            in
            {
              Propane.Sut.read = Propane.Signal_store.peek store;
              inject = Propane.Signal_store.inject store;
              step =
                (fun () ->
                  Propane.Signal_store.write store "s"
                    (Propane.Signal_store.read store "s" + 1));
              finished = (fun () -> Propane.Signal_store.peek store "s" >= 60);
              snapshot = None;
              state_hook = None;
            }
          in
          {
            Propane.Sut.name = "halting";
            signals = [ ("s", 16); ("k", 1) ];
            digests = [];
            instantiate;
          }
        in
        let tc = Propane.Testcase.make ~id:"t" ~params:[] in
        let golden = Propane.Runner.golden_run halting tc in
        Alcotest.(check int)
          "golden length" 60
          (Propane.Trace_set.duration_ms golden);
        let injection =
          Propane.Injection.make ~target:"s" ~at:(Sim.Sim_time.of_ms 10)
            ~error:(Propane.Error_model.Bit_flip 6)
        in
        let counted, steps = counting halting in
        let outcome =
          Propane.Runner.run_experiment counted
            ~golden:(Propane.Golden.freeze golden) tc injection
        in
        let divergences = outcome.Propane.Results.divergences in
        Alcotest.(check bool)
          "completed" true
          (outcome.Propane.Results.status = Propane.Results.Completed);
        Alcotest.(check (list int)) "true length" [ 11 ] (steps ());
        Alcotest.(check bool)
          "s diverged at the injection" true
          (List.exists
             (fun (d : Propane.Golden.divergence) ->
               String.equal d.signal "s" && d.first_ms = 10)
             divergences);
        Alcotest.(check bool)
          "k diverged at the early end" true
          (List.exists
             (fun (d : Propane.Golden.divergence) ->
               String.equal d.signal "k" && d.first_ms = 11)
             divergences));
    check_raises_invalid "watchdog budget must be positive" (fun () ->
        runner ~run_timeout_ms:0 (scaler_sut ()) scaler_campaign);
    check_raises_invalid "negative retries rejected" (fun () ->
        runner ~retries:(-1) (scaler_sut ()) scaler_campaign);
  ]

(* Campaign goldens stop at the campaign's read horizon (the latest
   last fire + truncation + 1), or at the SUT's end if that comes first.
   The oracle freezes every golden at full length and runs each
   experiment through [run_experiment].  Only spatial models that
   draw no randomness are generated: the oracle cannot reproduce the
   campaign's per-index RNG streams. *)
let horizon_tests =
  let model =
    gen_error_model_over (QCheck2.Gen.oneof gen_deterministic_spatial)
  in
  (* The scaler finishes at 100 ms and the Builder system at 90 ms;
     instants reach past both. *)
  let instant =
    QCheck2.Gen.(oneof [ int_range 0 130; oneofl [ 89; 90; 99; 100 ] ])
  in
  let gen =
    QCheck2.Gen.(
      tup4
        (tup3 (int_range 0 2) (opt (int_range 0 8)) (int_range 1 2))
        (opt (oneof [ pure 0; int_range 0 40 ]))
        (oneof [ pure Propane.Runner.default_max_ms; int_range 20 150 ])
        (tup2
           (list_size (int_range 1 3) instant)
           (list_size (int_range 1 3) model)))
  in
  let print ((kind, crash, cases), truncate, max_ms, (times, errors)) =
    let opt = Option.fold ~none:"none" ~some:string_of_int in
    Printf.sprintf
      "sut %d, crash %s, %d cases, truncate %s, max_ms %d, times [%s], \
       errors [%s]"
      kind (opt crash) cases (opt truncate) max_ms
      (String.concat "; " (List.map string_of_int times))
      (String.concat "; " (List.map EM.describe errors))
  in
  let builder =
    Dataflow.Builder.synthetic ~duration_ms:90 ~modules:4 ~fan_in:2
      ~fan_out:1 ~feedback:1 ~seed:5L ()
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:150 ~print
         ~name:"horizon goldens give the outcomes of full-length goldens" gen
         (fun ((kind, crash, cases), truncate_after_ms, max_ms, (times, errors))
         ->
           let base, targets =
             match kind with
             | 0 -> (scaler_sut (), [ "x"; "y" ])
             | 1 -> (scaler_sut ~hook:true (), [ "x"; "y" ])
             | _ ->
                 ( Dataflow.Builder.sut builder,
                   List.filteri
                     (fun i _ -> i < 2)
                     (Dataflow.Builder.injection_targets builder) )
           in
           let sut =
             match crash with
             | None -> base
             | Some after -> Propane.Fault.wrap ~crash_after_ms:after base
           in
           let campaign =
             Propane.Campaign.make ~name:"horizon" ~targets
               ~testcases:
                 (List.init cases (fun i ->
                      Propane.Testcase.make ~id:(Printf.sprintf "t%d" i)
                        ~params:[]))
               ~times:
                 (List.map Sim.Sim_time.of_ms
                    (List.sort_uniq Int.compare times))
               ~errors
           in
           let experiments = Propane.Campaign.experiments campaign in
           let save_at =
             List.map (fun (_, i) -> Propane.Injection.first_fire_ms i)
               experiments
           in
           let oracle =
             List.map
               (fun (tc, injection) ->
                 Propane.Runner.run_experiment ?truncate_after_ms sut
                   ~golden:(Propane.Runner.frozen_golden ~max_ms ~save_at sut tc)
                   tc injection)
               experiments
           in
           let config ?(jobs = 1) () =
             Propane.Runner.Config.make ~max_ms ~seed:11L ?truncate_after_ms
               ~jobs ()
           in
           let by_run ?jobs ?on_run_traces () =
             Propane.Results.outcomes
               (Propane.Runner.run ~config:(config ?jobs ()) ?on_run_traces
                  sut campaign)
           in
           let traced ~index:_ _ _ = () in
           let by_executor =
             let exec =
               Propane.Runner.executor ~config:(config ()) ~seed:11L sut
                 campaign
             in
             List.mapi (fun i _ -> fst (exec i)) experiments
           in
           List.for_all
             (fun outcomes -> compare outcomes oracle = 0)
             [
               by_run ();
               by_run ~on_run_traces:traced ();
               by_run ~jobs:2 ();
               by_run ~jobs:2 ~on_run_traces:traced ();
               by_executor;
             ]));
  ]

(* ------------------------------------------------------------------ *)
(* A run whose state rejoins the golden run stops there.  The oracles
   are the same SUT with a hook that never matches (runs restore at
   their first fire but step to their end) and without a hook (runs
   start at ms 0). *)

let never_rejoins (sut : Propane.Sut.t) =
  let instantiate tc =
    let instance = sut.Propane.Sut.instantiate tc in
    {
      instance with
      Propane.Sut.state_hook =
        Option.map
          (fun h -> { h with Propane.Sut.matches = (fun _ -> false) })
          instance.Propane.Sut.state_hook;
    }
  in
  { sut with Propane.Sut.instantiate }

let hookless (sut : Propane.Sut.t) =
  let instantiate tc =
    { (sut.Propane.Sut.instantiate tc) with Propane.Sut.state_hook = None }
  in
  { sut with Propane.Sut.instantiate }

let rejoin_tests =
  let ramp = Propane.Testcase.make ~id:"ramp" ~params:[] in
  let describe (o : Propane.Results.outcome) =
    Fmt.str "%a [%a]" Propane.Results.pp_status o.status
      Fmt.(list ~sep:(any "; ") Propane.Golden.pp_divergence)
      o.divergences
  in
  let gen =
    QCheck2.Gen.(
      tup4
        (tup3 (oneofl [ 1; 4 ]) (oneofl [ [ "x" ]; [ "y" ]; [ "x"; "y" ] ])
           (int_range 1 2))
        (opt (int_range 0 40))
        (list_size (int_range 1 3) (int_range 0 110))
        (list_size (int_range 1 3) gen_error_model))
  in
  let print ((read_every, targets, jobs), truncate, times, errors) =
    Printf.sprintf
      "read every %d ms, targets [%s], jobs %d, truncate %s, times [%s], \
       errors [%s]"
      read_every (String.concat "; " targets) jobs
      (Option.fold ~none:"none" ~some:string_of_int truncate)
      (String.concat "; " (List.map string_of_int times))
      (String.concat "; " (List.map EM.describe errors))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:100 ~print
         ~name:"rejoined runs keep their outcomes and recordings" gen
         (fun ((read_every, targets, jobs), truncate_after_ms, times, errors)
         ->
           let campaign =
             Propane.Campaign.make ~name:"rejoin" ~targets ~testcases:[ ramp ]
               ~times:
                 (List.map Sim.Sim_time.of_ms
                    (List.sort_uniq Int.compare times))
               ~errors
           in
           (* Streamed outcomes, then recorded outcomes and samples. *)
           let runs sut =
             let streamed =
               runner ~seed:13L ?truncate_after_ms ~jobs sut campaign
             in
             let samples = Hashtbl.create 16 in
             let recorded =
               runner ~seed:13L ?truncate_after_ms ~jobs
                 ~on_run_traces:(fun ~index _ set ->
                   Hashtbl.replace samples index
                     ( Propane.Trace_set.duration_ms set,
                       Propane.Trace_set.samples set ))
                 sut campaign
             in
             ( Propane.Results.outcomes streamed,
               Propane.Results.outcomes recorded,
               List.init (Hashtbl.length samples) (Hashtbl.find samples) )
           in
           let sut = scaler_sut ~hook:true ~read_every () in
           let exit = runs sut in
           exit = runs (never_rejoins sut) && exit = runs (hookless sut)));
    Alcotest.test_case "a pending trap keeps a run from rejoining" `Quick
      (fun () ->
        (* y reads x only when t is a multiple of 4, in ms 3, 7, 11, ...
           A flip of x injected at 9 or 10 waits in its trap until the
           read at 11, while every value is golden: a run that matched
           in between would lose both divergences. *)
        let sut = scaler_sut ~hook:true ~read_every:4 () in
        let campaign =
          Propane.Campaign.make ~name:"pending" ~targets:[ "x" ]
            ~testcases:[ ramp ]
            ~times:(List.map Sim.Sim_time.of_ms [ 9; 10; 11 ])
            ~errors:[ EM.Bit_flip 15 ]
        in
        let outcomes sut =
          Propane.Results.outcomes (runner ~seed:3L sut campaign)
        in
        let exit = outcomes sut in
        Alcotest.(check (list string))
          "every flip diverges at the read"
          (List.init 3 (fun _ -> "completed [x@11ms; y@11ms]"))
          (List.map describe exit);
        Alcotest.(check bool)
          "as without the exit" true
          (exit = outcomes (never_rejoins sut)));
    Alcotest.test_case "a faulted run crashes as if it never rejoined" `Quick
      (fun () ->
        (* Low-bit flips of x never reach y, so no run saturates; each
           rejoins its golden 2 ms after the fire, and the fault crashes
           it 5 ms after. *)
        let sut =
          Propane.Fault.wrap ~crash_after_ms:5 (scaler_sut ~hook:true ())
        in
        let campaign =
          Propane.Campaign.make ~name:"crash" ~targets:[ "x" ]
            ~testcases:[ ramp ]
            ~times:(List.map Sim.Sim_time.of_ms [ 10; 20; 30 ])
            ~errors:(List.init 4 (fun b -> EM.Bit_flip b))
        in
        let outcomes sut =
          Propane.Results.outcomes (runner ~seed:3L sut campaign)
        in
        let exit = outcomes sut in
        List.iter
          (fun (o : Propane.Results.outcome) ->
            match o.status with
            | Propane.Results.Crashed { at_ms; _ } ->
                Alcotest.(check int)
                  "5 ms after the fire"
                  (Propane.Injection.inject_ms o.injection + 5)
                  at_ms
            | _ -> Alcotest.failf "not crashed: %s" (describe o))
          exit;
        Alcotest.(check bool)
          "as without the exit" true
          (exit = outcomes (never_rejoins sut)));
  ]

(* ------------------------------------------------------------------ *)

(* The SCALE cell (x -> y) that [estimate_all] measures from [results]. *)
let scale_cell ?window_ms results =
  match
    Propane.Estimator.estimate_all ?window_ms ~model:scale_model results
  with
  | Error msg -> Alcotest.fail msg
  | Ok matrices ->
      Propagation.Perm_matrix.estimate
        (Propagation.String_map.find "SCALE" matrices)
        ~input:1 ~output:1

(* One completed run whose error on x fires at 100, 120, ..., 180 ms
   and whose y first diverges at [first_ms]. *)
let intermittent_run first_ms =
  let results = Propane.Results.create ~sut:"scaler" ~campaign:"c" in
  Propane.Results.add results
    {
      Propane.Results.testcase = "t";
      injection =
        Propane.Injection.make ~target:"x" ~at:(Sim.Sim_time.of_ms 100)
          ~error:
            (Propane.Error_model.Intermittent
               {
                 model = Propane.Error_model.Bit_flip 0;
                 period_ms = 20;
                 window_ms = 100;
               });
      divergences = [ { Propane.Golden.signal = "y"; first_ms } ];
      status = Propane.Results.Completed;
    };
  results

let estimator_tests =
  [
    Alcotest.test_case "scaler permeability is exactly 12/16" `Quick (fun () ->
        let results =
          runner ~seed:7L (scaler_sut ()) scaler_campaign
        in
        close "P" 0.75 (scale_cell results).Propagation.Estimate.value);
    Alcotest.test_case "estimates carry campaign detail" `Quick (fun () ->
        let results =
          runner ~seed:7L (scaler_sut ()) scaler_campaign
        in
        let e = scale_cell results in
        Alcotest.(check int) "n_inj" 80 e.Propagation.Estimate.n_inj;
        Alcotest.(check int) "n_err" 60 e.Propagation.Estimate.n_err);
    Alcotest.test_case "estimate_all flags missing targets" `Quick (fun () ->
        let empty = Propane.Results.create ~sut:"scaler" ~campaign:"none" in
        match Propane.Estimator.estimate_all ~model:scale_model empty with
        | Error msg ->
            Alcotest.(check bool)
              "mentions x" true
              (contains_substring msg "x")
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "attribution window discounts late divergences" `Quick
      (fun () ->
        (* Synthetic outcome: y diverges 500 ms after the injection. *)
        let results = Propane.Results.create ~sut:"scaler" ~campaign:"c" in
        Propane.Results.add results
          {
            Propane.Results.testcase = "t";
            injection =
              Propane.Injection.make ~target:"x" ~at:(Sim.Sim_time.of_ms 100)
                ~error:(Propane.Error_model.Bit_flip 0);
            divergences = [ { Propane.Golden.signal = "y"; first_ms = 600 } ];
            status = Propane.Results.Completed;
          };
        let direct = scale_cell ~window_ms:64 results in
        let wide = scale_cell ~window_ms:4000 results in
        close "direct discounts" 0.0 direct.Propagation.Estimate.value;
        close "a wide window counts" 1.0 wide.Propagation.Estimate.value);
    Alcotest.test_case "the window ends at last fire + window_ms" `Quick
      (fun () ->
        let n_err ~window_ms first_ms =
          (scale_cell ~window_ms (intermittent_run first_ms))
            .Propagation.Estimate.n_err
        in
        Alcotest.(check int) "at 180 + 64 ms" 1 (n_err ~window_ms:64 244);
        Alcotest.(check int) "at 180 + 65 ms" 0 (n_err ~window_ms:64 245);
        Alcotest.(check int)
          "max_int counts a late one" 1
          (n_err ~window_ms:max_int 100_000));
    Alcotest.test_case "failed runs count as errors unconditionally" `Quick
      (fun () ->
        let results = Propane.Results.create ~sut:"scaler" ~campaign:"c" in
        let add status divergences =
          Propane.Results.add results
            {
              Propane.Results.testcase = "t";
              injection =
                Propane.Injection.make ~target:"x" ~at:(Sim.Sim_time.of_ms 10)
                  ~error:(Propane.Error_model.Bit_flip 0);
              divergences;
              status;
            }
        in
        add Propane.Results.Completed
          [ { Propane.Golden.signal = "y"; first_ms = 10 } ];
        add (Propane.Results.Crashed { at_ms = 12; reason = "boom" }) [];
        add (Propane.Results.Hung { budget_ms = 50 }) [];
        let e = scale_cell results in
        Alcotest.(check (pair int int))
          "counted as errors" (3, 3)
          (e.Propagation.Estimate.n_inj, e.Propagation.Estimate.n_err));
  ]

(* ------------------------------------------------------------------ *)

let results_tests =
  [
    Alcotest.test_case "add/count/by_target" `Quick (fun () ->
        let r = Propane.Results.create ~sut:"s" ~campaign:"c" in
        let outcome target =
          {
            Propane.Results.testcase = "t";
            injection =
              Propane.Injection.make ~target ~at:(Sim.Sim_time.of_ms 0)
                ~error:(Propane.Error_model.Bit_flip 0);
            divergences = [];
            status = Propane.Results.Completed;
          }
        in
        Propane.Results.add r (outcome "x");
        Propane.Results.add r (outcome "y");
        Propane.Results.add r (outcome "x");
        Alcotest.(check int) "count" 3 (Propane.Results.count r);
        Alcotest.(check int) "x" 2 (Propane.Results.injections_into r "x");
        Alcotest.(check int)
          "y" 1
          (List.length (Propane.Results.by_target r "y"));
        Alcotest.(check int) "z" 0 (Propane.Results.injections_into r "z"));
  ]

(* ------------------------------------------------------------------ *)

let synthetic_results divergence_specs =
  (* One outcome per spec: (target, testcase, at_ms, [(signal, at)]). *)
  let results = Propane.Results.create ~sut:"synth" ~campaign:"synth" in
  List.iter
    (fun (target, testcase, at_ms, divergences) ->
      Propane.Results.add results
        {
          Propane.Results.testcase;
          injection =
            Propane.Injection.make ~target ~at:(Sim.Sim_time.of_ms at_ms)
              ~error:(Propane.Error_model.Bit_flip 0);
          divergences =
            List.map
              (fun (signal, first_ms) -> { Propane.Golden.signal; first_ms })
              divergences;
          status = Propane.Results.Completed;
        })
    divergence_specs;
  results

let latency_tests =
  [
    Alcotest.test_case "statistics over counted errors" `Quick (fun () ->
        let results =
          synthetic_results
            [
              ("x", "t", 100, [ ("y", 102) ]);
              ("x", "t", 100, [ ("y", 110) ]);
              ("x", "t", 100, [ ("y", 104) ]);
              ("x", "t", 100, []);
            ]
        in
        match Propane.Latency.all_stats ~model:scale_model results with
        | [ s ] ->
            Alcotest.(check int) "samples" 3 s.Propane.Latency.samples;
            Alcotest.(check int) "min" 2 s.Propane.Latency.min_ms;
            Alcotest.(check int) "max" 10 s.Propane.Latency.max_ms;
            Alcotest.(check int) "median" 4 s.Propane.Latency.median_ms;
            Alcotest.(check (float 1e-9)) "mean" (16.0 /. 3.0)
              s.Propane.Latency.mean_ms
        | _ -> Alcotest.fail "expected one defined stat");
    Alcotest.test_case "window drops late divergences" `Quick (fun () ->
        let results =
          synthetic_results [ ("x", "t", 100, [ ("y", 400) ]) ]
        in
        match
          Propane.Latency.all_stats ~window_ms:64 ~model:scale_model results
        with
        | [] -> ()
        | _ -> Alcotest.fail "expected no stats");
    Alcotest.test_case "a wide window keeps late ones" `Quick (fun () ->
        let results =
          synthetic_results [ ("x", "t", 100, [ ("y", 400) ]) ]
        in
        match
          Propane.Latency.all_stats ~window_ms:4000 ~model:scale_model results
        with
        | [ s ] -> Alcotest.(check int) "latency" 300 s.Propane.Latency.max_ms
        | _ -> Alcotest.fail "expected stats");
    Alcotest.test_case "the window ends at last fire + window_ms" `Quick
      (fun () ->
        let latencies ~window_ms first_ms =
          List.map
            (fun s -> s.Propane.Latency.max_ms)
            (Propane.Latency.all_stats ~window_ms ~model:scale_model
               (intermittent_run first_ms))
        in
        Alcotest.(check (list int))
          "at 180 + 64 ms" [ 144 ]
          (latencies ~window_ms:64 244);
        Alcotest.(check (list int))
          "at 180 + 65 ms" []
          (latencies ~window_ms:64 245);
        Alcotest.(check (list int))
          "max_int counts a late one" [ 99_900 ]
          (latencies ~window_ms:max_int 100_000));
    Alcotest.test_case "intermittent errors keep the estimator's window"
      `Quick (fun () ->
        (* y diverges 20 ms after the last fire, 100 ms after the first. *)
        let results = intermittent_run 200 in
        Alcotest.(check int)
          "estimator counts it" 1
          (scale_cell results).Propagation.Estimate.n_err;
        match Propane.Latency.all_stats ~model:scale_model results with
        | [ s ] ->
            Alcotest.(check int) "samples" 1 s.Propane.Latency.samples;
            Alcotest.(check int) "latency" 100 s.Propane.Latency.max_ms
        | other -> Alcotest.failf "expected one stat, got %d" (List.length other));
    Alcotest.test_case "all_stats flattens defined pairs" `Quick (fun () ->
        let results = synthetic_results [ ("x", "t", 1, [ ("y", 2) ]) ] in
        Alcotest.(check int)
          "one" 1
          (List.length (Propane.Latency.all_stats ~model:scale_model results)));
  ]

(* ------------------------------------------------------------------ *)

let uniformity_tests =
  [
    Alcotest.test_case "locations group by target, case and time" `Quick
      (fun () ->
        let results =
          synthetic_results
            [
              ("x", "a", 10, [ ("y", 11) ]);
              ("x", "a", 10, []);
              ("x", "a", 20, [ ("y", 21) ]);
              ("x", "b", 10, []);
            ]
        in
        let locs = Propane.Uniformity.locations ~outputs:[ "y" ] results in
        Alcotest.(check int) "groups" 3 (List.length locs));
    Alcotest.test_case "report classifies all/none/mixed" `Quick (fun () ->
        let results =
          synthetic_results
            [
              (* location 1: all propagate *)
              ("x", "a", 10, [ ("y", 11) ]);
              ("x", "a", 10, [ ("y", 12) ]);
              (* location 2: none propagate *)
              ("x", "a", 20, []);
              ("x", "a", 20, []);
              (* location 3: mixed *)
              ("x", "b", 10, [ ("y", 11) ]);
              ("x", "b", 10, []);
            ]
        in
        let report = Propane.Uniformity.analyse ~outputs:[ "y" ] results in
        Alcotest.(check int) "locations" 3 report.Propane.Uniformity.locations;
        Alcotest.(check int) "all" 1 report.Propane.Uniformity.uniform_all;
        Alcotest.(check int) "none" 1 report.Propane.Uniformity.uniform_none;
        Alcotest.(check int) "mixed" 1 report.Propane.Uniformity.mixed;
        Alcotest.(check string)
          "fraction"
          "3 locations: 1 all-propagate, 1 none-propagate, 1 mixed (uniform \
           fraction 0.67)"
          (List.hd
             (String.split_on_char '\n'
                (Fmt.str "%a" Propane.Uniformity.pp_report report))));
    Alcotest.test_case "histogram bins sum to the location count" `Quick
      (fun () ->
        let results =
          synthetic_results
            [
              ("x", "a", 10, [ ("y", 11) ]);
              ("x", "a", 10, []);
              ("x", "b", 10, []);
            ]
        in
        let report = Propane.Uniformity.analyse ~outputs:[ "y" ] results in
        Alcotest.(check int)
          "sum"
          report.Propane.Uniformity.locations
          (Array.fold_left ( + ) 0 report.Propane.Uniformity.histogram));
    Alcotest.test_case "non-output divergences do not count" `Quick (fun () ->
        let results =
          synthetic_results [ ("x", "a", 10, [ ("internal", 11) ]) ]
        in
        let report = Propane.Uniformity.analyse ~outputs:[ "y" ] results in
        Alcotest.(check int) "none" 1 report.Propane.Uniformity.uniform_none);
  ]

(* ------------------------------------------------------------------ *)

let storage_tests =
  let with_journal f =
    let path = Filename.temp_file "propane_test" ".journal" in
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)
  in
  [
    Alcotest.test_case "error model round-trips" `Quick (fun () ->
        List.iter
          (fun e ->
            match
              Propane.Error_model.decode (Propane.Error_model.encode e)
            with
            | Ok e' ->
                Alcotest.(check bool) "equal" true (Propane.Error_model.equal e e')
            | Error msg -> Alcotest.fail msg)
          [
            Propane.Error_model.Bit_flip 7;
            Propane.Error_model.Stuck_at 65_535;
            Propane.Error_model.Offset (-12);
            Propane.Error_model.Replace_uniform;
          ]);
    Alcotest.test_case "error parser rejects junk" `Quick (fun () ->
        List.iter
          (fun junk ->
            match Propane.Error_model.decode junk with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %S" junk)
          [
            "bitflip"; "bitflip:x"; "nonsense"; "stuck:"; "multibit:";
            "multibit:x"; "burst:1"; "burst:1:x"; "noise:"; "delayed:4";
            "delayed:x:bitflip:0"; "intermittent:4:16";
            (* nested temporal wrappers must not decode *)
            "delayed:4:delayed:4:bitflip:0";
            "intermittent:4:16:delayed:4:bitflip:0";
          ]);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500
         ~name:"error codec round-trips the full taxonomy" gen_error_model
         (fun e ->
           match Propane.Error_model.decode (Propane.Error_model.encode e) with
           | Ok e' -> Propane.Error_model.equal e e'
           | Error _ -> false));
    Alcotest.test_case "campaign results survive storage end to end" `Quick
      (fun () ->
        with_journal (fun path ->
            ignore
              (runner ~seed:7L ~journal:path (scaler_sut ()) scaler_campaign);
            match Propane.Journal.load path with
            | Error msg -> Alcotest.fail msg
            | Ok journal ->
                Alcotest.(check (float 1e-9))
                  "estimate preserved" 0.75
                  (scale_cell (Propane.Journal.results journal))
                    .Propagation.Estimate.value));
    Alcotest.test_case "status parser rejects junk" `Quick (fun () ->
        List.iter
          (fun junk ->
            with_journal (fun path ->
                (match
                   Propane.Journal.create ~path ~sut:"s" ~campaign:"c"
                     ~seed:1L ~total:1 ()
                 with
                | Ok w -> Propane.Journal.close w
                | Error msg -> Alcotest.fail msg);
                let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
                Printf.fprintf oc "run2\t0\tt\tx\t10\tbitflip:3\t%s\t0\n" junk;
                close_out oc;
                match Propane.Journal.load path with
                | Error msg ->
                    Alcotest.(check bool)
                      (Printf.sprintf "%S is line-numbered" junk)
                      true
                      (contains_substring msg ":6:")
                | Ok _ -> Alcotest.failf "accepted %S" junk))
          [
            "";
            "done";
            "crashed";
            "crashed:x:r";
            "crashed:-1:r";
            "hung";
            "hung:x";
            "hung:-1";
            "completed:extra";
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Journal + resume: the checkpointed campaign engine.                  *)

let journal_tests =
  let temp () = Filename.temp_file "propane_journal" ".journal" in
  let with_temp f =
    let path = temp () in
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)
  in
  let outcome ?(divs = []) ?(status = Propane.Results.Completed) testcase
      target at_ms =
    {
      Propane.Results.testcase;
      injection =
        Propane.Injection.make ~target ~at:(Sim.Sim_time.of_ms at_ms)
          ~error:(Propane.Error_model.Bit_flip 3);
      divergences =
        List.map
          (fun (signal, first_ms) -> { Propane.Golden.signal; first_ms })
          divs;
      status;
    }
  in
  let ok = function
    | Ok v -> v
    | Error msg -> Alcotest.failf "unexpected journal error: %s" msg
  in
  let check_same_results msg a b =
    Alcotest.(check int)
      (msg ^ ": count") (Propane.Results.count a) (Propane.Results.count b);
    List.iter2
      (fun (x : Propane.Results.outcome) (y : Propane.Results.outcome) ->
        Alcotest.(check bool) (msg ^ ": outcome") true (compare x y = 0))
      (Propane.Results.outcomes a)
      (Propane.Results.outcomes b)
  in
  let append_fragment path fragment =
    let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
    output_string oc fragment;
    close_out oc
  in
  [
    Alcotest.test_case "outcomes round-trip through a journal" `Quick
      (fun () ->
        with_temp (fun path ->
            let w =
              ok
                (Propane.Journal.create ~path ~sut:"s" ~campaign:"c" ~seed:5L
                   ~total:3 ())
            in
            ok
              (Propane.Journal.append w ~index:0
                 (outcome ~divs:[ ("y", 12); ("z", 40) ] "t1" "x" 10));
            ok (Propane.Journal.append w ~index:2 (outcome "t2" "x" 20));
            Propane.Journal.close w;
            let j = ok (Propane.Journal.load path) in
            Alcotest.(check string) "sut" "s" j.Propane.Journal.sut;
            Alcotest.(check string) "campaign" "c" j.Propane.Journal.campaign;
            Alcotest.(check int64) "seed" 5L j.Propane.Journal.seed;
            Alcotest.(check int) "total" 3 j.Propane.Journal.total;
            (match j.Propane.Journal.entries with
            | [ (0, o0); (2, o2) ] ->
                Alcotest.(check bool)
                  "first" true
                  (compare o0 (outcome ~divs:[ ("y", 12); ("z", 40) ] "t1" "x" 10)
                  = 0);
                Alcotest.(check bool) "second" true (compare o2 (outcome "t2" "x" 20) = 0)
            | entries ->
                Alcotest.failf "expected entries 0 and 2, got %d"
                  (List.length entries));
            let results = Propane.Journal.results j in
            Alcotest.(check string) "results sut" "s" (Propane.Results.sut results);
            Alcotest.(check string)
              "results campaign" "c"
              (Propane.Results.campaign results);
            Alcotest.(check bool)
              "results outcomes" true
              (compare
                 (Propane.Results.outcomes results)
                 [
                   outcome ~divs:[ ("y", 12); ("z", 40) ] "t1" "x" 10;
                   outcome "t2" "x" 20;
                 ]
              = 0)));
    Alcotest.test_case "an uncommitted trailing record is dropped" `Quick
      (fun () ->
        with_temp (fun path ->
            let w =
              ok
                (Propane.Journal.create ~path ~sut:"s" ~campaign:"c" ~seed:5L
                   ~total:3 ())
            in
            ok (Propane.Journal.append w ~index:1 (outcome "t" "x" 10));
            Propane.Journal.close w;
            append_fragment path "run\t2\ttrunc";
            let j = ok (Propane.Journal.load path) in
            Alcotest.(check int)
              "committed records only" 1
              (List.length j.Propane.Journal.entries)));
    Alcotest.test_case "a malformed committed line is an error" `Quick
      (fun () ->
        with_temp (fun path ->
            let w =
              ok
                (Propane.Journal.create ~path ~sut:"s" ~campaign:"c" ~seed:5L
                   ~total:3 ())
            in
            Propane.Journal.close w;
            append_fragment path "run\tnonsense\n";
            match Propane.Journal.load path with
            | Error msg ->
                Alcotest.(check bool)
                  "line-numbered" true
                  (contains_substring msg ":6:")
            | Ok _ -> Alcotest.fail "accepted a malformed record"));
    Alcotest.test_case "bad magic is rejected" `Quick (fun () ->
        with_temp (fun path ->
            let oc = open_out path in
            output_string oc "not a journal\n";
            close_out oc;
            match Propane.Journal.load path with
            | Error msg ->
                Alcotest.(check bool)
                  "mentions magic" true
                  (contains_substring msg "bad magic");
                Alcotest.(check bool)
                  "mentions line" true
                  (contains_substring msg ":1:")
            | Ok _ -> Alcotest.fail "accepted garbage"));
    Alcotest.test_case "separator characters are refused" `Quick (fun () ->
        with_temp (fun path ->
            (match
               Propane.Journal.create ~path ~sut:"tab\there" ~campaign:"c"
                 ~seed:1L ~total:1 ()
             with
            | Error msg ->
                Alcotest.(check bool)
                  "mentions separator" true
                  (contains_substring msg "separator");
                Alcotest.(check int)
                  "nothing written" 0
                  (Unix.stat path).Unix.st_size
            | Ok _ -> Alcotest.fail "accepted a tab in the SUT name");
            let w =
              ok
                (Propane.Journal.create ~path ~sut:"s" ~campaign:"c" ~seed:1L
                   ~total:1 ())
            in
            (match Propane.Journal.append w ~index:0 (outcome "bad\ttc" "x" 1) with
            | Error _ -> ()
            | Ok () -> Alcotest.fail "accepted a tab in the testcase");
            Propane.Journal.close w));
    Alcotest.test_case "a killed campaign resumes to identical results"
      `Quick (fun () ->
        with_temp (fun path ->
            let baseline =
              runner ~seed:3L (scaler_sut ()) scaler_campaign
            in
            (* "Kill" the campaign by raising out of the event callback
               after 10 completed runs; the journal keeps the 10. *)
            (try
               ignore
                 (runner ~seed:3L ~journal:path
                    ~on_event:(fun ev ->
                      match ev with
                      | Propane.Runner.Run_done { completed; _ }
                        when completed = 10 ->
                          raise Exit
                      | _ -> ())
                    (scaler_sut ()) scaler_campaign)
             with Exit -> ());
            let j = ok (Propane.Journal.load path) in
            Alcotest.(check int)
              "journalled runs" 10
              (List.length j.Propane.Journal.entries);
            let skipped = ref (-1) in
            let resumed =
              runner ~seed:3L ~journal:path ~resume:true
                ~on_event:(fun ev ->
                  match ev with
                  | Propane.Runner.Started { skipped = s; _ } -> skipped := s
                  | _ -> ())
                (scaler_sut ()) scaler_campaign
            in
            Alcotest.(check int) "skipped" 10 !skipped;
            check_same_results "resumed" baseline resumed;
            let j = ok (Propane.Journal.load path) in
            Alcotest.(check int)
              "journal complete" (Propane.Campaign.size scaler_campaign)
              (List.length j.Propane.Journal.entries)));
    Alcotest.test_case "resuming a complete journal runs nothing" `Quick
      (fun () ->
        with_temp (fun path ->
            let baseline =
              runner ~seed:3L ~journal:path (scaler_sut ())
                scaler_campaign
            in
            let fresh_runs = ref 0 and goldens = ref (-1) in
            let resumed =
              runner ~seed:3L ~journal:path ~resume:true
                ~on_event:(fun ev ->
                  match ev with
                  | Propane.Runner.Run_done _ -> incr fresh_runs
                  | Propane.Runner.Goldens_done { testcases } ->
                      goldens := testcases
                  | _ -> ())
                (scaler_sut ()) scaler_campaign
            in
            Alcotest.(check int) "no fresh runs" 0 !fresh_runs;
            Alcotest.(check int) "no goldens" 0 !goldens;
            check_same_results "replayed" baseline resumed));
    Alcotest.test_case "parallel runs journal every outcome" `Quick (fun () ->
        with_temp (fun path ->
            let serial =
              runner ~seed:3L (scaler_sut ()) scaler_campaign
            in
            let parallel =
              runner ~seed:3L ~jobs:2 ~journal:path (scaler_sut ())
                scaler_campaign
            in
            check_same_results "parallel" serial parallel;
            let j = ok (Propane.Journal.load path) in
            Alcotest.(check int)
              "all journalled" (Propane.Campaign.size scaler_campaign)
              (List.length j.Propane.Journal.entries)));
    Alcotest.test_case "resume rejects a journal with another seed" `Quick
      (fun () ->
        with_temp (fun path ->
            ignore
              (runner ~seed:3L ~journal:path (scaler_sut ())
                 scaler_campaign);
            match
              runner ~seed:4L ~journal:path ~resume:true
                (scaler_sut ()) scaler_campaign
            with
            | exception Invalid_argument msg ->
                Alcotest.(check bool)
                  "mentions seed" true
                  (contains_substring msg "seed")
            | _ -> Alcotest.fail "accepted a mismatched seed"));
    Alcotest.test_case "failed outcomes round-trip, colons in reasons intact"
      `Quick (fun () ->
        with_temp (fun path ->
            let crashed =
              outcome ~divs:[ ("y", 12) ]
                ~status:
                  (Propane.Results.Crashed
                     { at_ms = 12; reason = "Failure(\"boom: nested: deep\")" })
                "t1" "x" 10
            in
            let hung =
              outcome
                ~status:(Propane.Results.Hung { budget_ms = 250 })
                "t2" "x" 20
            in
            let w =
              ok
                (Propane.Journal.create ~path ~sut:"s" ~campaign:"c" ~seed:1L
                   ~total:2 ())
            in
            ok (Propane.Journal.append w ~index:0 crashed);
            ok (Propane.Journal.append w ~index:1 hung);
            Propane.Journal.close w;
            let j = ok (Propane.Journal.load path) in
            (match j.Propane.Journal.entries with
            | [ (0, o0); (1, o1) ] ->
                Alcotest.(check bool)
                  "crash intact" true
                  (compare o0 crashed = 0);
                Alcotest.(check bool) "hang intact" true (compare o1 hung = 0)
            | e ->
                Alcotest.failf "expected 2 entries, got %d" (List.length e));
            let results = Propane.Journal.results j in
            Alcotest.(check int)
              "crashed" 1
              (Propane.Results.crashed_count results);
            Alcotest.(check int) "hung" 1 (Propane.Results.hung_count results)));
    Alcotest.test_case "v1 run records load with status Completed" `Quick
      (fun () ->
        with_temp (fun path ->
            let w =
              ok
                (Propane.Journal.create ~path ~sut:"s" ~campaign:"c" ~seed:1L
                   ~total:1 ())
            in
            Propane.Journal.close w;
            append_fragment path "run\t0\tt1\tx\t10\tbitflip:3\t1\ty\t12\n";
            let j = ok (Propane.Journal.load path) in
            match j.Propane.Journal.entries with
            | [ (0, o) ] ->
                Alcotest.(check bool)
                  "completed" true
                  (o.Propane.Results.status = Propane.Results.Completed);
                Alcotest.(check (option int))
                  "divergence kept" (Some 12)
                  (Propane.Results.divergence_of o "y")
            | _ -> Alcotest.fail "expected one v1 entry"));
    Alcotest.test_case "a retried index supersedes the earlier record" `Quick
      (fun () ->
        with_temp (fun path ->
            let w =
              ok
                (Propane.Journal.create ~path ~sut:"s" ~campaign:"c" ~seed:1L
                   ~total:2 ())
            in
            (* Index 1 lands first, as out-of-order parallel runs do. *)
            ok (Propane.Journal.append w ~index:1 (outcome "t1" "x" 20));
            ok
              (Propane.Journal.append w ~index:0
                 (outcome
                    ~status:
                      (Propane.Results.Crashed { at_ms = 12; reason = "boom" })
                    "t" "x" 10));
            let retry = outcome ~divs:[ ("y", 11) ] "t" "x" 10 in
            ok (Propane.Journal.append w ~index:0 retry);
            Propane.Journal.close w;
            let j = ok (Propane.Journal.load path) in
            Alcotest.(check int)
              "every record kept" 3
              (List.length j.Propane.Journal.entries);
            let table = Propane.Journal.completed j in
            Alcotest.(check int) "two completed indices" 2 (Hashtbl.length table);
            (match Hashtbl.find_opt table 0 with
            | Some o ->
                Alcotest.(check bool)
                  "the retry wins" true
                  (o.Propane.Results.status = Propane.Results.Completed);
                Alcotest.(check (option int))
                  "retry divergences win" (Some 11)
                  (Propane.Results.divergence_of o "y")
            | None -> Alcotest.fail "index 0 missing");
            Alcotest.(check bool)
              "results in index order, the retry winning" true
              (compare
                 (Propane.Results.outcomes (Propane.Journal.results j))
                 [ retry; outcome "t1" "x" 20 ]
              = 0)));
    Alcotest.test_case "a carriage return is refused" `Quick (fun () ->
        with_temp (fun path ->
            (match
               Propane.Journal.create ~path ~sut:"cr\rhere" ~campaign:"c"
                 ~seed:1L ~total:1 ()
             with
            | Error msg ->
                Alcotest.(check bool)
                  "mentions separator" true
                  (contains_substring msg "separator")
            | Ok _ -> Alcotest.fail "accepted a CR in the SUT name");
            let w =
              ok
                (Propane.Journal.create ~path ~sut:"s" ~campaign:"c" ~seed:1L
                   ~total:1 ())
            in
            (match
               Propane.Journal.append w ~index:0 (outcome "bad\rtc" "x" 1)
             with
            | Error _ -> ()
            | Ok () -> Alcotest.fail "accepted a CR in the testcase");
            Propane.Journal.close w));
  ]

(* ------------------------------------------------------------------ *)

let telemetry_tests =
  let feed clock events =
    let t = Propane.Telemetry.create ~now:(fun () -> !clock) () in
    List.iter
      (fun (at, ev) ->
        clock := at;
        Propane.Telemetry.observe t ev)
      events;
    t
  in
  [
    Alcotest.test_case "throughput covers the injection phase only" `Quick
      (fun () ->
        let clock = ref 0.0 in
        let t =
          feed clock
            [
              (0.0, Propane.Runner.Started { total = 20; skipped = 10; jobs = 2 });
              (5.0, Propane.Runner.Goldens_done { testcases = 1 });
              ( 6.0,
                Propane.Runner.Run_done
                  {
                    index = 10;
                    worker = 0;
                    completed = 11;
                    total = 20;
                    status = Propane.Results.Completed;
                    retries = 0;
                  } );
              ( 7.0,
                Propane.Runner.Run_done
                  {
                    index = 11;
                    worker = 1;
                    completed = 12;
                    total = 20;
                    status = Propane.Results.Completed;
                    retries = 0;
                  } );
            ]
        in
        clock := 7.0;
        let s = Propane.Telemetry.snapshot t in
        Alcotest.(check int) "completed" 12 s.Propane.Telemetry.completed;
        Alcotest.(check int) "skipped" 10 s.Propane.Telemetry.skipped;
        (* 2 fresh runs in the 2 s since Goldens_done: golden time and
           journal-replayed runs do not skew the rate. *)
        Alcotest.(check (float 1e-9)) "rate" 1.0 s.Propane.Telemetry.runs_per_sec;
        (match s.Propane.Telemetry.eta_s with
        | Some eta -> Alcotest.(check (float 1e-9)) "eta" 8.0 eta
        | None -> Alcotest.fail "expected an ETA");
        Alcotest.(check (array int)) "per-worker" [| 1; 1 |]
          s.Propane.Telemetry.per_worker);
    Alcotest.test_case "eta unknown before the first run" `Quick (fun () ->
        let clock = ref 0.0 in
        let t =
          feed clock
            [
              (0.0, Propane.Runner.Started { total = 5; skipped = 0; jobs = 1 });
              (1.0, Propane.Runner.Goldens_done { testcases = 1 });
            ]
        in
        let s = Propane.Telemetry.snapshot t in
        Alcotest.(check bool)
          "no eta" true
          (s.Propane.Telemetry.eta_s = None));
    Alcotest.test_case "elapsed freezes at Finished" `Quick (fun () ->
        let clock = ref 0.0 in
        let t =
          feed clock
            [
              (0.0, Propane.Runner.Started { total = 1; skipped = 0; jobs = 1 });
              (1.0, Propane.Runner.Goldens_done { testcases = 1 });
              ( 3.0,
                Propane.Runner.Run_done
                  {
                    index = 0;
                    worker = 0;
                    completed = 1;
                    total = 1;
                    status = Propane.Results.Completed;
                    retries = 0;
                  } );
              (3.0, Propane.Runner.Finished { completed = 1; total = 1 });
            ]
        in
        clock := 100.0;
        let s = Propane.Telemetry.snapshot t in
        Alcotest.(check (float 1e-9)) "elapsed" 2.0 s.Propane.Telemetry.elapsed_s;
        match s.Propane.Telemetry.eta_s with
        | Some eta -> Alcotest.(check (float 1e-9)) "eta done" 0.0 eta
        | None -> Alcotest.fail "expected eta 0");
    Alcotest.test_case "json summary carries every field" `Quick (fun () ->
        let clock = ref 0.0 in
        let t =
          feed clock
            [
              (0.0, Propane.Runner.Started { total = 2; skipped = 1; jobs = 2 });
              (0.0, Propane.Runner.Goldens_done { testcases = 1 });
              ( 2.0,
                Propane.Runner.Run_done
                  {
                    index = 1;
                    worker = 1;
                    completed = 2;
                    total = 2;
                    status = Propane.Results.Crashed { at_ms = 7; reason = "boom" };
                    retries = 1;
                  } );
              (2.0, Propane.Runner.Finished { completed = 2; total = 2 });
            ]
        in
        let json = Propane.Telemetry.to_json (Propane.Telemetry.snapshot t) in
        List.iter
          (fun needle ->
            Alcotest.(check bool) needle true (contains_substring json needle))
          [
            {|"total":2|};
            {|"completed":2|};
            {|"skipped":1|};
            {|"jobs":2|};
            {|"elapsed_s":2.000|};
            {|"runs_per_sec":0.5|};
            {|"eta_s":0.0|};
            {|"per_worker":[0,1]|};
            {|"crashed":1|};
            {|"hung":0|};
            {|"retried":1|};
          ]);
    Alcotest.test_case "a clock stepping backwards cannot corrupt telemetry"
      `Quick (fun () ->
        let clock = ref 10.0 in
        let t =
          feed clock
            [
              (10.0, Propane.Runner.Started { total = 4; skipped = 0; jobs = 1 });
              (11.0, Propane.Runner.Goldens_done { testcases = 1 });
              (* NTP slew: the wall clock jumps back mid-campaign. *)
              ( 2.0,
                Propane.Runner.Run_done
                  {
                    index = 0;
                    worker = 0;
                    completed = 1;
                    total = 4;
                    status = Propane.Results.Completed;
                    retries = 0;
                  } );
            ]
        in
        clock := 3.0;
        let s = Propane.Telemetry.snapshot t in
        Alcotest.(check bool)
          "elapsed non-negative" true
          (s.Propane.Telemetry.elapsed_s >= 0.0);
        (match s.Propane.Telemetry.eta_s with
        | Some eta ->
            Alcotest.(check bool) "eta non-negative" true (eta >= 0.0)
        | None -> ());
        (* Clock recovers: elapsed resumes from the clamped value. *)
        clock := 12.5;
        let s = Propane.Telemetry.snapshot t in
        Alcotest.(check (float 1e-9))
          "elapsed after recovery" 1.5 s.Propane.Telemetry.elapsed_s);
    Alcotest.test_case "workers are labelled by host and pid" `Quick
      (fun () ->
        let clock = ref 0.0 in
        let t =
          feed clock
            [
              (0.0, Propane.Runner.Started { total = 4; skipped = 0; jobs = 1 });
              (0.0, Propane.Runner.Goldens_done { testcases = 0 });
              ( 0.0,
                Propane.Runner.Worker_attached
                  { worker = 1; host = "node\"7"; pid = 4242 } );
              ( 1.0,
                Propane.Runner.Run_done
                  {
                    index = 0;
                    worker = 1;
                    completed = 1;
                    total = 4;
                    status = Propane.Results.Completed;
                    retries = 0;
                  } );
            ]
        in
        let s = Propane.Telemetry.snapshot t in
        Alcotest.(check (array string))
          "labels: local default, then attached host/pid"
          [| "domain-0"; "node\"7/4242" |]
          s.Propane.Telemetry.worker_labels;
        Alcotest.(check (array int))
          "per-worker grew with the attachment" [| 0; 1 |]
          s.Propane.Telemetry.per_worker;
        let json = Propane.Telemetry.to_json s in
        Alcotest.(check bool)
          "labels in json, escaped" true
          (contains_substring json
             {|"workers":["domain-0","node\"7/4242"]|}));
  ]

(* ------------------------------------------------------------------ *)
(* Live analysis: Estimator.Stream fed one run at a time and the
   ranking Live tracks must agree with the batch pipeline, and the
   stop-when rules must leave a resumable journal behind. *)

let live_tests =
  let with_temp f =
    let path = Filename.temp_file "propane_live" ".journal" in
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)
  in
  let check_same_results msg a b =
    Alcotest.(check int)
      (msg ^ ": count") (Propane.Results.count a) (Propane.Results.count b);
    List.iter2
      (fun (x : Propane.Results.outcome) (y : Propane.Results.outcome) ->
        Alcotest.(check bool) (msg ^ ": outcome") true (compare x y = 0))
      (Propane.Results.outcomes a)
      (Propane.Results.outcomes b)
  in
  let estimated results =
    match Propane.Estimator.estimate_all ~model:scale_model results with
    | Ok matrices -> matrices
    | Error msg -> Alcotest.failf "estimation failed: %s" msg
  in
  (* Eq. 1 counted directly, the oracle for the stream: of the runs
     injected into x, the errors are those that failed or whose y
     diverged between the first fire and 64 ms past the last (the
     default direct window). *)
  let eq1_matrices outcomes =
    let injected =
      List.filter
        (fun (o : Propane.Results.outcome) ->
          String.equal o.injection.Propane.Injection.target "x")
        outcomes
    in
    let error (o : Propane.Results.outcome) =
      Propane.Results.is_failed o.status
      ||
      match Propane.Results.divergence_of o "y" with
      | None -> false
      | Some at ->
          at >= Propane.Injection.first_fire_ms o.injection
          && at <= Propane.Injection.last_fire_ms o.injection + 64
    in
    Propagation.String_map.singleton "SCALE"
      (Propagation.Perm_matrix.of_estimates
         [|
           [|
             Propagation.Estimate.of_counts
               ~errors:(List.length (List.filter error injected))
               ~trials:(List.length injected);
           |];
         |])
  in
  let check_same_matrices msg a b =
    Propagation.String_map.iter
      (fun name am ->
        match Propagation.String_map.find_opt name b with
        | Some bm ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s estimates" msg name)
              true
              (Propagation.Perm_matrix.equal_estimates ~eps:0.0 am bm)
        | None -> Alcotest.failf "%s: %s missing" msg name)
      a;
    Alcotest.(check int)
      (msg ^ ": module count")
      (Propagation.String_map.cardinal a)
      (Propagation.String_map.cardinal b)
  in
  let stream_of results =
    let stream = Propane.Estimator.Stream.create ~model:scale_model () in
    List.iter
      (Propane.Estimator.Stream.observe stream)
      (Propane.Results.outcomes results);
    stream
  in
  [
    Alcotest.test_case "stream counts equal batch estimation" `Quick (fun () ->
        let results =
          runner ~seed:7L (scaler_sut ()) scaler_campaign
        in
        let stream = stream_of results in
        Alcotest.(check int)
          "runs observed"
          (Propane.Results.count results)
          (Propane.Estimator.Stream.runs_observed stream);
        check_same_matrices "stream vs Eq. 1"
          (eq1_matrices (Propane.Results.outcomes results))
          (Propane.Estimator.Stream.matrices stream));
    Alcotest.test_case "stream is order-independent" `Quick (fun () ->
        let results =
          runner ~seed:7L (scaler_sut ()) scaler_campaign
        in
        let reversed =
          Propane.Estimator.Stream.create ~model:scale_model ()
        in
        List.iter
          (Propane.Estimator.Stream.observe reversed)
          (List.rev (Propane.Results.outcomes results));
        check_same_matrices "reversed vs forward"
          (Propane.Estimator.Stream.matrices (stream_of results))
          (Propane.Estimator.Stream.matrices reversed));
    Alcotest.test_case "drain_dirty reports a changed module exactly once"
      `Quick (fun () ->
        let results =
          runner ~seed:7L (scaler_sut ()) scaler_campaign
        in
        let stream = stream_of results in
        (match Propane.Estimator.Stream.drain_dirty stream with
        | [ ("SCALE", _) ] -> ()
        | other -> Alcotest.failf "expected [SCALE], got %d" (List.length other));
        Alcotest.(check int)
          "drained" 0
          (List.length (Propane.Estimator.Stream.drain_dirty stream)));
    (* The reference is what live analysis used to do after every
       outcome: a full Analysis.run over the stream's matrices, ranked
       through its module rows. *)
    (let fig2_model = Dataflow.Builder.model Dataflow.Fig2_system.system in
     let fig2 =
       Dataflow.Fig2_system.campaign
         ~times:(List.map Simkernel.Sim_time.of_ms [ 100; 300 ])
         ()
     in
     let outcomes =
       lazy
         (Array.of_list
            (Propane.Results.outcomes
               (runner ~seed:3L Dataflow.Fig2_system.sut fig2)))
     in
     let targets = fig2.Propane.Campaign.targets in
     let reference outcomes =
       let stream = Propane.Estimator.Stream.create ~model:fig2_model () in
       let last = ref None and stable = ref 0 and seen = ref [] in
       List.map
         (fun (outcome : Propane.Results.outcome) ->
           seen := outcome.injection.Propane.Injection.target :: !seen;
           Propane.Estimator.Stream.observe stream outcome;
           let analysis =
             Propagation.Analysis.run_exn fig2_model
               (Propane.Estimator.Stream.matrices stream)
           in
           let rows = analysis.Propagation.Analysis.module_rows in
           let order =
             List.map
               (fun (r : Propagation.Ranking.module_row) -> r.module_name)
               (Propagation.Ranking.sort_module_rows
                  Propagation.Ranking.By_relative_permeability rows)
           in
           (stable :=
              match !last with
              | Some prev
                when prev = order
                     && List.for_all (fun t -> List.mem t !seen) targets ->
                  !stable + 1
              | _ -> 0);
           last := Some order;
           {
             Propane.Live.runs_observed =
               Propane.Estimator.Stream.runs_observed stream;
             max_ci_width = Propane.Estimator.Stream.max_width ~targets stream;
             stable_for = !stable;
             resolved_modules =
               List.length
                 (List.filter
                    (fun (r : Propagation.Ranking.module_row) -> r.resolved)
                    rows);
             module_count = List.length rows;
           })
         outcomes
     in
     let first_stop n digests =
       let rec go i = function
         | [] -> None
         | (d : Propane.Live.digest) :: rest ->
             if d.stable_for >= n then Some i else go (i + 1) rest
       in
       go 0 digests
     in
     let gen =
       QCheck2.Gen.(triple int (float_bound_inclusive 1.0) (int_range 1 40))
     in
     QCheck_alcotest.to_alcotest
       (QCheck2.Test.make ~count:15
          ~name:"live digests equal a full analysis after every outcome" gen
          (fun (seed, share, n) ->
            let all = Array.copy (Lazy.force outcomes) in
            let rng = Random.State.make [| seed |] in
            for i = Array.length all - 1 downto 1 do
              let j = Random.State.int rng (i + 1) in
              let x = all.(i) in
              all.(i) <- all.(j);
              all.(j) <- x
            done;
            let prefix =
              Array.to_list
                (Array.sub all 0
                   (int_of_float (share *. float_of_int (Array.length all))))
            in
            let live = Propane.Live.create ~model:fig2_model ~targets () in
            let stops = ref None in
            let digests =
              List.mapi
                (fun i outcome ->
                  let d = Propane.Live.observe live outcome in
                  if
                    !stops = None
                    && Propane.Live.satisfied live (`Rankings_stable n)
                  then stops := Some i;
                  d)
                prefix
            in
            let expected = reference prefix in
            digests = expected
            && !stops = first_stop n expected
            &&
            match List.rev expected with
            | [] -> true
            | last :: _ -> Propane.Live.digest live = last)));
    Alcotest.test_case "live analysis digest tracks the campaign" `Quick
      (fun () ->
        let live =
          Propane.Live.create ~model:scale_model
            ~targets:scaler_campaign.Propane.Campaign.targets ()
        in
        let results =
          runner ~seed:7L ~live (scaler_sut ()) scaler_campaign
        in
        let digest = Propane.Live.digest live in
        Alcotest.(check int)
          "all runs observed"
          (Propane.Results.count results)
          digest.Propane.Live.runs_observed;
        Alcotest.(check bool)
          "interval narrowed" true
          (digest.Propane.Live.max_ci_width < 0.5);
        Alcotest.(check int) "one module" 1 digest.Propane.Live.module_count;
        match Propane.Live.snapshot live with
        | Ok analysis ->
            let batch =
              Propagation.Analysis.run_exn scale_model (estimated results)
            in
            Alcotest.(check string)
              "live snapshot equals batch"
              (Fmt.str "%a" Propagation.Analysis.pp_summary batch)
              (Fmt.str "%a" Propagation.Analysis.pp_summary analysis)
        | Error msg -> Alcotest.failf "snapshot failed: %s" msg);
    Alcotest.test_case "stop_when without live is rejected" `Quick (fun () ->
        match
          runner
            ~stop_when:(`Rankings_stable 3)
            (scaler_sut ()) scaler_campaign
        with
        | exception Invalid_argument msg ->
            Alcotest.(check bool)
              "mentions live" true
              (contains_substring msg "live")
        | _ -> Alcotest.fail "accepted stop_when without live");
    Alcotest.test_case "rankings-stable stops the serial runner early" `Quick
      (fun () ->
        let run () =
          let live =
            Propane.Live.create ~model:scale_model
              ~targets:scaler_campaign.Propane.Campaign.targets ()
          in
          runner ~seed:7L ~live ~stop_when:(`Rankings_stable 5)
            (scaler_sut ()) scaler_campaign
        in
        let first = run () in
        Alcotest.(check bool)
          "stopped early" true
          (Propane.Results.count first < Propane.Campaign.size scaler_campaign);
        Alcotest.(check bool)
          "saw some runs" true
          (Propane.Results.count first >= 5);
        (* The serial stop point is deterministic: same seed, same rule,
           same prefix of the campaign. *)
        check_same_results "deterministic" first (run ()));
    Alcotest.test_case "rankings-stable waits for every target's outcome"
      `Quick (fun () ->
        (* y feeds no module, so its 80 runs leave the ranking as it
           was; the stop may come only after x's first run. *)
        let campaign =
          Propane.Campaign.make ~name:"scaler" ~targets:[ "y"; "x" ]
            ~testcases:scaler_campaign.Propane.Campaign.testcases
            ~times:scaler_campaign.Propane.Campaign.times
            ~errors:scaler_campaign.Propane.Campaign.errors
        in
        let live =
          Propane.Live.create ~model:scale_model
            ~targets:campaign.Propane.Campaign.targets ()
        in
        let results =
          runner ~seed:7L ~live ~stop_when:(`Rankings_stable 3)
            (scaler_sut ()) campaign
        in
        let injected target =
          List.exists
            (fun (o : Propane.Results.outcome) ->
              o.injection.Propane.Injection.target = target)
            (Propane.Results.outcomes results)
        in
        Alcotest.(check bool)
          "stopped early" true
          (Propane.Results.count results < Propane.Campaign.size campaign);
        Alcotest.(check (list bool))
          "both targets have outcomes" [ true; true ]
          [ injected "y"; injected "x" ]);
    Alcotest.test_case "ci-width rule stops once the interval is tight" `Quick
      (fun () ->
        let live =
          Propane.Live.create ~model:scale_model
            ~targets:scaler_campaign.Propane.Campaign.targets ()
        in
        let results =
          runner ~seed:7L ~live ~stop_when:(`Ci_width 0.45)
            (scaler_sut ()) scaler_campaign
        in
        Alcotest.(check bool)
          "stopped early" true
          (Propane.Results.count results
          < Propane.Campaign.size scaler_campaign);
        let digest = Propane.Live.digest live in
        Alcotest.(check bool)
          "rule satisfied" true
          (digest.Propane.Live.max_ci_width <= 0.45));
    Alcotest.test_case "early-stopped journal resumes to the full campaign"
      `Quick (fun () ->
        with_temp (fun path ->
            let live =
              Propane.Live.create ~model:scale_model
                ~targets:scaler_campaign.Propane.Campaign.targets ()
            in
            let stopped =
              runner ~seed:7L ~journal:path ~live
                ~stop_when:(`Rankings_stable 5)
                (scaler_sut ()) scaler_campaign
            in
            Alcotest.(check bool)
              "stopped early" true
              (Propane.Results.count stopped
              < Propane.Campaign.size scaler_campaign);
            let resumed =
              runner ~seed:7L ~journal:path ~resume:true
                (scaler_sut ()) scaler_campaign
            in
            let baseline =
              runner ~seed:7L (scaler_sut ()) scaler_campaign
            in
            check_same_results "resumed equals uninterrupted" baseline resumed));
    Alcotest.test_case "resuming feeds journalled runs back into the analysis"
      `Quick (fun () ->
        with_temp (fun path ->
            let mk_live () =
              Propane.Live.create ~model:scale_model
                ~targets:scaler_campaign.Propane.Campaign.targets ()
            in
            let live = mk_live () in
            let stopped =
              runner ~seed:7L ~journal:path ~live
                ~stop_when:(`Rankings_stable 5)
                (scaler_sut ()) scaler_campaign
            in
            (* A fresh Live attached to a resume run must replay the
               journalled prefix before executing anything, so its run
               count picks up where the first left off. *)
            let live2 = mk_live () in
            let resumed =
              runner ~seed:7L ~journal:path ~resume:true
                ~live:live2 (scaler_sut ()) scaler_campaign
            in
            let digest = Propane.Live.digest live2 in
            Alcotest.(check int)
              "observed everything"
              (Propane.Results.count resumed)
              digest.Propane.Live.runs_observed;
            Alcotest.(check bool)
              "resumed past the stop point" true
              (Propane.Results.count resumed > Propane.Results.count stopped)));
    Alcotest.test_case "parallel runner with live analysis matches serial"
      `Quick (fun () ->
        let serial =
          runner ~seed:9L (scaler_sut ()) scaler_campaign
        in
        let live =
          Propane.Live.create ~model:scale_model
            ~targets:scaler_campaign.Propane.Campaign.targets ()
        in
        (* A rule that can never fire: the analysis rides along without
           perturbing the schedule or the results. *)
        let parallel =
          runner ~seed:9L ~jobs:3 ~live
            ~stop_when:(`Rankings_stable 1_000_000)
            (scaler_sut ()) scaler_campaign
        in
        check_same_results "parallel+live" serial parallel;
        Alcotest.(check int)
          "observed all runs"
          (Propane.Results.count parallel)
          (Propane.Live.digest live).Propane.Live.runs_observed);
    Alcotest.test_case "parallel stop-when journals a resumable prefix" `Quick
      (fun () ->
        (* An unthrottled scaler run lasts microseconds, so three
           workers can drain the whole campaign before the coordinator
           observes enough runs to fire the rule (the stop point in
           parallel mode depends on scheduling, by design).  Slow each
           step down so the adaptive stop demonstrably acts. *)
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
        in
        with_temp (fun path ->
            let live =
              Propane.Live.create ~model:scale_model
                ~targets:scaler_campaign.Propane.Campaign.targets ()
            in
            let stopped =
              runner ~seed:7L ~jobs:3 ~journal:path ~live
                ~stop_when:(`Rankings_stable 5)
                (slow_scaler_sut ()) scaler_campaign
            in
            if
              Propane.Results.count stopped
              >= Propane.Campaign.size scaler_campaign
            then
              Alcotest.failf "did not stop early: %d of %d"
                (Propane.Results.count stopped)
                (Propane.Campaign.size scaler_campaign);
            (* The prefix resumes with the plain (fast) scaler: journal
               compatibility only depends on sut/campaign names. *)
            let resumed =
              runner ~seed:7L ~journal:path ~resume:true
                (scaler_sut ()) scaler_campaign
            in
            let baseline =
              runner ~seed:7L (scaler_sut ()) scaler_campaign
            in
            check_same_results "resumed equals uninterrupted" baseline resumed));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"stream equals batch on any prefix of the campaign" ~count:20
         QCheck2.Gen.(int_range 1 80)
         (fun prefix ->
           let results =
             runner ~seed:7L (scaler_sut ()) scaler_campaign
           in
           let partial =
             List.filteri
               (fun i _ -> i < prefix)
               (Propane.Results.outcomes results)
           in
           let stream =
             Propane.Estimator.Stream.create ~model:scale_model ()
           in
           List.iter (Propane.Estimator.Stream.observe stream) partial;
           Propagation.String_map.equal
             (Propagation.Perm_matrix.equal_estimates ~eps:0.0)
             (eq1_matrices partial)
             (Propane.Estimator.Stream.matrices stream)));
  ]

(* ------------------------------------------------------------------ *)
(* Severity on the scaler SUT: y = x >> 4; mission "fails" when the
   final y is off by more than 1000. *)

let severity_tests =
  let mission_failed ~golden ~run =
    let final traces =
      Propane.Trace_set.get traces "y" (Propane.Trace_set.duration_ms traces - 1)
    in
    abs (final golden - final run) > 1_000
  in
  [
    Alcotest.test_case "verdict bins partition the runs" `Quick (fun () ->
        let reports =
          Propane.Severity.assess ~outputs:[ "y" ] ~mission_failed
            (scaler_sut ()) scaler_campaign
        in
        match reports with
        | [ r ] ->
            Alcotest.(check string) "target" "x" r.Propane.Severity.target;
            Alcotest.(check int) "runs" 80 r.Propane.Severity.runs;
            Alcotest.(check int)
              "partition" 80
              (List.fold_left
                 (fun acc v -> acc + Propane.Severity.count r v)
                 0 Propane.Severity.verdicts)
        | _ -> Alcotest.fail "expected one report");
    Alcotest.test_case "masked flips land in no-effect" `Quick (fun () ->
        (* x is rewritten by the stimulus every ms but the trap fires
           at y's read, so the 4 low bits are the only masked ones. *)
        let reports =
          Propane.Severity.assess ~outputs:[ "y" ] ~mission_failed
            (scaler_sut ()) scaler_campaign
        in
        match reports with
        | [ r ] ->
            (* 4 of 16 bits never reach y: x diverges but y does not,
               so they are internal-only, never no-effect (the injected
               trace itself diverges). *)
            Alcotest.(check int) "no effect" 0 r.Propane.Severity.no_effect;
            Alcotest.(check int)
              "internal only" 20 r.Propane.Severity.internal_only
        | _ -> Alcotest.fail "expected one report");
    Alcotest.test_case "high-bit flips fail the mission" `Quick (fun () ->
        let reports =
          Propane.Severity.assess ~outputs:[ "y" ] ~mission_failed
            (scaler_sut ()) scaler_campaign
        in
        match reports with
        | [ r ] ->
            (* flips of x bits 14-15 shift y by >= 1024 permanently?  y
               follows x afresh each ms, so only the injected sample is
               wrong: the final y is clean and nothing fails the
               mission. *)
            Alcotest.(check int)
              "mission failures" 0 r.Propane.Severity.mission_failure
        | _ -> Alcotest.fail "expected one report");
    Alcotest.test_case "crashing runs land in mission failure" `Quick (fun () ->
        let sut = Propane.Fault.wrap ~crash_after_ms:0 (scaler_sut ()) in
        let reports =
          Propane.Severity.assess ~outputs:[ "y" ] ~mission_failed sut
            scaler_campaign
        in
        match reports with
        | [ r ] ->
            Alcotest.(check int) "runs" 80 r.Propane.Severity.runs;
            Alcotest.(check int)
              "all mission failures" 80 r.Propane.Severity.mission_failure
        | _ -> Alcotest.fail "expected one report");
  ]

(* ------------------------------------------------------------------ *)
(* Fault tolerance: crashing and hanging SUTs as first-class outcomes. *)

let fault_tests =
  let crashing ?only_testcase ?(after = 0) () =
    Propane.Fault.wrap ?only_testcase ~crash_after_ms:after (scaler_sut ())
  in
  let tiny_campaign ~bit =
    Propane.Campaign.make ~name:"tiny" ~targets:[ "x" ]
      ~testcases:[ Propane.Testcase.make ~id:"ramp" ~params:[] ]
      ~times:[ Sim.Sim_time.of_ms 10 ]
      ~errors:[ Propane.Error_model.Bit_flip bit ]
  in
  let check_same_results msg a b =
    Alcotest.(check int)
      (msg ^ ": count") (Propane.Results.count a) (Propane.Results.count b);
    List.iter2
      (fun (x : Propane.Results.outcome) (y : Propane.Results.outcome) ->
        Alcotest.(check bool) (msg ^ ": outcome") true (compare x y = 0))
      (Propane.Results.outcomes a)
      (Propane.Results.outcomes b)
  in
  [
    Alcotest.test_case "a crashing SUT yields Crashed outcomes, not an abort"
      `Quick (fun () ->
        let results =
          runner ~seed:3L (crashing ()) scaler_campaign
        in
        let size = Propane.Campaign.size scaler_campaign in
        Alcotest.(check int)
          "campaign completed" size (Propane.Results.count results);
        Alcotest.(check int)
          "all crashed" size
          (Propane.Results.crashed_count results);
        List.iter
          (fun (o : Propane.Results.outcome) ->
            let inject_at =
              Sim.Sim_time.to_ms o.injection.Propane.Injection.at
            in
            match o.status with
            | Propane.Results.Crashed { at_ms; reason } ->
                Alcotest.(check int) "at the injection" inject_at at_ms;
                Alcotest.(check bool)
                  "reason rendered" true
                  (contains_substring reason "simulated crash");
                (* Nothing was sampled before the crash, so the tail
                   rule marks both signals diverged at the crash
                   instant. *)
                Alcotest.(check (option int))
                  "x diverged" (Some inject_at)
                  (Propane.Results.divergence_of o "x");
                Alcotest.(check (option int))
                  "y diverged" (Some inject_at)
                  (Propane.Results.divergence_of o "y")
            | s ->
                Alcotest.failf "expected Crashed, got %s"
                  (Fmt.str "%a" Propane.Results.pp_status s))
          (Propane.Results.outcomes results));
    Alcotest.test_case "a late crash keeps the divergences it saw" `Quick
      (fun () ->
        let sut = crashing ~after:5 () in
        let tc = Propane.Testcase.make ~id:"t" ~params:[] in
        let golden = Propane.Runner.golden_run sut tc in
        let injection =
          (* A low bit: x diverges at the injection but y never follows,
             so y's divergence can only come from the crash cutting the
             run short. *)
          Propane.Injection.make ~target:"x" ~at:(Sim.Sim_time.of_ms 10)
            ~error:(Propane.Error_model.Bit_flip 2)
        in
        let outcome =
          Propane.Runner.run_experiment sut
            ~golden:(Propane.Golden.freeze golden) tc injection
        in
        (match outcome.Propane.Results.status with
        | Propane.Results.Crashed { at_ms; _ } ->
            Alcotest.(check int) "five ms after the injection" 15 at_ms
        | s ->
            Alcotest.failf "expected Crashed, got %s"
              (Fmt.str "%a" Propane.Results.pp_status s));
        Alcotest.(check (option int))
          "x diverged at the injection" (Some 10)
          (Propane.Results.divergence_of outcome "x");
        Alcotest.(check (option int))
          "y diverged at the crash" (Some 15)
          (Propane.Results.divergence_of outcome "y"));
    Alcotest.test_case "a hanging run is cut off and carries no divergences"
      `Quick (fun () ->
        let sut =
          Propane.Fault.wrap ~hang_after_ms:0 ~hang_step_wall_ms:40
            (scaler_sut ())
        in
        let tc = Propane.Testcase.make ~id:"t" ~params:[] in
        let golden = Propane.Runner.golden_run sut tc in
        let injection =
          (* A low bit again: without saturation only the watchdog can
             end the run. *)
          Propane.Injection.make ~target:"x" ~at:(Sim.Sim_time.of_ms 10)
            ~error:(Propane.Error_model.Bit_flip 2)
        in
        let outcome =
          Propane.Runner.run_experiment ~run_timeout_ms:60 sut
            ~golden:(Propane.Golden.freeze golden) tc injection
        in
        (match outcome.Propane.Results.status with
        | Propane.Results.Hung { budget_ms } ->
            Alcotest.(check int) "budget" 60 budget_ms
        | s ->
            Alcotest.failf "expected Hung, got %s"
              (Fmt.str "%a" Propane.Results.pp_status s));
        Alcotest.(check int)
          "divergences discarded" 0
          (List.length outcome.Propane.Results.divergences));
    Alcotest.test_case "a hung campaign run is counted, not fatal" `Quick
      (fun () ->
        let sut =
          Propane.Fault.wrap ~hang_after_ms:0 ~hang_step_wall_ms:40
            (scaler_sut ())
        in
        let hung_events = ref 0 in
        let results =
          runner ~seed:3L ~run_timeout_ms:60
            ~on_event:(function
              | Propane.Runner.Run_done { status = Propane.Results.Hung _; _ }
                ->
                  incr hung_events
              | _ -> ())
            sut (tiny_campaign ~bit:2)
        in
        Alcotest.(check int)
          "hung count" 1
          (Propane.Results.hung_count results);
        Alcotest.(check int) "hung event" 1 !hung_events);
    Alcotest.test_case "a transient crash is healed by a retry" `Quick
      (fun () ->
        let base = scaler_sut () in
        let injected_instances = ref 0 in
        let flaky =
          {
            base with
            Propane.Sut.instantiate =
              (fun tc ->
                let inner = base.Propane.Sut.instantiate tc in
                let armed = ref false in
                let inject name f =
                  if not !armed then begin
                    armed := true;
                    incr injected_instances
                  end;
                  inner.Propane.Sut.inject name f
                in
                let step () =
                  (* Only the first injected instance misbehaves: the
                     retry (a fresh instance) runs clean. *)
                  if !armed && !injected_instances = 1 then
                    failwith "transient fault"
                  else inner.Propane.Sut.step ()
                in
                { inner with Propane.Sut.step; inject });
          }
        in
        let seen = ref [] in
        let results =
          runner ~seed:3L ~retries:3
            ~on_event:(function
              | Propane.Runner.Run_done { status; retries; _ } ->
                  seen := (status, retries) :: !seen
              | _ -> ())
            flaky (tiny_campaign ~bit:15)
        in
        Alcotest.(check int)
          "no failures kept" 0
          (Propane.Results.failed_count results);
        match !seen with
        | [ (Propane.Results.Completed, 1) ] -> ()
        | _ -> Alcotest.fail "expected one completed run after one retry");
    Alcotest.test_case "deterministic crashes exhaust the retry budget" `Quick
      (fun () ->
        let total_retries = ref 0 and failed_runs = ref 0 in
        let results =
          runner ~seed:3L ~retries:2
            ~on_event:(function
              | Propane.Runner.Run_done { status; retries; _ } ->
                  total_retries := !total_retries + retries;
                  if Propane.Results.is_failed status then incr failed_runs
              | _ -> ())
            (crashing ()) scaler_campaign
        in
        let size = Propane.Campaign.size scaler_campaign in
        Alcotest.(check int)
          "every run retried twice" (2 * size) !total_retries;
        Alcotest.(check int) "every run still failed" size !failed_runs;
        Alcotest.(check int)
          "crashed in results" size
          (Propane.Results.crashed_count results));
    Alcotest.test_case "the chaos wrapper can target one testcase" `Quick
      (fun () ->
        let sut = crashing ~only_testcase:"other" () in
        let results = runner ~seed:3L sut scaler_campaign in
        Alcotest.(check int)
          "nothing crashed" 0
          (Propane.Results.failed_count results));
    Alcotest.test_case "fail-fast aborts after journalling the failed run"
      `Quick (fun () ->
        let path = Filename.temp_file "propane_fault" ".journal" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            (match
               runner ~seed:3L ~journal:path ~fail_fast:true
                 (crashing ()) scaler_campaign
             with
            | exception Propane.Runner.Failed_run { index; outcome } ->
                Alcotest.(check int) "first experiment" 0 index;
                Alcotest.(check bool)
                  "failed status" true
                  (Propane.Results.is_failed outcome.Propane.Results.status)
            | _ -> Alcotest.fail "expected Failed_run");
            match Propane.Journal.load path with
            | Error msg -> Alcotest.failf "journal: %s" msg
            | Ok j -> (
                match j.Propane.Journal.entries with
                | [ (0, o) ] ->
                    Alcotest.(check bool)
                      "journalled as failed" true
                      (Propane.Results.is_failed o.Propane.Results.status)
                | e ->
                    Alcotest.failf "expected one journalled run, got %d"
                      (List.length e))));
    Alcotest.test_case
      "parallel fail-fast stops promptly and resumes identically" `Quick
      (fun () ->
        let path = Filename.temp_file "propane_fault" ".journal" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let baseline =
              runner ~seed:3L (crashing ()) scaler_campaign
            in
            (match
               runner ~seed:3L ~jobs:4 ~journal:path
                 ~fail_fast:true (crashing ()) scaler_campaign
             with
            | exception Propane.Runner.Failed_run _ -> ()
            | _ -> Alcotest.fail "expected Failed_run");
            let j =
              match Propane.Journal.load path with
              | Ok j -> j
              | Error msg -> Alcotest.failf "journal: %s" msg
            in
            let journalled = List.length j.Propane.Journal.entries in
            (* The poisoned cursor stops workers from taking new runs:
               at most the runs already in flight (one per worker) get
               journalled. *)
            Alcotest.(check bool)
              "aborted promptly" true
              (journalled >= 1 && journalled <= 4);
            let resumed =
              runner ~seed:3L ~journal:path ~resume:true
                (crashing ()) scaler_campaign
            in
            check_same_results "resumed" baseline resumed));
    Alcotest.test_case
      "fail-fast journals every reported run, serial and parallel" `Quick
      (fun () ->
        let baseline = runner ~seed:3L (crashing ()) scaler_campaign in
        List.iter
          (fun jobs ->
            let path = Filename.temp_file "propane_fault" ".journal" in
            Fun.protect
              ~finally:(fun () -> Sys.remove path)
              (fun () ->
                let reported = ref [] in
                (match
                   runner ~seed:3L ~jobs ~journal:path ~fail_fast:true
                     ~on_event:(function
                       | Propane.Runner.Run_done { index; _ } ->
                           reported := index :: !reported
                       | _ -> ())
                     (crashing ()) scaler_campaign
                 with
                | exception Propane.Runner.Failed_run _ -> ()
                | _ -> Alcotest.fail "expected Failed_run");
                let journalled =
                  match Propane.Journal.load path with
                  | Ok j -> List.map fst j.Propane.Journal.entries
                  | Error msg -> Alcotest.failf "journal: %s" msg
                in
                List.iter
                  (fun index ->
                    if not (List.mem index journalled) then
                      Alcotest.failf "jobs %d: run %d reported, not journalled"
                        jobs index)
                  !reported;
                let resumed =
                  runner ~seed:3L ~jobs ~journal:path ~resume:true
                    (crashing ()) scaler_campaign
                in
                check_same_results
                  (Printf.sprintf "jobs %d resumed" jobs)
                  baseline resumed))
          [ 1; 3 ]);
    Alcotest.test_case
      "a fail-fast session journals runs parked beyond the failure" `Quick
      (fun () ->
        (* The session driven as a two-worker coordinator drives it:
           worker A holds runs 0-3 and worker B runs 4-5.  B's run 5
           lands first and parks (the cursor waits on 0), then A's run 0
           crashes.  Run 5 is finished work and must reach the
           journal. *)
        let module S = Propane.Runner.Session in
        let path = Filename.temp_file "propane_fault" ".journal" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let config =
              Propane.Runner.Config.make ~seed:3L ~journal:path
                ~fail_fast:true ()
            in
            let s =
              S.create ~config ~sut:"scaler" ~campaign:"scaler"
                ~total:(Propane.Campaign.size scaler_campaign)
                ()
            in
            Alcotest.(check (list int))
              "worker A" [ 0; 1; 2; 3 ]
              (S.take s ~batch_max:4 ~workers:1);
            Alcotest.(check (list int))
              "worker B" [ 4; 5 ]
              (S.take s ~batch_max:2 ~workers:1);
            let outcome sut index =
              fst (Propane.Runner.executor ~seed:3L sut scaler_campaign index)
            in
            S.record s ~index:5 ~worker:1 ~retries:0
              (outcome (scaler_sut ()) 5);
            S.record s ~index:0 ~worker:0 ~retries:0
              (outcome (crashing ()) 0);
            (match S.finish s with
            | exception Propane.Runner.Failed_run { index = 0; _ } -> ()
            | _ -> Alcotest.fail "expected Failed_run for run 0");
            match Propane.Journal.load path with
            | Ok j ->
                Alcotest.(check (list int))
                  "journalled" [ 0; 5 ]
                  (List.sort compare (List.map fst j.Propane.Journal.entries))
            | Error msg -> Alcotest.failf "journal: %s" msg));
    Alcotest.test_case
      "an exception escaping a worker domain is re-raised after the drain"
      `Quick (fun () ->
        (* A target the SUT lacks makes every run raise outside the
           per-run crash barrier. *)
        let campaign =
          Propane.Campaign.make ~name:"bad" ~targets:[ "zz" ]
            ~testcases:[ Propane.Testcase.make ~id:"ramp" ~params:[] ]
            ~times:(List.map Sim.Sim_time.of_ms [ 10; 20; 30; 40; 50 ])
            ~errors:[ Propane.Error_model.Bit_flip 0 ]
        in
        let path = Filename.temp_file "propane_fault" ".journal" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            (match
               runner ~seed:3L ~jobs:3 ~journal:path (scaler_sut ()) campaign
             with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "expected Invalid_argument");
            match Propane.Journal.load path with
            | Ok j ->
                Alcotest.(check int)
                  "nothing journalled" 0
                  (List.length j.Propane.Journal.entries)
            | Error msg -> Alcotest.failf "journal: %s" msg));
  ]

(* ------------------------------------------------------------------ *)
(* Runner.Config: the packaged campaign options, their wire codec and
   the deprecated flat-argument wrapper.                               *)

let config_tests =
  let module C = Propane.Runner.Config in
  let roundtrip name c =
    Alcotest.test_case name `Quick (fun () ->
        match C.decode (C.encode c) with
        | Ok c' -> Alcotest.(check bool) "round-trips" true (c = c')
        | Error msg -> Alcotest.failf "decode failed: %s" msg)
  in
  [
    roundtrip "encode/decode round-trips the default" C.default;
    roundtrip "encode/decode round-trips a fully customised config"
      (C.make ~max_ms:123 ~seed:99L ~truncate_after_ms:7 ~run_timeout_ms:44
         ~retries:3 ~fail_fast:true ~jobs:5 ~journal_batch:17
         ~stop_when:(`Rankings_stable 9) ());
    roundtrip "ci-width stop rules survive the codec bit-exactly"
      (C.make ~stop_when:(`Ci_width 0.12345678901234567) ());
    Alcotest.test_case "journal and resume stay host-local" `Quick (fun () ->
        (* The codec ships configs to worker processes on other
           machines; a coordinator-side journal path must not travel. *)
        let c = C.make ~journal:"/tmp/x.journal" ~resume:true ~jobs:2 () in
        match C.decode (C.encode c) with
        | Error msg -> Alcotest.failf "decode failed: %s" msg
        | Ok c' ->
            Alcotest.(check bool)
              "journal dropped" true
              (c'.C.journal = None && not c'.C.resume);
            Alcotest.(check int) "jobs kept" 2 c'.C.jobs);
    Alcotest.test_case "restrict resets exactly the fields role names" `Quick
      (fun () ->
        (* Every encoded field set away from its default, so a name
           [restrict] and [role] spell differently shows up here. *)
        let c =
          C.make ~max_ms:123 ~seed:99L ~truncate_after_ms:7 ~run_timeout_ms:44
            ~retries:3 ~fail_fast:true ~jobs:5 ~journal_batch:17
            ~stop_when:(`Rankings_stable 9) ~budget:40
            ~plan:Propane.Plan.Uniform ()
        in
        let fields c =
          List.map
            (fun f ->
              let i = String.index f '=' in
              (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1)))
            (String.split_on_char ',' (C.encode c))
        in
        List.iter
          (fun role ->
            let kept = fields (C.restrict (fun r -> r <> role) c) in
            List.iter
              (fun (k, v) ->
                let expected =
                  if C.role k = role then List.assoc_opt k (fields C.default)
                  else Some v
                in
                Alcotest.(check (option string)) k expected (List.assoc_opt k kept))
              (fields c))
          [ `Outcome; `Resumable; `Plan ]);
    Alcotest.test_case "decode rejects unknown fields" `Quick (fun () ->
        match C.decode "max_ms=5,flux_capacitor=1" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted an unknown field");
    Alcotest.test_case "decode rejects malformed values" `Quick (fun () ->
        match C.decode "jobs=banana" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted a malformed value");
    Alcotest.test_case "decode checks and ignores a legacy keep_traces" `Quick
      (fun () ->
        (* Older journals' recipe lines carry the field. *)
        (match C.decode "max_ms=5,keep_traces=true" with
        | Ok c -> Alcotest.(check bool) "ignored" true (c = C.make ~max_ms:5 ())
        | Error msg -> Alcotest.failf "decode failed: %s" msg);
        match C.decode "keep_traces=banana" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted a malformed keep_traces");
    Alcotest.test_case "validate rejects bad combinations" `Quick (fun () ->
        let bad c =
          match C.validate c with
          | Error _ -> ()
          | Ok () -> Alcotest.fail "validate accepted a bad config"
        in
        bad (C.make ~jobs:0 ());
        bad (C.make ~retries:(-1) ());
        bad (C.make ~run_timeout_ms:0 ());
        bad (C.make ~journal_batch:0 ());
        bad (C.make ~resume:true ());
        bad (C.make ~truncate_after_ms:(-1) ());
        bad (C.make ~max_ms:0 ());
        (match C.decode "max_ms=1000,seed=1,truncate_after_ms=-200" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "decode accepted a negative truncation");
        match C.validate C.default with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "default rejected: %s" msg);
    Alcotest.test_case "stop rule codec round-trips both kinds" `Quick
      (fun () ->
        List.iter
          (fun rule ->
            match Propane.Live.rule_of_string (Propane.Live.rule_to_string rule)
            with
            | Ok rule' ->
                Alcotest.(check bool) "round-trips" true (rule = rule')
            | Error msg -> Alcotest.failf "rule codec failed: %s" msg)
          [ `Rankings_stable 17; `Ci_width 0.05; `Ci_width 0.3333333333333333 ]);
    Alcotest.test_case "stop rule parser rejects nonsense" `Quick (fun () ->
        List.iter
          (fun s ->
            match Propane.Live.rule_of_string s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %S" s)
          [ ""; "rankings-stable:0"; "ci-width:0"; "ci-width:1.5"; "bogus:3" ]);
  ]

(* ------------------------------------------------------------------ *)
(* The tentpole invariant, property-tested: whatever the journal batch
   size and domain count — and even across a kill mid-batch followed by
   a resume under a different batch size and domain count — the journal
   file ends up byte-identical to the serial, unbatched one.           *)

let journal_identity_tests =
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let reference_bytes =
    lazy
      (let path = Filename.temp_file "propane_refjournal" ".journal" in
       let (_ : Propane.Results.t) =
         runner ~seed:7L ~journal:path ~journal_batch:1 ~jobs:1 (scaler_sut ())
           scaler_campaign
       in
       let bytes = read_file path in
       Sys.remove path;
       bytes)
  in
  let gen =
    QCheck2.Gen.(
      tup4 (int_range 1 64) (int_range 1 4)
        (float_bound_inclusive 1.0)
        (tup2 (int_range 1 64) (int_range 1 4)))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:12
         ~name:"journal bytes invariant under batch x jobs, kill + resume"
         gen
         (fun (batch, jobs, cut_frac, (batch', jobs')) ->
           let path = Filename.temp_file "propane_qjournal" ".journal" in
           Fun.protect
             ~finally:(fun () -> Sys.remove path)
             (fun () ->
               let reference = Lazy.force reference_bytes in
               let (_ : Propane.Results.t) =
                 runner ~seed:7L ~journal:path ~journal_batch:batch ~jobs
                   (scaler_sut ()) scaler_campaign
               in
               let first_pass = String.equal (read_file path) reference in
               (* Simulate a kill mid-batch: the on-disk journal is a
                  committed prefix of whole records, possibly followed
                  by a torn partial line from the batch in flight. *)
               (* The five header lines (magic, sut, campaign, seed,
                  total) are committed atomically by [Journal.create],
                  so a kill can only tear run records, never the
                  header. *)
               (match String.split_on_char '\n' reference with
               | magic :: s :: c :: sd :: tot :: rest ->
                   let header =
                     String.concat "\n" [ magic; s; c; sd; tot ]
                   in
                   let records =
                     List.filter (fun l -> not (String.equal l "")) rest
                   in
                   let n = List.length records in
                   let keep =
                     min n (int_of_float (cut_frac *. float_of_int n))
                   in
                   let kept = List.filteri (fun i _ -> i < keep) records in
                   let torn =
                     if keep < n then
                       let next = List.nth records keep in
                       String.sub next 0 (String.length next / 2)
                     else ""
                   in
                   let oc = open_out_bin path in
                   output_string oc
                     (String.concat "\n" (header :: kept) ^ "\n" ^ torn);
                   close_out oc
               | _ -> Alcotest.fail "short reference journal");
               let (_ : Propane.Results.t) =
                 runner ~seed:7L ~journal:path ~resume:true
                   ~journal_batch:batch' ~jobs:jobs' (scaler_sut ())
                   scaler_campaign
               in
               first_pass && String.equal (read_file path) reference)));
  ]

(* ------------------------------------------------------------------ *)
(* Replay determinism: any journalled run, re-executed alone via
   [select] under the same config and seed, must reproduce its journal
   record byte for byte — the library-level contract behind the
   [propane replay] command.  The campaign mixes every model class,
   including the RNG-consuming and temporal ones. *)

let replay_tests =
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let mixed_campaign =
    Propane.Campaign.make ~name:"mixed" ~targets:[ "x" ]
      ~testcases:[ Propane.Testcase.make ~id:"ramp" ~params:[] ]
      ~times:[ Sim.Sim_time.of_ms 10; Sim.Sim_time.of_ms 30 ]
      ~errors:
        [
          Propane.Error_model.Bit_flip 15;
          Propane.Error_model.Multi_bit [ 0; 7; 15 ];
          Propane.Error_model.Burst { first = 4; len = 4 };
          Propane.Error_model.Noise 16;
          Propane.Error_model.Replace_uniform;
          Propane.Error_model.Delayed
            { model = Propane.Error_model.Bit_flip 15; delay_ms = 12 };
          Propane.Error_model.Intermittent
            {
              model = Propane.Error_model.Replace_uniform;
              period_ms = 8;
              window_ms = 24;
            };
        ]
  in
  [
    Alcotest.test_case "mixed-model journals are byte-identical across jobs"
      `Quick (fun () ->
        let write jobs =
          let path = Filename.temp_file "propane_mixed" ".journal" in
          let (_ : Propane.Results.t) =
            runner ~seed:11L ~journal:path ~jobs (scaler_sut ())
              mixed_campaign
          in
          let bytes = read_file path in
          Sys.remove path;
          bytes
        in
        Alcotest.(check string) "bytes" (write 1) (write 3));
    Alcotest.test_case
      "single-index re-execution reproduces every journal record" `Quick
      (fun () ->
        let path = Filename.temp_file "propane_replay" ".journal" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let (_ : Propane.Results.t) =
              runner ~seed:11L ~journal:path ~jobs:2 (scaler_sut ())
                mixed_campaign
            in
            let j =
              match Propane.Journal.load path with
              | Ok j -> j
              | Error m -> Alcotest.fail m
            in
            let completed = Propane.Journal.completed j in
            Alcotest.(check int)
              "all recorded"
              (Propane.Campaign.size mixed_campaign)
              (Hashtbl.length completed);
            Hashtbl.iter
              (fun index recorded ->
                let results =
                  Propane.Runner.run
                    ~config:(Propane.Runner.Config.make ~seed:11L ())
                    ~select:(fun i -> i = index)
                    (scaler_sut ()) mixed_campaign
                in
                match Propane.Results.outcomes results with
                | [ replayed ] ->
                    let s o =
                      match Propane.Journal.record_string ~index o with
                      | Ok s -> s
                      | Error m -> Alcotest.fail m
                    in
                    Alcotest.(check string)
                      (Printf.sprintf "record %d" index)
                      (s recorded) (s replayed)
                | os -> Alcotest.failf "selected %d runs" (List.length os))
              completed));
  ]

(* A diamond behind x: x -> M -> y; y -> B -> u and y -> C -> v;
   u, v -> D -> out.  Under the flat 0.5 prior an error on x reaches
   out with probability 0.5 * (1 - 0.75^2) = 0.21875: both branches
   start at y, which M writes once whoever reads it.  [produced] puts a
   module P between the system input and x. *)
let diamond_priors ~produced ~targets =
  let s = Propagation.Signal.make in
  let m name inputs outputs =
    Propagation.Sw_module.make ~name ~inputs:(List.map s inputs)
      ~outputs:(List.map s outputs)
  in
  let core =
    [
      m "M" [ "x" ] [ "y" ];
      m "B" [ "y" ] [ "u" ];
      m "C" [ "y" ] [ "v" ];
      m "D" [ "u"; "v" ] [ "out" ];
    ]
  in
  let modules, system_inputs =
    if produced then (m "P" [ "in" ] [ "x" ] :: core, [ s "in" ])
    else (core, [ s "x" ])
  in
  Propane.Plan.priors
    ~model:
      (Propagation.System_model.make_exn ~modules ~system_inputs
         ~system_outputs:[ s "out" ])
    ~targets ()

let plan_tests =
  [
    Alcotest.test_case "reconvergent fan-out is counted once" `Quick
      (fun () ->
        let reach ~produced =
          match diamond_priors ~produced ~targets:[ "x" ] with
          | [ prior ] -> prior.Propane.Plan.reach
          | _ -> Alcotest.fail "one prior per target"
        in
        let internal = reach ~produced:true in
        Alcotest.(check int64)
          "the same estimate as a system input"
          (Int64.bits_of_float (reach ~produced:false))
          (Int64.bits_of_float internal);
        Alcotest.(check (float 0.03)) "exact reach" 0.21875 internal);
    Alcotest.test_case "a target outside the model keeps the floor" `Quick
      (fun () ->
        let floor (p : Propane.Plan.prior) =
          Alcotest.(check int) "cells" 0 p.Propane.Plan.cells;
          close "reach" 0.0 p.Propane.Plan.reach;
          close "weight" 0.05 p.Propane.Plan.weight
        in
        (* with no target in the model, nothing is sampled *)
        (match diamond_priors ~produced:true ~targets:[ "nowhere" ] with
        | [ outside ] -> floor outside
        | _ -> Alcotest.fail "one prior per target");
        match diamond_priors ~produced:true ~targets:[ "nowhere"; "x" ] with
        | [ outside; x ] ->
            floor outside;
            Alcotest.(check int) "x cells" 1 x.Propane.Plan.cells
        | _ -> Alcotest.fail "one prior per target");
  ]

let () =
  Alcotest.run "propane"
    [
      ("error_model", error_model_tests);
      ("error_model_props", error_model_property_tests);
      ("trace", trace_tests);
      ("trace_set", trace_set_tests);
      ("golden", golden_tests);
      ("observer", observer_tests);
      ("testcase", testcase_tests);
      ("campaign", campaign_tests);
      ("plan", plan_tests);
      ("signal_store", signal_store_tests);
      ("runner", runner_tests);
      ("horizon", horizon_tests);
      ("rejoin", rejoin_tests);
      ("estimator", estimator_tests);
      ("results", results_tests);
      ("latency", latency_tests);
      ("uniformity", uniformity_tests);
      ("storage", storage_tests);
      ("journal", journal_tests);
      ("journal_identity", journal_identity_tests);
      ("replay", replay_tests);
      ("config", config_tests);
      ("telemetry", telemetry_tests);
      ("live", live_tests);
      ("severity", severity_tests);
      ("fault", fault_tests);
    ]
