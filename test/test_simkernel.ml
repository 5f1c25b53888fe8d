(* Unit and property tests for the simulated-time kernel. *)

open Simkernel

let check_raises_invalid name f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")

(* ------------------------------------------------------------------ *)

let sim_time_tests =
  [
    Alcotest.test_case "zero is 0 ms" `Quick (fun () ->
        Alcotest.(check int) "ms" 0 (Sim_time.to_ms Sim_time.zero));
    Alcotest.test_case "of_ms/to_ms roundtrip" `Quick (fun () ->
        Alcotest.(check int) "ms" 1234 (Sim_time.to_ms (Sim_time.of_ms 1234)));
    check_raises_invalid "of_ms rejects negatives" (fun () ->
        Sim_time.of_ms (-1));
    Alcotest.test_case "add_ms accumulates" `Quick (fun () ->
        Alcotest.(check int) "ms" 700
          (Sim_time.to_ms (Sim_time.add_ms (Sim_time.of_ms 500) 200)));
    Alcotest.test_case "diff_ms is signed" `Quick (fun () ->
        Alcotest.(check int) "diff" (-300)
          (Sim_time.diff_ms (Sim_time.of_ms 200) (Sim_time.of_ms 500)));
    Alcotest.test_case "of_seconds rounds to nearest ms" `Quick (fun () ->
        Alcotest.(check int) "ms" 1500
          (Sim_time.to_ms (Sim_time.of_seconds 1.4999)));
    check_raises_invalid "of_seconds rejects negatives" (fun () ->
        Sim_time.of_seconds (-0.1));
    Alcotest.test_case "to_seconds inverse" `Quick (fun () ->
        Alcotest.(check (float 1e-9))
          "s" 2.5
          (Sim_time.to_seconds (Sim_time.of_ms 2500)));
    Alcotest.test_case "succ advances one ms" `Quick (fun () ->
        Alcotest.(check int) "ms" 1
          (Sim_time.to_ms (Sim_time.succ Sim_time.zero)));
    Alcotest.test_case "ordering operators" `Quick (fun () ->
        let a = Sim_time.of_ms 5 and b = Sim_time.of_ms 6 in
        Alcotest.(check bool) "lt" true Sim_time.(a < b);
        Alcotest.(check bool) "le" true Sim_time.(a <= a);
        Alcotest.(check bool) "ge" true Sim_time.(b >= a);
        Alcotest.(check bool) "equal" true (Sim_time.equal a a);
        Alcotest.(check int) "compare" (-1) (Sim_time.compare a b));
  ]

(* ------------------------------------------------------------------ *)

let rng_tests =
  [
    Alcotest.test_case "same seed, same stream" `Quick (fun () ->
        let a = Rng.create 99L and b = Rng.create 99L in
        for _ = 1 to 100 do
          Alcotest.(check int64) "draw" (Rng.int64 a) (Rng.int64 b)
        done);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Rng.create 1L and b = Rng.create 2L in
        Alcotest.(check bool) "differ" true (Rng.int64 a <> Rng.int64 b));
    Alcotest.test_case "split streams are independent" `Quick (fun () ->
        let parent = Rng.create 7L in
        let child = Rng.split parent in
        let child_draws = List.init 10 (fun _ -> Rng.int64 child) in
        (* Re-deriving the same split gives the same child stream. *)
        let parent' = Rng.create 7L in
        let child' = Rng.split parent' in
        let child_draws' = List.init 10 (fun _ -> Rng.int64 child') in
        Alcotest.(check (list int64)) "stream" child_draws child_draws');
    check_raises_invalid "int rejects non-positive bound" (fun () ->
        Rng.int (Rng.create 0L) 0);
    check_raises_invalid "pick rejects empty list" (fun () ->
        Rng.pick (Rng.create 0L) []);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"int stays within bound" ~count:500
         QCheck2.Gen.(pair (int_range 1 10_000) int)
         (fun (bound, seed) ->
           let v = Rng.int (Rng.create (Int64.of_int seed)) bound in
           0 <= v && v < bound));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"float stays within bound" ~count:500
         QCheck2.Gen.(pair (float_range 0.001 1000.0) int)
         (fun (bound, seed) ->
           let v = Rng.float (Rng.create (Int64.of_int seed)) bound in
           0.0 <= v && v < bound));
    Alcotest.test_case "bool is not constant" `Quick (fun () ->
        let rng = Rng.create 5L in
        let draws = List.init 64 (fun _ -> Rng.bool rng) in
        Alcotest.(check bool) "has true" true (List.mem true draws);
        Alcotest.(check bool) "has false" true (List.mem false draws));
    Alcotest.test_case "pick draws members" `Quick (fun () ->
        let rng = Rng.create 5L in
        for _ = 1 to 50 do
          let v = Rng.pick rng [ 1; 2; 3 ] in
          Alcotest.(check bool) "member" true (List.mem v [ 1; 2; 3 ])
        done);
  ]

(* ------------------------------------------------------------------ *)

let scheduler_tests =
  let make ?(slots = 7) source =
    Slot_scheduler.create ~slots ~slot_source:source ()
  in
  [
    Alcotest.test_case "tasks run in their slot only" `Quick (fun () ->
        let slot = ref 0 in
        let sched = make (fun () -> !slot) in
        let hits = ref [] in
        Slot_scheduler.add_task sched ~slot:2 ~name:"t2" (fun () ->
            hits := 2 :: !hits);
        Slot_scheduler.add_task sched ~slot:5 ~name:"t5" (fun () ->
            hits := 5 :: !hits);
        for s = 0 to 6 do
          slot := s;
          Slot_scheduler.tick sched
        done;
        Alcotest.(check (list int)) "hits" [ 5; 2 ] !hits);
    Alcotest.test_case "add_every_slot runs every tick" `Quick (fun () ->
        let slot = ref 0 in
        let sched = make (fun () -> !slot) in
        let count = ref 0 in
        Slot_scheduler.add_every_slot sched ~name:"all" (fun () -> incr count);
        for s = 0 to 13 do
          slot := s mod 7;
          Slot_scheduler.tick sched
        done;
        Alcotest.(check int) "count" 14 !count);
    Alcotest.test_case "background runs after slot tasks" `Quick (fun () ->
        let sched = make (fun () -> 0) in
        let order = ref [] in
        Slot_scheduler.add_task sched ~slot:0 ~name:"slot" (fun () ->
            order := "slot" :: !order);
        Slot_scheduler.set_background sched ~name:"bg" (fun () ->
            order := "bg" :: !order);
        Slot_scheduler.tick sched;
        Alcotest.(check (list string)) "order" [ "bg"; "slot" ] !order);
    Alcotest.test_case "registration order within a slot" `Quick (fun () ->
        let sched = make (fun () -> 0) in
        let order = ref [] in
        Slot_scheduler.add_task sched ~slot:0 ~name:"a" (fun () ->
            order := "a" :: !order);
        Slot_scheduler.add_task sched ~slot:0 ~name:"b" (fun () ->
            order := "b" :: !order);
        Slot_scheduler.tick sched;
        Alcotest.(check (list string)) "order" [ "b"; "a" ] !order);
    Alcotest.test_case "corrupted slot numbers are reduced mod slots" `Quick
      (fun () ->
        let sched = make (fun () -> 23) in
        Slot_scheduler.tick sched;
        Alcotest.(check (option int)) "slot" (Some 2)
          (Slot_scheduler.last_slot sched));
    Alcotest.test_case "negative slot numbers are safe" `Quick (fun () ->
        let sched = make (fun () -> -1) in
        Slot_scheduler.tick sched;
        Alcotest.(check (option int)) "slot" (Some 6)
          (Slot_scheduler.last_slot sched));
    Alcotest.test_case "run performs n ticks" `Quick (fun () ->
        let sched = make (fun () -> 0) in
        Slot_scheduler.run sched ~ms:25;
        Alcotest.(check int) "ticks" 25 (Slot_scheduler.ticks sched));
    check_raises_invalid "run rejects negative duration" (fun () ->
        Slot_scheduler.run (make (fun () -> 0)) ~ms:(-1));
    check_raises_invalid "add_task rejects bad slot" (fun () ->
        Slot_scheduler.add_task (make (fun () -> 0)) ~slot:7 ~name:"x" ignore);
    check_raises_invalid "create rejects zero slots" (fun () ->
        Slot_scheduler.create ~slots:0 ~slot_source:(fun () -> 0) ());
    Alcotest.test_case "background replacement" `Quick (fun () ->
        let sched = make (fun () -> 0) in
        let hit = ref "" in
        Slot_scheduler.set_background sched ~name:"one" (fun () -> hit := "one");
        Slot_scheduler.set_background sched ~name:"two" (fun () -> hit := "two");
        Slot_scheduler.tick sched;
        Alcotest.(check string) "background" "two" !hit);
  ]

let () =
  Alcotest.run "simkernel"
    [
      ("sim_time", sim_time_tests);
      ("rng", rng_tests);
      ("slot_scheduler", scheduler_tests);
    ]
