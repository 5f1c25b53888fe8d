exception Simulated_crash of int

let () =
  Printexc.register_printer (function
    | Simulated_crash ms ->
        Some (Printf.sprintf "simulated crash %d ms after injection" ms)
    | _ -> None)

type spec = {
  crash_after_ms : int option;
  hang_after_ms : int option;
  hang_step_wall_ms : int;
  only_testcase : string option;
}

let spec ?crash_after_ms ?hang_after_ms ?(hang_step_wall_ms = 25)
    ?only_testcase () =
  let non_negative what = function
    | Some n when n < 0 ->
        invalid_arg (Printf.sprintf "Fault.spec: %s must be >= 0" what)
    | _ -> ()
  in
  non_negative "crash_after_ms" crash_after_ms;
  non_negative "hang_after_ms" hang_after_ms;
  if hang_step_wall_ms < 1 then
    invalid_arg "Fault.spec: hang_step_wall_ms must be >= 1";
  { crash_after_ms; hang_after_ms; hang_step_wall_ms; only_testcase }

let apply s (sut : Sut.t) =
  let applies tc =
    match s.only_testcase with
    | None -> true
    | Some id -> String.equal id (Testcase.id tc)
  in
  let instantiate tc =
    let inner = sut.Sut.instantiate tc in
    if not (applies tc) then inner
    else begin
      (* -1 = not armed.  Only [inject] arms the countdown, so golden
         runs (never injected) pass through untouched and the fault
         fires a deterministic number of simulated milliseconds after
         the injection instant. *)
      let since_inject = ref (-1) in
      let step () =
        let n = !since_inject in
        (match s.crash_after_ms with
        | Some c when n >= c && n >= 0 -> raise (Simulated_crash n)
        | _ -> ());
        (match s.hang_after_ms with
        | Some h when n >= h && n >= 0 ->
            (* A livelock is simulated by burning wall-clock per step:
               the runner's watchdog (which checks between steps) sees
               the budget blown, while the run stays bounded by the
               golden duration even with no watchdog armed. *)
            Unix.sleepf (float_of_int s.hang_step_wall_ms /. 1000.)
        | _ -> ());
        inner.Sut.step ();
        if !since_inject >= 0 then incr since_inject
      in
      let inject name f =
        since_inject := 0;
        inner.Sut.inject name f
      in
      (* The countdown is in no saved state: a run that matched the
         golden's would drop its crash or hang. *)
      let state_hook =
        Option.map
          (fun h -> { h with Sut.matches = (fun _ -> false) })
          inner.Sut.state_hook
      in
      { inner with Sut.step; inject; state_hook }
    end
  in
  { sut with Sut.instantiate }

let wrap ?crash_after_ms ?hang_after_ms ?hang_step_wall_ms ?only_testcase sut
    =
  apply
    (spec ?crash_after_ms ?hang_after_ms ?hang_step_wall_ms ?only_testcase ())
    sut
