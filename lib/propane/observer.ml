type t = {
  on_sample : ms:int -> int array -> unit;
  finish : run_ms:int -> unit;
  saturated : unit -> bool;
}

let make ?(on_sample = fun ~ms:_ _ -> ()) ?(finish = fun ~run_ms:_ -> ())
    ?(saturated = fun () -> false) () =
  { on_sample; finish; saturated }

let combine = function
  | [] -> make ()
  | [ o ] -> o
  | observers ->
      {
        on_sample =
          (fun ~ms values ->
            List.iter (fun o -> o.on_sample ~ms values) observers);
        finish = (fun ~run_ms -> List.iter (fun o -> o.finish ~run_ms) observers);
        saturated =
          (fun () -> List.for_all (fun o -> o.saturated ()) observers);
      }

(* Streaming equivalent of [Trace.first_difference] per signal: [first.(s)]
   is the divergence millisecond of signal [s], or -1 while it agrees with
   the frozen golden.  The observer saturates once every signal has
   diverged, letting the runner stop the run early — the remaining samples
   cannot change any first-divergence timestamp. *)
let divergence ?(until_ms = max_int) ?scratch (golden : Golden.frozen) =
  let n = Golden.frozen_signal_count golden in
  let golden_ms = golden.Golden.frozen_duration in
  let samples = golden.Golden.samples in
  let first =
    (* A campaign arena hands the same scratch array to every run on
       its domain, so the per-run observer allocates nothing. *)
    match scratch with
    | None -> Array.make n (-1)
    | Some a when Array.length a >= n ->
        Array.fill a 0 n (-1);
        a
    | Some a ->
        invalid_arg
          (Printf.sprintf
             "Observer.divergence: scratch holds %d signals, golden has %d"
             (Array.length a) n)
  in
  let remaining = ref n in
  let on_sample ~ms values =
    if !remaining > 0 && ms < until_ms && ms < golden_ms then
      for s = 0 to n - 1 do
        if first.(s) < 0 && values.(s) <> samples.((s * golden_ms) + ms) then begin
          first.(s) <- ms;
          decr remaining
        end
      done
  in
  let finish ~run_ms =
    (* Length-mismatch tail rule of [Trace.first_difference]: a run that
       stopped at a different length diverges at the end of the shorter
       trace, when that point lies inside the comparison window. *)
    if run_ms <> golden_ms then begin
      let common = min run_ms golden_ms in
      if common < until_ms then
        for s = 0 to n - 1 do
          if first.(s) < 0 then begin
            first.(s) <- common;
            decr remaining
          end
        done
    end
  in
  let saturated () = !remaining = 0 in
  let divergences () =
    let acc = ref [] in
    for s = n - 1 downto 0 do
      if first.(s) >= 0 then
        acc :=
          { Golden.signal = golden.Golden.frozen_signals.(s);
            first_ms = first.(s);
          }
          :: !acc
    done;
    !acc
  in
  (make ~on_sample ~finish ~saturated (), divergences)

let recorder ~signals =
  let set = Trace_set.create ~signals () in
  let on_sample ~ms:_ values = Trace_set.sample_array set values in
  (* A recorder is never saturated: combining it with a divergence
     observer disables early exit, so the traces stay complete. *)
  (make ~on_sample (), fun () -> set)
