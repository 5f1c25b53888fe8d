type divergence = { signal : string; first_ms : int }

let compare_runs ?until_ms ~golden ~run () =
  if
    not
      (List.equal String.equal (Trace_set.signals golden)
         (Trace_set.signals run))
  then invalid_arg "Golden.compare_runs: trace sets cover different signals";
  List.filter_map
    (fun signal ->
      match
        Trace.first_difference ?until_ms
          (Trace_set.trace golden signal)
          (Trace_set.trace run signal)
      with
      | None -> None
      | Some first_ms -> Some { signal; first_ms })
    (Trace_set.signals golden)

(** {1 Frozen goldens} *)

type frozen = {
  frozen_signals : string array;  (* creation order of the trace set *)
  frozen_duration : int;
  samples : int array;  (* signal-major: [samples.(s * duration + ms)] *)
  saved_at : int array;  (* ascending *)
  saved : Sut.state array;
}

let freeze_saved ~saved set =
  let order = Trace_set.signals set in
  let signals = Array.of_list order in
  let duration = Trace_set.duration_ms set in
  let samples = Array.make (max 1 (Array.length signals * duration)) 0 in
  Array.iteri
    (fun s name ->
      Trace.blit_into (Trace_set.trace set name) samples ~pos:(s * duration))
    signals;
  let saved_at = Array.of_list (List.map fst saved) in
  Array.iteri
    (fun i ms ->
      if ms < 1 || ms >= duration || (i > 0 && ms <= saved_at.(i - 1)) then
        invalid_arg
          (Printf.sprintf "Golden.freeze_saved: instant %d of %d ms" ms
             duration))
    saved_at;
  {
    frozen_signals = signals;
    frozen_duration = duration;
    samples;
    saved_at;
    saved = Array.of_list (List.map snd saved);
  }

let freeze set = freeze_saved ~saved:[] set

let latest_saved f ~upto =
  (* Binary search keeping [saved_at.(lo) <= upto < saved_at.(hi)], with
     [hi = length] standing for infinity. *)
  let rec go lo hi =
    if hi - lo <= 1 then Some (f.saved_at.(lo), f.saved.(lo))
    else
      let mid = (lo + hi) / 2 in
      if f.saved_at.(mid) <= upto then go mid hi else go lo mid
  in
  if Array.length f.saved_at = 0 || f.saved_at.(0) > upto then None
  else go 0 (Array.length f.saved_at)

let frozen_signals f = Array.to_list f.frozen_signals
let frozen_signal_count f = Array.length f.frozen_signals
let frozen_duration_ms f = f.frozen_duration

let frozen_value f ~signal ~ms =
  if signal < 0 || signal >= Array.length f.frozen_signals then
    invalid_arg (Printf.sprintf "Golden.frozen_value: signal %d" signal)
  else if ms < 0 || ms >= f.frozen_duration then
    invalid_arg (Printf.sprintf "Golden.frozen_value: ms %d" ms)
  else f.samples.((signal * f.frozen_duration) + ms)

let pp_divergence ppf d = Fmt.pf ppf "%s@%dms" d.signal d.first_ms
