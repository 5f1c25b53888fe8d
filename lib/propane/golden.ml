type divergence = { signal : string; first_ms : int }

(* The earliest millisecond below [until_ms] where two runs of one
   signal disagree; a length mismatch inside the window is a difference
   at the end of the shorter run. *)
let first_difference ~until_ms golden golden_ms run run_ms =
  let common = min golden_ms run_ms in
  let stop = min common until_ms in
  let rec go ms =
    if ms >= stop then
      if golden_ms <> run_ms && common < until_ms then Some common else None
    else if golden ms <> run ms then Some ms
    else go (ms + 1)
  in
  go 0

let compare_runs ?(until_ms = max_int) ~golden ~run () =
  if
    not
      (List.equal String.equal (Trace_set.signals golden)
         (Trace_set.signals run))
  then invalid_arg "Golden.compare_runs: trace sets cover different signals";
  List.filter_map
    (fun signal ->
      Option.map
        (fun first_ms -> { signal; first_ms })
        (first_difference ~until_ms
           (Trace_set.get golden signal)
           (Trace_set.duration_ms golden)
           (Trace_set.get run signal)
           (Trace_set.duration_ms run)))
    (Trace_set.signals golden)

(** {1 Frozen goldens} *)

type frozen = {
  frozen_signals : string array;  (* creation order of the trace set *)
  frozen_duration : int;
  samples : int array;  (* millisecond-major, as in the trace set *)
  saved_at : int array;  (* ascending *)
  saved : Sut.state array;
}

let freeze_saved ~saved set =
  let duration = Trace_set.duration_ms set in
  let saved_at = Array.of_list (List.map fst saved) in
  Array.iteri
    (fun i ms ->
      if ms < 1 || ms >= duration || (i > 0 && ms <= saved_at.(i - 1)) then
        invalid_arg
          (Printf.sprintf "Golden.freeze_saved: instant %d of %d ms" ms
             duration))
    saved_at;
  {
    frozen_signals = Array.of_list (Trace_set.signals set);
    frozen_duration = duration;
    samples = Trace_set.samples set;
    saved_at;
    saved = Array.of_list (List.map snd saved);
  }

let freeze set = freeze_saved ~saved:[] set

let saved_after f ~ms =
  (* Binary search keeping [saved_at.(lo - 1) <= ms < saved_at.(hi)],
     with index -1 standing for minus infinity and [length] for
     infinity. *)
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if f.saved_at.(mid) <= ms then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length f.saved_at)

let latest_saved f ~upto =
  match saved_after f ~ms:upto with
  | 0 -> None
  | i -> Some (f.saved_at.(i - 1), f.saved.(i - 1))

let frozen_signals f = Array.to_list f.frozen_signals
let frozen_duration_ms f = f.frozen_duration

let frozen_value f ~signal ~ms =
  let n = Array.length f.frozen_signals in
  if signal < 0 || signal >= n then
    invalid_arg (Printf.sprintf "Golden.frozen_value: signal %d" signal)
  else if ms < 0 || ms >= f.frozen_duration then
    invalid_arg (Printf.sprintf "Golden.frozen_value: ms %d" ms)
  else f.samples.((ms * n) + signal)

(** {1 Streaming comparison} *)

(* [first.(s)] is the divergence millisecond of signal [s], or -1 while
   it agrees with the golden; [remaining] counts the -1s. *)
type check = {
  golden : frozen;
  until_ms : int;
  first : int array;
  mutable remaining : int;
}

let check ?(until_ms = max_int) ?scratch golden =
  let n = Array.length golden.frozen_signals in
  let first =
    match scratch with
    | None -> Array.make n (-1)
    | Some a when Array.length a >= n ->
        Array.fill a 0 n (-1);
        a
    | Some a ->
        invalid_arg
          (Printf.sprintf
             "Golden.check: scratch holds %d signals, golden has %d"
             (Array.length a) n)
  in
  { golden; until_ms; first; remaining = n }

let sample c ~ms values =
  let g = c.golden in
  if c.remaining > 0 && ms < c.until_ms && ms < g.frozen_duration then begin
    let n = Array.length g.frozen_signals in
    let base = ms * n in
    for s = 0 to n - 1 do
      if c.first.(s) < 0 && values.(s) <> g.samples.(base + s) then begin
        c.first.(s) <- ms;
        c.remaining <- c.remaining - 1
      end
    done
  end

let saturated c = c.remaining = 0

let divergences c ~run_ms =
  let g = c.golden in
  let n = Array.length g.frozen_signals in
  let common = min run_ms g.frozen_duration in
  (* The length rule of [first_difference]. *)
  if run_ms <> g.frozen_duration && common < c.until_ms then
    for s = 0 to n - 1 do
      if c.first.(s) < 0 then c.first.(s) <- common
    done;
  let acc = ref [] in
  for s = n - 1 downto 0 do
    if c.first.(s) >= 0 then
      acc := { signal = g.frozen_signals.(s); first_ms = c.first.(s) } :: !acc
  done;
  !acc

let pp_divergence ppf d = Fmt.pf ppf "%s@%dms" d.signal d.first_ms
