type t = {
  names : string array;  (* creation order *)
  mutable data : int array;  (* millisecond-major *)
  mutable duration : int;
}

let create ?(capacity = 1024) ~signals () =
  if signals = [] then invalid_arg "Trace_set.create: no signals";
  if List.mem "" signals then invalid_arg "Trace_set.create: empty signal name";
  let rec unique = function
    | a :: (b :: _ as rest) ->
        if String.equal a b then
          invalid_arg (Printf.sprintf "Trace_set.create: duplicate signal %S" a)
        else unique rest
    | _ -> ()
  in
  unique (List.sort String.compare signals);
  let names = Array.of_list signals in
  {
    names;
    data = Array.make (max 1 capacity * Array.length names) 0;
    duration = 0;
  }

let signals t = Array.to_list t.names
let duration_ms t = t.duration

(* [Array.blit] into a major-heap array passes every element through
   the write barrier; a typed [int] copy is plain stores. *)
let blit_ints (src : int array) src_pos (dst : int array) dst_pos len =
  for i = 0 to len - 1 do
    Array.unsafe_set dst (dst_pos + i) (Array.unsafe_get src (src_pos + i))
  done

(* Appends milliseconds [from, until) of [src], doubling the array
   when it is full. *)
let append t src ~from ~until =
  let n = Array.length t.names in
  let used = t.duration * n and len = (until - from) * n in
  if used + len > Array.length t.data then begin
    let bigger = Array.make (max (used + len) (2 * Array.length t.data)) 0 in
    blit_ints t.data 0 bigger 0 used;
    t.data <- bigger
  end;
  blit_ints src (from * n) t.data used len;
  t.duration <- t.duration + (until - from)

let sample_array t values =
  if Array.length values <> Array.length t.names then
    invalid_arg
      (Printf.sprintf "Trace_set.sample_array: %d values for %d signals"
         (Array.length values) (Array.length t.names));
  append t values ~from:0 ~until:1

let sample_block t block ~from ~until =
  let need = until * Array.length t.names in
  if from < 0 || until < from || need > Array.length block then
    invalid_arg
      (Printf.sprintf
         "Trace_set.sample_block: ms [%d, %d) need %d samples, got %d" from
         until need (Array.length block));
  append t block ~from ~until

let get t signal =
  match Array.find_index (String.equal signal) t.names with
  | None -> invalid_arg (Printf.sprintf "Trace_set.get: no signal %S" signal)
  | Some s ->
      fun ms ->
        if ms < 0 || ms >= t.duration then
          invalid_arg
            (Printf.sprintf "Trace_set.get: ms %d outside [0,%d)" ms
               t.duration)
        else t.data.((ms * Array.length t.names) + s)

let samples t = Array.sub t.data 0 (t.duration * Array.length t.names)
