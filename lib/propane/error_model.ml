type t =
  | Bit_flip of int
  | Multi_bit of int list
  | Burst of { first : int; len : int }
  | Stuck_at of int
  | Offset of int
  | Noise of int
  | Replace_uniform
  | Intermittent of { model : t; period_ms : int; window_ms : int }
  | Delayed of { model : t; delay_ms : int }

let is_temporal = function
  | Intermittent _ | Delayed _ -> true
  | Bit_flip _ | Multi_bit _ | Burst _ | Stuck_at _ | Offset _ | Noise _
  | Replace_uniform ->
      false

let payload = function Intermittent { model; _ } | Delayed { model; _ } -> model | t -> t

let check_width width =
  if width < 1 || width > 30 then
    Error (Printf.sprintf "width must be in [1, 30], got %d" width)
  else Ok ()

let rec check ~width t =
  let mask = (1 lsl width) - 1 in
  match t with
  | Bit_flip b ->
      if b < 0 || b >= width then
        Error (Printf.sprintf "bit %d outside [0,%d)" b width)
      else Ok ()
  | Multi_bit [] -> Error "multi-bit needs at least one position"
  | Multi_bit bs ->
      if List.exists (fun b -> b < 0 || b >= width) bs then
        Error
          (Printf.sprintf "multi-bit position outside [0,%d) in {%s}" width
             (String.concat "," (List.map string_of_int bs)))
      else if List.length (List.sort_uniq Int.compare bs) <> List.length bs
      then Error "multi-bit positions must be distinct"
      else Ok ()
  | Burst { first; len } ->
      if len < 1 then Error "burst length must be >= 1"
      else if first < 0 || first + len > width then
        Error
          (Printf.sprintf "burst [%d,%d) outside [0,%d)" first (first + len)
             width)
      else Ok ()
  | Stuck_at _ | Offset _ | Replace_uniform -> Ok ()
  | Noise amp ->
      if amp < 1 || amp > mask then
        Error
          (Printf.sprintf "noise amplitude %d outside [1,%d]" amp mask)
      else Ok ()
  | Intermittent { model; period_ms; window_ms } ->
      if is_temporal model then Error "temporal error models cannot nest"
      else if period_ms < 1 then Error "intermittent period must be >= 1ms"
      else if window_ms < 1 then Error "intermittent window must be >= 1ms"
      else check ~width model
  | Delayed { model; delay_ms } ->
      if is_temporal model then Error "temporal error models cannot nest"
      else if delay_ms < 0 then Error "delay must be >= 0ms"
      else check ~width model

let validate ~width t = Result.bind (check_width width) (fun () -> check ~width t)

let validate_exn ~width t =
  match validate ~width t with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Error_model.apply: " ^ msg)

(* The spatial corruption, assuming [t] is already validated and [v]
   already masked.  Every model corrupts: the result differs from [v]
   for all models except a [Stuck_at]/[Offset] that happens to coincide
   (which the user asked for explicitly). *)
let rec corrupt t ~width ~rng v =
  let mask = (1 lsl width) - 1 in
  match t with
  | Bit_flip b -> v lxor (1 lsl b)
  | Multi_bit bs -> List.fold_left (fun acc b -> acc lxor (1 lsl b)) v bs
  | Burst { first; len } -> v lxor (((1 lsl len) - 1) lsl first)
  | Stuck_at c -> c land mask
  | Offset d -> (v + d) land mask
  | Noise amp ->
      (* One draw over 2*amp outcomes, mapped onto [-amp,-1] u [1,amp]:
         the delta is never zero, and |delta| <= mask keeps it nonzero
         modulo 2^width, so the corrupted value always differs. *)
      let k = Simkernel.Rng.int rng (2 * amp) in
      let delta = if k < amp then k - amp else k - amp + 1 in
      (v + delta) land mask
  | Replace_uniform ->
      (* Draw from the mask *other* values and skip over [v], so the
         injection is never a no-op (a uniform draw over all 2^width
         values silently deflates error counts with probability
         2^-width).  Exactly one RNG draw, as before — but the stream
         differs from the pre-fix encoding, so journals recorded with
         the old draw do not replay byte-identically under uniform
         models. *)
      let r = Simkernel.Rng.int rng mask in
      if r >= v then r + 1 else r
  | Intermittent { model; _ } | Delayed { model; _ } ->
      corrupt model ~width ~rng v

let apply t ~width ~rng v =
  validate_exn ~width t;
  let mask = (1 lsl width) - 1 in
  corrupt t ~width ~rng (v land mask)

(* Injection lifetime: at which milliseconds of the run (relative to the
   campaign's injection time) does the model corrupt the signal?
   Spatial models fire exactly once, at the injection time; [Delayed]
   shifts that single shot; [Intermittent] re-fires every period for a
   window. *)
let first_fire_ms t ~inject_ms =
  match t with
  | Delayed { delay_ms; _ } -> inject_ms + delay_ms
  | Bit_flip _ | Multi_bit _ | Burst _ | Stuck_at _ | Offset _ | Noise _
  | Replace_uniform | Intermittent _ ->
      inject_ms

let last_fire_ms t ~inject_ms =
  match t with
  | Delayed { delay_ms; _ } -> inject_ms + delay_ms
  | Intermittent { period_ms; window_ms; _ } ->
      inject_ms + ((window_ms - 1) / period_ms * period_ms)
  | Bit_flip _ | Multi_bit _ | Burst _ | Stuck_at _ | Offset _ | Noise _
  | Replace_uniform ->
      inject_ms

let fires t ~inject_ms ~ms =
  match t with
  | Delayed { delay_ms; _ } -> ms = inject_ms + delay_ms
  | Intermittent { period_ms; window_ms; _ } ->
      ms >= inject_ms
      && ms < inject_ms + window_ms
      && (ms - inject_ms) mod period_ms = 0
  | Bit_flip _ | Multi_bit _ | Burst _ | Stuck_at _ | Offset _ | Noise _
  | Replace_uniform ->
      ms = inject_ms

(* Width-aware normal form: behaviourally identical models map to the
   same value, so cache keys and journal descriptions never split on a
   spelling difference.  [apply (canonicalize ~width e)] equals
   [apply e] for every state and RNG stream (no canonical step adds or
   removes a random draw). *)
let rec canonicalize ~width t =
  let mask = (1 lsl width) - 1 in
  match t with
  | Bit_flip _ | Noise _ | Replace_uniform -> t
  | Multi_bit bs -> (
      match List.sort_uniq Int.compare bs with
      | [ b ] -> Bit_flip b
      | bs -> Multi_bit bs)
  | Burst { first; len } -> if len = 1 then Bit_flip first else t
  | Stuck_at c -> Stuck_at (c land mask)
  | Offset d -> Offset (d land mask)
  | Intermittent { model; period_ms; window_ms } ->
      let model = canonicalize ~width model in
      (* A window that never reaches the second period is a single
         shot at the injection time — the plain model. *)
      if window_ms <= period_ms then model
      else Intermittent { model; period_ms; window_ms }
  | Delayed { model; delay_ms } ->
      let model = canonicalize ~width model in
      if delay_ms = 0 then model else Delayed { model; delay_ms }

let bit_flips ~width =
  if width < 1 || width > 30 then
    invalid_arg "Error_model.bit_flips: width must be in [1, 30]";
  List.init width (fun b -> Bit_flip b)

let rec equal a b =
  match (a, b) with
  | Bit_flip x, Bit_flip y -> Int.equal x y
  | Multi_bit x, Multi_bit y -> List.equal Int.equal x y
  | Burst a, Burst b -> Int.equal a.first b.first && Int.equal a.len b.len
  | Stuck_at x, Stuck_at y -> Int.equal x y
  | Offset x, Offset y -> Int.equal x y
  | Noise x, Noise y -> Int.equal x y
  | Replace_uniform, Replace_uniform -> true
  | Intermittent a, Intermittent b ->
      equal a.model b.model
      && Int.equal a.period_ms b.period_ms
      && Int.equal a.window_ms b.window_ms
  | Delayed a, Delayed b ->
      equal a.model b.model && Int.equal a.delay_ms b.delay_ms
  | ( ( Bit_flip _ | Multi_bit _ | Burst _ | Stuck_at _ | Offset _ | Noise _
      | Replace_uniform | Intermittent _ | Delayed _ ),
      _ ) ->
      false

let rec describe = function
  | Bit_flip b -> Printf.sprintf "bit-flip@%d" b
  | Multi_bit bs ->
      Printf.sprintf "multi-bit@%s"
        (String.concat "+" (List.map string_of_int bs))
  | Burst { first; len } ->
      Printf.sprintf "burst@%d..%d" first (first + len - 1)
  | Stuck_at c -> Printf.sprintf "stuck-at %d" c
  | Offset d -> Printf.sprintf "offset %+d" d
  | Noise amp -> Printf.sprintf "noise %+d..%+d" (-amp) amp
  | Replace_uniform -> "replace-uniform"
  | Intermittent { model; period_ms; window_ms } ->
      Printf.sprintf "%s every %dms for %dms" (describe model) period_ms
        window_ms
  | Delayed { model; delay_ms } ->
      Printf.sprintf "%s after %dms" (describe model) delay_ms

(* Temporal wrappers encode their payload as the rest-of-string tail
   (the payload encoding may itself contain ':'); [validate] forbids
   nesting, so one tail is always the whole payload. *)
let rec encode = function
  | Bit_flip b -> Printf.sprintf "bitflip:%d" b
  | Multi_bit bs ->
      Printf.sprintf "multibit:%s"
        (String.concat "." (List.map string_of_int bs))
  | Burst { first; len } -> Printf.sprintf "burst:%d:%d" first len
  | Stuck_at v -> Printf.sprintf "stuck:%d" v
  | Offset d -> Printf.sprintf "offset:%d" d
  | Noise amp -> Printf.sprintf "noise:%d" amp
  | Replace_uniform -> "uniform"
  | Intermittent { model; period_ms; window_ms } ->
      Printf.sprintf "intermittent:%d:%d:%s" period_ms window_ms
        (encode model)
  | Delayed { model; delay_ms } ->
      Printf.sprintf "delayed:%d:%s" delay_ms (encode model)

let rec decode_fields fields =
  let ( let* ) = Result.bind in
  let int_field name s =
    match int_of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "bad %s %S" name s)
  in
  match fields with
  | [ "uniform" ] -> Ok Replace_uniform
  | [ "bitflip"; b ] ->
      let* b = int_field "bit position" b in
      Ok (Bit_flip b)
  | [ "multibit"; bs ] ->
      let* bs =
        List.fold_left
          (fun acc b ->
            let* acc = acc in
            let* b = int_field "multi-bit position" b in
            Ok (b :: acc))
          (Ok [])
          (String.split_on_char '.' bs)
      in
      Ok (Multi_bit (List.rev bs))
  | [ "burst"; first; len ] ->
      let* first = int_field "burst start" first in
      let* len = int_field "burst length" len in
      Ok (Burst { first; len })
  | [ "stuck"; v ] ->
      let* v = int_field "stuck-at value" v in
      Ok (Stuck_at v)
  | [ "offset"; d ] ->
      let* d = int_field "offset" d in
      Ok (Offset d)
  | [ "noise"; amp ] ->
      let* amp = int_field "noise amplitude" amp in
      Ok (Noise amp)
  | "intermittent" :: period_ms :: window_ms :: (_ :: _ as rest) ->
      let* period_ms = int_field "intermittent period" period_ms in
      let* window_ms = int_field "intermittent window" window_ms in
      let* model = decode_fields rest in
      if is_temporal model then Error "nested temporal error model"
      else Ok (Intermittent { model; period_ms; window_ms })
  | "delayed" :: delay_ms :: (_ :: _ as rest) ->
      let* delay_ms = int_field "delay" delay_ms in
      let* model = decode_fields rest in
      if is_temporal model then Error "nested temporal error model"
      else Ok (Delayed { model; delay_ms })
  | _ ->
      Error
        (Printf.sprintf "unknown error model %S" (String.concat ":" fields))

let decode s = decode_fields (String.split_on_char ':' s)

(* Roster grammar for the CLI's [--model] flag and the ablation bench:
   a spec names a family of models spanning the signal width, so every
   roster exercises the whole value like the paper's per-bit flips. *)
let roster_of_string ~width spec =
  let ( let* ) = Result.bind in
  let* () = check_width width in
  let mask = (1 lsl width) - 1 in
  let int_arg name s =
    match int_of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s: expected an integer, got %S" name s)
  in
  let checked models =
    List.fold_left
      (fun acc m ->
        let* () = acc in
        Result.map_error
          (fun msg -> Printf.sprintf "%s: %s" spec msg)
          (check ~width m))
      (Ok ()) models
    |> Result.map (fun () -> models)
  in
  let rec parse = function
    | [ "single-bit" ] -> Ok (bit_flips ~width)
    | [ "multi-bit"; k ] ->
        let* k = int_arg "multi-bit" k in
        if k < 1 || k > width then
          Error (Printf.sprintf "multi-bit: %d bits outside [1,%d]" k width)
        else
          (* One model per rotation of k positions spread evenly across
             the word; floor(i*width/k) is strictly increasing for
             k <= width, so positions stay distinct. *)
          checked
            (List.init width (fun b ->
                 Multi_bit
                   (List.sort_uniq Int.compare
                      (List.init k (fun i -> (b + (i * width / k)) mod width)))))
    | [ "burst"; len ] ->
        let* len = int_arg "burst" len in
        if len < 1 || len > width then
          Error (Printf.sprintf "burst: length %d outside [1,%d]" len width)
        else
          checked
            (List.init (width - len + 1) (fun first -> Burst { first; len }))
    | [ "stuck-at" ] -> Ok [ Stuck_at 0; Stuck_at mask ]
    | [ "stuck-at"; c ] ->
        let* c = int_arg "stuck-at" c in
        Ok [ Stuck_at (c land mask) ]
    | [ "offset"; d ] ->
        let* d = int_arg "offset" d in
        if d land mask = 0 then
          Error (Printf.sprintf "offset: %d is a no-op at width %d" d width)
        else checked [ Offset d; Offset (-d) ]
    | [ "noise"; amp ] ->
        let* amp = int_arg "noise" amp in
        checked [ Noise amp ]
    | [ "uniform" ] -> Ok [ Replace_uniform ]
    | "delayed" :: delay :: inner ->
        let* delay_ms = int_arg "delayed" delay in
        let* models =
          parse (if inner = [] then [ "single-bit" ] else inner)
        in
        checked (List.map (fun model -> Delayed { model; delay_ms }) models)
    | "intermittent" :: period :: window :: inner ->
        let* period_ms = int_arg "intermittent period" period in
        let* window_ms = int_arg "intermittent window" window in
        let* models =
          parse (if inner = [] then [ "single-bit" ] else inner)
        in
        checked
          (List.map
             (fun model -> Intermittent { model; period_ms; window_ms })
             models)
    | _ ->
        Error
          (Printf.sprintf
             "unknown error-model roster %S (expected single-bit, \
              multi-bit:K, burst:L, stuck-at[:C], offset:D, noise:A, \
              uniform, delayed:MS[:SPEC], intermittent:PERIOD:WINDOW[:SPEC])"
             spec)
  in
  parse (String.split_on_char ':' spec)
