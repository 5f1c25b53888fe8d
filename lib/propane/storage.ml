let results_magic = "propane-results 1"

(* Temporal wrappers encode their payload as the rest-of-string tail
   (the payload encoding may itself contain ':'); [Error_model.validate]
   forbids nesting, so one tail is always the whole payload. *)
let rec error_to_string = function
  | Error_model.Bit_flip b -> Printf.sprintf "bitflip:%d" b
  | Error_model.Multi_bit bs ->
      Printf.sprintf "multibit:%s"
        (String.concat "." (List.map string_of_int bs))
  | Error_model.Burst { first; len } -> Printf.sprintf "burst:%d:%d" first len
  | Error_model.Stuck_at v -> Printf.sprintf "stuck:%d" v
  | Error_model.Offset d -> Printf.sprintf "offset:%d" d
  | Error_model.Noise amp -> Printf.sprintf "noise:%d" amp
  | Error_model.Replace_uniform -> "uniform"
  | Error_model.Intermittent { model; period_ms; window_ms } ->
      Printf.sprintf "intermittent:%d:%d:%s" period_ms window_ms
        (error_to_string model)
  | Error_model.Delayed { model; delay_ms } ->
      Printf.sprintf "delayed:%d:%s" delay_ms (error_to_string model)

(* Status serialisation shared with the journal.  The crash reason is
   free text (sanitised of separators by the runner); it may contain
   ':', so it is always the final, rest-of-string field. *)
let status_to_string = function
  | Results.Completed -> "completed"
  | Results.Crashed { at_ms; reason } ->
      Printf.sprintf "crashed:%d:%s" at_ms reason
  | Results.Hung { budget_ms } -> Printf.sprintf "hung:%d" budget_ms

let status_of_string s =
  match String.split_on_char ':' s with
  | [ "completed" ] -> Ok Results.Completed
  | "crashed" :: at_ms :: rest -> (
      match int_of_string_opt at_ms with
      | Some at_ms when at_ms >= 0 ->
          Ok (Results.Crashed { at_ms; reason = String.concat ":" rest })
      | _ -> Error (Printf.sprintf "bad crash time %S" at_ms))
  | [ "hung"; budget_ms ] -> (
      match int_of_string_opt budget_ms with
      | Some budget_ms when budget_ms >= 0 -> Ok (Results.Hung { budget_ms })
      | _ -> Error (Printf.sprintf "bad hang budget %S" budget_ms))
  | _ -> Error (Printf.sprintf "unknown run status %S" s)

let rec error_of_fields fields =
  let ( let* ) = Result.bind in
  let int_field name s =
    match int_of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "bad %s %S" name s)
  in
  match fields with
  | [ "uniform" ] -> Ok Error_model.Replace_uniform
  | [ "bitflip"; b ] ->
      let* b = int_field "bit position" b in
      Ok (Error_model.Bit_flip b)
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
      Ok (Error_model.Multi_bit (List.rev bs))
  | [ "burst"; first; len ] ->
      let* first = int_field "burst start" first in
      let* len = int_field "burst length" len in
      Ok (Error_model.Burst { first; len })
  | [ "stuck"; v ] ->
      let* v = int_field "stuck-at value" v in
      Ok (Error_model.Stuck_at v)
  | [ "offset"; d ] ->
      let* d = int_field "offset" d in
      Ok (Error_model.Offset d)
  | [ "noise"; amp ] ->
      let* amp = int_field "noise amplitude" amp in
      Ok (Error_model.Noise amp)
  | "intermittent" :: period_ms :: window_ms :: (_ :: _ as rest) ->
      let* period_ms = int_field "intermittent period" period_ms in
      let* window_ms = int_field "intermittent window" window_ms in
      let* model = error_of_fields rest in
      if Error_model.is_temporal model then
        Error "nested temporal error model"
      else Ok (Error_model.Intermittent { model; period_ms; window_ms })
  | "delayed" :: delay_ms :: (_ :: _ as rest) ->
      let* delay_ms = int_field "delay" delay_ms in
      let* model = error_of_fields rest in
      if Error_model.is_temporal model then
        Error "nested temporal error model"
      else Ok (Error_model.Delayed { model; delay_ms })
  | _ ->
      Error
        (Printf.sprintf "unknown error model %S" (String.concat ":" fields))

let error_of_string s = error_of_fields (String.split_on_char ':' s)

let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let with_in path f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)

(* A CR is rejected alongside the separators: it would survive into the
   record and corrupt round-tripping of CRLF-touched files. *)
let check_field name value =
  if
    String.contains value '\t' || String.contains value '\n'
    || String.contains value '\r'
  then
    Error
      (Printf.sprintf "Storage: %s %S contains a separator character" name
         value)
  else Ok ()

let check_fields checks =
  List.fold_left
    (fun acc (name, value) -> Result.bind acc (fun () -> check_field name value))
    (Ok ()) checks

let save_results path results =
  let ( let* ) = Result.bind in
  (* Validate every field before opening the file, so a bad name never
     leaves a half-written file behind. *)
  let* () =
    check_fields
      [
        ("sut", Results.sut results); ("campaign", Results.campaign results);
      ]
  in
  let* () =
    List.fold_left
      (fun acc (o : Results.outcome) ->
        let* () = acc in
        check_fields
          (("testcase", o.testcase)
          :: ("target", o.injection.Injection.target)
          :: ("status", status_to_string o.status)
          :: List.map
               (fun (d : Golden.divergence) -> ("signal", d.signal))
               o.divergences))
      (Ok ()) (Results.outcomes results)
  in
  with_out path (fun oc ->
      let line fmt = Printf.fprintf oc (fmt ^^ "\n") in
      line "%s" results_magic;
      line "sut\t%s" (Results.sut results);
      line "campaign\t%s" (Results.campaign results);
      List.iter
        (fun (o : Results.outcome) ->
          line "outcome\t%s\t%s\t%d\t%s" o.testcase
            o.injection.Injection.target
            (Simkernel.Sim_time.to_ms o.injection.Injection.at)
            (error_to_string o.injection.Injection.error);
          (* Clean runs keep the v1 format byte for byte; only failed
             runs grow a status line. *)
          (match o.status with
          | Results.Completed -> ()
          | status -> line "status\t%s" (status_to_string status));
          List.iter
            (fun (d : Golden.divergence) ->
              line "div\t%s\t%d" d.signal d.first_ms)
            o.divergences)
        (Results.outcomes results);
      Ok ())

type parse_state = {
  mutable sut : string option;
  mutable campaign : string option;
  mutable results : Results.t option;
  (* current outcome under construction, divergences reversed *)
  mutable current :
    (string * Injection.t * Results.status * Golden.divergence list) option;
}

let load_results path =
  let ( let* ) = Result.bind in
  let fail lineno msg = Error (Printf.sprintf "%s:%d: %s" path lineno msg) in
  with_in path (fun ic ->
      let state = { sut = None; campaign = None; results = None; current = None } in
      let flush_current () =
        match (state.results, state.current) with
        | Some results, Some (testcase, injection, status, rev_divs) ->
            Results.add results
              {
                Results.testcase;
                injection;
                divergences = List.rev rev_divs;
                status;
              };
            state.current <- None
        | _, None -> ()
        | None, Some _ -> assert false
      in
      let ensure_header lineno =
        match (state.sut, state.campaign) with
        | Some sut, Some campaign ->
            (match state.results with
            | None -> state.results <- Some (Results.create ~sut ~campaign)
            | Some _ -> ());
            Ok ()
        | _ -> fail lineno "outcome before sut/campaign header"
      in
      let parse_line lineno line =
        match String.split_on_char '\t' line with
        | [ "sut"; name ] ->
            state.sut <- Some name;
            Ok ()
        | [ "campaign"; name ] ->
            state.campaign <- Some name;
            Ok ()
        | [ "outcome"; testcase; target; at_ms; error ] -> (
            let* () = ensure_header lineno in
            flush_current ();
            match (int_of_string_opt at_ms, error_of_string error) with
            | Some at_ms, Ok error when at_ms >= 0 ->
                state.current <-
                  Some
                    ( testcase,
                      Injection.make ~target
                        ~at:(Simkernel.Sim_time.of_ms at_ms)
                        ~error,
                      Results.Completed,
                      [] );
                Ok ()
            | None, _ -> fail lineno (Printf.sprintf "bad time %S" at_ms)
            | Some t, _ when t < 0 ->
                fail lineno (Printf.sprintf "negative time %S" at_ms)
            | _, Error msg -> fail lineno msg
            | _, Ok _ -> fail lineno "bad outcome line")
        | [ "div"; signal; first_ms ] -> (
            match (state.current, int_of_string_opt first_ms) with
            | Some (tc, inj, status, divs), Some first_ms ->
                state.current <-
                  Some (tc, inj, status, { Golden.signal; first_ms } :: divs);
                Ok ()
            | None, _ -> fail lineno "divergence before any outcome"
            | _, None -> fail lineno (Printf.sprintf "bad time %S" first_ms))
        | "status" :: rest -> (
            (* The status value itself may contain ':' but never '\t';
               rejoin in case a crash reason ever grows tabs upstream. *)
            match (state.current, status_of_string (String.concat "\t" rest)) with
            | Some (tc, inj, _, divs), Ok status ->
                state.current <- Some (tc, inj, status, divs);
                Ok ()
            | None, _ -> fail lineno "status before any outcome"
            | _, Error msg -> fail lineno msg)
        | [ "" ] -> Ok ()
        | _ -> fail lineno (Printf.sprintf "unrecognised line %S" line)
      in
      let* () =
        match In_channel.input_line ic with
        | Some magic when String.equal magic results_magic -> Ok ()
        | Some magic -> fail 1 (Printf.sprintf "bad magic %S" magic)
        | None -> fail 1 "empty file"
      in
      let rec loop lineno =
        match In_channel.input_line ic with
        | None ->
            let* () = ensure_header lineno in
            flush_current ();
            Ok (Option.get state.results)
        | Some line ->
            let* () = parse_line lineno line in
            loop (lineno + 1)
      in
      loop 2)
