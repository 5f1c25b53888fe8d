let magic = "propane-journal 1"

(* A CR is rejected alongside tab and newline: a CR in a testcase or
   target id would survive into the record and corrupt round-tripping
   of CRLF-touched journals. *)
let check_field name value =
  if
    String.contains value '\t' || String.contains value '\n'
    || String.contains value '\r'
  then
    Error
      (Printf.sprintf "Journal: %s %S contains a separator character" name
         value)
  else Ok ()

(* The crash reason is free text (sanitised of separators by the
   runner); it may contain ':', so it is always the final,
   rest-of-string field. *)
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

(* ------------------------------------------------------------------ *)

type writer = {
  oc : out_channel;
  sync : bool;
  batch : int;
  mutable pending : int;  (* appended records not yet committed *)
}

let commit w =
  w.pending <- 0;
  flush w.oc;
  if w.sync then Unix.fsync (Unix.descr_of_out_channel w.oc)

let flush w = if w.pending > 0 then commit w

let check_batch batch =
  if batch < 1 then Error "Journal: batch must be >= 1" else Ok ()

let create ?(sync = false) ?(batch = 1) ?recipe ~path ~sut ~campaign ~seed
    ~total () =
  let ( let* ) = Result.bind in
  let* () = check_field "sut" sut in
  let* () = check_field "campaign" campaign in
  let* () =
    match recipe with None -> Ok () | Some r -> check_field "recipe" r
  in
  let* () = check_batch batch in
  if total < 0 then Error "Journal: negative total"
  else begin
    let oc = open_out path in
    Printf.fprintf oc "%s\nsut\t%s\ncampaign\t%s\nseed\t%Ld\ntotal\t%d\n" magic
      sut campaign seed total;
    (* The optional recipe line records how to rebuild the exact
       campaign and runner configuration — what [propane replay] needs
       to re-execute one run deterministically.  Journals without it
       keep their pre-recipe bytes. *)
    (match recipe with
    | None -> ()
    | Some r -> Printf.fprintf oc "recipe\t%s\n" r);
    let w = { oc; sync; batch; pending = 0 } in
    commit w;
    Ok w
  end

let append_to ?(sync = false) ?(batch = 1) path =
  let ( let* ) = Result.bind in
  let* () = check_batch batch in
  let contents =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> In_channel.input_all ic)
  in
  match String.index_opt contents '\n' with
  | Some i when String.equal (String.sub contents 0 i) magic ->
      (* Drop an uncommitted trailing fragment (a killed writer's
         half-record) before appending, or the next record would merge
         with it. *)
      let committed = 1 + String.rindex contents '\n' in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd committed;
      let _ = Unix.lseek fd committed Unix.SEEK_SET in
      Ok { oc = Unix.out_channel_of_descr fd; sync; batch; pending = 0 }
  | Some i -> Error (Printf.sprintf "%s:1: bad magic %S" path (String.sub contents 0 i))
  | None -> Error (Printf.sprintf "%s:1: empty file" path)

(* The exact committed record line (no trailing newline) for one
   outcome — the unit [propane replay] compares byte-for-byte against
   the journalled original.  Shared with [append] so there is exactly
   one encoding. *)
let record_string ~index (o : Results.outcome) =
  let ( let* ) = Result.bind in
  if index < 0 then Error "Journal.append: negative index"
  else
    let* () = check_field "testcase" o.testcase in
    let* () = check_field "target" o.injection.Injection.target in
    let* () = check_field "status" (status_to_string o.status) in
    let* () =
      List.fold_left
        (fun acc (d : Golden.divergence) ->
          let* () = acc in
          check_field "signal" d.signal)
        (Ok ()) o.divergences
    in
    let buf = Buffer.create 128 in
    (* Completed runs keep the v1 [run] record byte for byte; a failed
       run writes the v2 [run2] record, which carries its status. *)
    (match o.status with
    | Results.Completed ->
        Printf.bprintf buf "run\t%d\t%s\t%s\t%d\t%s\t%d" index o.testcase
          o.injection.Injection.target
          (Simkernel.Sim_time.to_ms o.injection.Injection.at)
          (Error_model.encode o.injection.Injection.error)
          (List.length o.divergences)
    | status ->
        Printf.bprintf buf "run2\t%d\t%s\t%s\t%d\t%s\t%s\t%d" index o.testcase
          o.injection.Injection.target
          (Simkernel.Sim_time.to_ms o.injection.Injection.at)
          (Error_model.encode o.injection.Injection.error)
          (status_to_string status)
          (List.length o.divergences));
    List.iter
      (fun (d : Golden.divergence) ->
        Printf.bprintf buf "\t%s\t%d" d.signal d.first_ms)
      o.divergences;
    Ok (Buffer.contents buf)

let append w ~index (o : Results.outcome) =
  let ( let* ) = Result.bind in
  let* record = record_string ~index o in
  output_string w.oc record;
  output_char w.oc '\n';
  w.pending <- w.pending + 1;
  if w.pending >= w.batch then commit w;
  Ok ()

type cell = {
  target : string;
  module_name : string;
  key : string;
  reused : bool;
}

(* Cell provenance ties the journal to the reuse plan that produced it:
   which (module, target) cells the campaign covers, under which cache
   keys, and whether each was served from the cache or re-injected.
   Non-reuse campaigns write none, keeping their journals byte-for-byte
   what they were before cells existed. *)
let append_cell w { target; module_name; key; reused } =
  let ( let* ) = Result.bind in
  let* () = check_field "target" target in
  let* () = check_field "module" module_name in
  let* () = check_field "key" key in
  Printf.fprintf w.oc "cell\t%s\t%s\t%s\t%s\n" target module_name key
    (if reused then "reused" else "fresh");
  w.pending <- w.pending + 1;
  if w.pending >= w.batch then commit w;
  Ok ()

let append_cells w cells =
  let ( let* ) = Result.bind in
  let* () =
    List.fold_left
      (fun acc cell ->
        let* () = acc in
        append_cell w cell)
      (Ok ()) cells
  in
  commit w;
  Ok ()

type round = { round : int; target : string; runs : int }

(* Plan rounds tie the journal to the budget scheduler that produced
   it: which round granted which target how many runs.  They are
   appended in one batch when a planned campaign finishes — round
   decisions are a deterministic function of the completed outcomes, so
   a killed-and-resumed campaign re-derives and records the identical
   rounds, keeping final journals byte-identical to uninterrupted ones.
   Unplanned campaigns write none, preserving their exact bytes. *)
let append_round w { round; target; runs } =
  let ( let* ) = Result.bind in
  let* () = check_field "target" target in
  if round < 0 || runs < 0 then Error "Journal: negative plan round fields"
  else begin
    Printf.fprintf w.oc "plan\t%d\t%s\t%d\n" round target runs;
    w.pending <- w.pending + 1;
    if w.pending >= w.batch then commit w;
    Ok ()
  end

let append_rounds w rounds =
  let ( let* ) = Result.bind in
  let* () =
    List.fold_left
      (fun acc r ->
        let* () = acc in
        append_round w r)
      (Ok ()) rounds
  in
  commit w;
  Ok ()

let close w =
  flush w;
  close_out w.oc

(* ------------------------------------------------------------------ *)

type t = {
  sut : string;
  campaign : string;
  seed : int64;
  total : int;
  recipe : string option;
  cells : cell list;
  rounds : round list;
  entries : (int * Results.outcome) list;
}

(* Only newline-terminated lines are committed records: a writer killed
   mid-append leaves a trailing fragment, which is dropped here. *)
let committed_lines path =
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> In_channel.input_all ic)
  in
  match String.rindex_opt contents '\n' with
  | None -> []
  | Some last -> String.split_on_char '\n' (String.sub contents 0 last)

let parse_run ?(versioned = false) lineno fields =
  let ( let* ) = Result.bind in
  let fail msg = Error (Printf.sprintf "%d: %s" lineno msg) in
  (* [run2] records carry a STATUS field between ERROR and NDIV; v1
     [run] records have none and default to [Completed]. *)
  let* status, fields =
    if not versioned then Ok (Results.Completed, fields)
    else
      match fields with
      | index :: testcase :: target :: at_ms :: error :: status :: rest -> (
          match status_of_string status with
          | Ok status ->
              Ok (status, index :: testcase :: target :: at_ms :: error :: rest)
          | Error msg -> fail msg)
      | _ -> fail "short run2 record"
  in
  match fields with
  | index :: testcase :: target :: at_ms :: error :: ndiv :: rest -> (
      match
        ( int_of_string_opt index,
          int_of_string_opt at_ms,
          Error_model.decode error,
          int_of_string_opt ndiv )
      with
      | _ when String.equal target "" -> fail "empty target"
      | Some index, Some at_ms, Ok error, Some ndiv
        when index >= 0 && at_ms >= 0 && ndiv >= 0 ->
          if List.length rest <> 2 * ndiv then
            fail (Printf.sprintf "expected %d divergence fields" (2 * ndiv))
          else
            let rec divs acc = function
              | [] -> Ok (List.rev acc)
              | signal :: first_ms :: rest -> (
                  match int_of_string_opt first_ms with
                  | Some first_ms ->
                      divs ({ Golden.signal; first_ms } :: acc) rest
                  | None ->
                      fail (Printf.sprintf "bad divergence time %S" first_ms))
              | [ _ ] -> fail "odd divergence fields"
            in
            Result.map
              (fun divergences ->
                ( index,
                  {
                    Results.testcase;
                    injection =
                      Injection.make ~target
                        ~at:(Simkernel.Sim_time.of_ms at_ms)
                        ~error;
                    divergences;
                    status;
                  } ))
              (divs [] rest)
      | None, _, _, _ -> fail (Printf.sprintf "bad index %S" index)
      | _, None, _, _ -> fail (Printf.sprintf "bad time %S" at_ms)
      | _, _, Error msg, _ -> fail msg
      | _ -> fail "bad run record")
  | _ -> fail "short run record"

let load path =
  let ( let* ) = Result.bind in
  let fail lineno msg = Error (Printf.sprintf "%s:%d: %s" path lineno msg) in
  let located = Result.map_error (Printf.sprintf "%s:%s" path) in
  match committed_lines path with
  | [] -> fail 1 "empty file"
  | m :: _ when not (String.equal m magic) ->
      fail 1 (Printf.sprintf "bad magic %S" m)
  | _ :: body ->
      let header = Hashtbl.create 4 in
      let rev_cells = ref [] in
      let rev_rounds = ref [] in
      let rec loop lineno rev_entries = function
        | [] -> Ok (List.rev rev_entries)
        | "" :: rest -> loop (lineno + 1) rev_entries rest
        | line :: rest -> (
            match String.split_on_char '\t' line with
            | [ (("sut" | "campaign" | "seed" | "total" | "recipe") as key);
                value;
              ] ->
                Hashtbl.replace header key value;
                loop (lineno + 1) rev_entries rest
            | [ "cell"; target; module_name; key; status ] -> (
                match status with
                | "reused" | "fresh" ->
                    rev_cells :=
                      { target; module_name; key; reused = status = "reused" }
                      :: !rev_cells;
                    loop (lineno + 1) rev_entries rest
                | _ ->
                    fail lineno (Printf.sprintf "bad cell status %S" status))
            | [ "plan"; round; target; runs ] -> (
                match (int_of_string_opt round, int_of_string_opt runs) with
                | Some round, Some runs when round >= 0 && runs >= 0 ->
                    rev_rounds := { round; target; runs } :: !rev_rounds;
                    loop (lineno + 1) rev_entries rest
                | _ ->
                    fail lineno (Printf.sprintf "bad plan record %S" line))
            | "run" :: fields ->
                let* entry = located (parse_run lineno fields) in
                loop (lineno + 1) (entry :: rev_entries) rest
            | "run2" :: fields ->
                let* entry = located (parse_run ~versioned:true lineno fields) in
                loop (lineno + 1) (entry :: rev_entries) rest
            | _ -> fail lineno (Printf.sprintf "unrecognised line %S" line))
      in
      let* entries = loop 2 [] body in
      let cells = List.rev !rev_cells in
      let rounds = List.rev !rev_rounds in
      let field key =
        match Hashtbl.find_opt header key with
        | Some v -> Ok v
        | None -> fail 1 (Printf.sprintf "missing %s header" key)
      in
      let* sut = field "sut" in
      let* campaign = field "campaign" in
      let* seed = field "seed" in
      let* total = field "total" in
      let* seed =
        match Int64.of_string_opt seed with
        | Some s -> Ok s
        | None -> fail 1 (Printf.sprintf "bad seed %S" seed)
      in
      let* total =
        match int_of_string_opt total with
        | Some t when t >= 0 -> Ok t
        | _ -> fail 1 (Printf.sprintf "bad total %S" total)
      in
      let recipe = Hashtbl.find_opt header "recipe" in
      Ok { sut; campaign; seed; total; recipe; cells; rounds; entries }

let validate t ~path ~sut ~campaign ~seed ~total =
  let ( let* ) = Result.bind in
  let check cond msg = if cond then Ok () else Error msg in
  let* () =
    check
      (String.equal t.sut sut)
      (Printf.sprintf "journal %s is for SUT %S, not %S" path t.sut sut)
  in
  let* () =
    check
      (String.equal t.campaign campaign)
      (Printf.sprintf "journal %s is for campaign %S, not %S" path t.campaign
         campaign)
  in
  let* () =
    check
      (Int64.equal t.seed seed)
      (Printf.sprintf "journal %s was recorded with seed %Ld, not %Ld" path
         t.seed seed)
  in
  let* () =
    check (t.total = total)
      (Printf.sprintf "journal %s expects %d runs, campaign has %d" path
         t.total total)
  in
  List.fold_left
    (fun acc (index, _) ->
      let* () = acc in
      check
        (index < total)
        (Printf.sprintf "journal %s: index %d out of range" path index))
    (Ok ()) t.entries

(* Last-wins: a crashed worker's record can be superseded by a retry
   appended later in the same journal, and the retry is the outcome the
   resumed campaign must trust. *)
let completed t =
  let table = Hashtbl.create (List.length t.entries) in
  List.iter
    (fun (index, outcome) -> Hashtbl.replace table index outcome)
    t.entries;
  table

let results t =
  let table = completed t in
  let results = Results.create ~sut:t.sut ~campaign:t.campaign in
  Hashtbl.to_seq_keys table |> List.of_seq |> List.sort Int.compare
  |> List.iter (fun index -> Results.add results (Hashtbl.find table index));
  results
