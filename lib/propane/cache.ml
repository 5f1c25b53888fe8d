let magic = "propane-cache 1"

type entry = {
  module_name : string;
  target : string;
  outputs : string array;
  counts : (int * int) array;
}

let check_field name value =
  if
    String.contains value '\t' || String.contains value '\n'
    || String.contains value '\r'
  then
    Error
      (Printf.sprintf "Cache: %s %S contains a separator character" name value)
  else Ok ()

(* Keys name files directly; reject anything that could escape [dir]. *)
let check_key key =
  if
    key = ""
    || String.exists
         (fun c ->
           not ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
              || (c >= 'A' && c <= 'F')))
         key
  then Error (Printf.sprintf "Cache: malformed key %S" key)
  else Ok ()

let path ~dir ~key = Filename.concat dir key

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try
      Unix.mkdir dir 0o755;
      Ok ()
    with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> Ok ()
    | Unix.Unix_error (e, _, _) ->
        Error
          (Printf.sprintf "Cache: cannot create %s: %s" dir
             (Unix.error_message e))
  else if Sys.is_directory dir then Ok ()
  else Error (Printf.sprintf "Cache: %s exists and is not a directory" dir)

(* Temp-file-plus-rename: concurrent writers of the same key race to a
   whole entry each, never to interleaved lines. *)
let atomic_write ~dir ~file contents =
  let ( let* ) = Result.bind in
  let* () = ensure_dir dir in
  try
    let tmp =
      Filename.temp_file ~temp_dir:dir ("." ^ Filename.basename file) ".tmp"
    in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
      (fun () ->
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc contents);
        Sys.rename tmp (Filename.concat dir file));
    Ok ()
  with Sys_error msg | Unix.Unix_error (_, msg, _) ->
    Error (Printf.sprintf "Cache: %s" msg)

let store ~dir ~key entry =
  let ( let* ) = Result.bind in
  let* () = check_key key in
  let* () = check_field "module" entry.module_name in
  let* () = check_field "target" entry.target in
  let* () =
    Array.fold_left
      (fun acc o ->
        let* () = acc in
        check_field "output" o)
      (Ok ()) entry.outputs
  in
  if Array.length entry.outputs <> Array.length entry.counts then
    Error "Cache: outputs/counts length mismatch"
  else begin
    let buf = Buffer.create 256 in
    Buffer.add_string buf magic;
    Buffer.add_char buf '\n';
    Printf.bprintf buf "module\t%s\n" entry.module_name;
    Printf.bprintf buf "target\t%s\n" entry.target;
    Array.iteri
      (fun k output ->
        let n_err, n_inj = entry.counts.(k) in
        Printf.bprintf buf "cell\t%s\t%d\t%d\n" output n_err n_inj)
      entry.outputs;
    atomic_write ~dir ~file:key (Buffer.contents buf)
  end

let load ~dir ~key =
  match check_key key with
  | Error _ -> None
  | Ok () -> (
      let file = path ~dir ~key in
      match
        if Sys.file_exists file && not (Sys.is_directory file) then
          let ic = open_in_bin file in
          Some
            (Fun.protect
               ~finally:(fun () -> close_in ic)
               (fun () -> In_channel.input_all ic))
        else None
      with
      | None -> None
      | Some contents -> (
          (* Any deviation from the format is a miss: the entry will be
             re-measured and overwritten, never trusted. *)
          let lines = String.split_on_char '\n' contents in
          let parse () =
            match lines with
            | m :: rest when String.equal m magic -> (
                let module_name = ref None
                and target = ref None
                and cells = ref [] in
                let ok =
                  List.for_all
                    (fun line ->
                      match String.split_on_char '\t' line with
                      | [ "" ] -> true
                      | [ "module"; v ] ->
                          !module_name = None
                          &&
                          (module_name := Some v;
                           true)
                      | [ "target"; v ] ->
                          !target = None
                          &&
                          (target := Some v;
                           true)
                      | [ "cell"; output; n_err; n_inj ] -> (
                          match
                            (int_of_string_opt n_err, int_of_string_opt n_inj)
                          with
                          | Some e, Some i when 0 <= e && e <= i ->
                              cells := (output, (e, i)) :: !cells;
                              true
                          | _ -> false)
                      | _ -> false)
                    rest
                in
                match (ok, !module_name, !target) with
                | true, Some module_name, Some target ->
                    let cells = List.rev !cells in
                    Some
                      {
                        module_name;
                        target;
                        outputs = Array.of_list (List.map fst cells);
                        counts = Array.of_list (List.map snd cells);
                      }
                | _ -> None)
            | _ -> None
          in
          match parse () with
          | Some e when Array.length e.outputs > 0 -> Some e
          | _ -> None))

let mem ~dir ~key =
  match check_key key with
  | Error _ -> false
  | Ok () ->
      let file = path ~dir ~key in
      Sys.file_exists file && not (Sys.is_directory file)

type stats = {
  cells : int;
  reused : int;
  fresh : int;
  runs_total : int;
  runs_selected : int;
}

let write_stats ~dir stats =
  let json =
    Printf.sprintf
      "{\n\
      \  \"cells\": %d,\n\
      \  \"reused\": %d,\n\
      \  \"fresh\": %d,\n\
      \  \"hit_rate\": %.4f,\n\
      \  \"runs_total\": %d,\n\
      \  \"runs_selected\": %d,\n\
      \  \"runs_skipped\": %d\n\
       }\n"
      stats.cells stats.reused stats.fresh
      (if stats.cells = 0 then 0.0
       else float_of_int stats.reused /. float_of_int stats.cells)
      stats.runs_total stats.runs_selected
      (stats.runs_total - stats.runs_selected)
  in
  atomic_write ~dir ~file:"stats.json" json
