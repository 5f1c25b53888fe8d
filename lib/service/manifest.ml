let magic = "propane-service-manifest 1"

type state = Queued | Running | Done | Cancelled | Failed

let state_to_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Cancelled -> "cancelled"
  | Failed -> "failed"

let state_of_string = function
  | "queued" -> Ok Queued
  | "running" -> Ok Running
  | "done" -> Ok Done
  | "cancelled" -> Ok Cancelled
  | "failed" -> Ok Failed
  | s -> Error (Printf.sprintf "unknown campaign state %S" s)

let terminal = function
  | Done | Cancelled | Failed -> true
  | Queued | Running -> false

type entry = { id : string; body : string; state : state; reason : string }

type t = { oc : out_channel }

(* Bodies are JSON and reasons are free text: both may contain tabs
   and newlines, which the line format forbids.  [String.escaped] /
   [Scanf.unescaped] round-trip every byte. *)
let enc = String.escaped

let dec s = try Ok (Scanf.unescaped s) with _ -> Error "bad escape sequence"

(* The committed prefix of a manifest: every newline-terminated line.
   Whatever follows the last newline is a crash artifact (a torn
   append), never a record, exactly like the journal's torn-fragment
   rule. *)
let committed_length contents =
  match String.rindex_opt contents '\n' with None -> 0 | Some i -> i + 1

let read path = In_channel.with_open_bin path In_channel.input_all

let load path =
  if not (Sys.file_exists path) then Ok []
  else begin
    let contents = read path in
    let committed = committed_length contents in
    let ( let* ) = Result.bind in
    let* lines =
      if committed = 0 then Error (Printf.sprintf "%s: empty manifest" path)
      else
        match
          String.split_on_char '\n' (String.sub contents 0 (committed - 1))
        with
        | header :: lines when String.equal header magic -> Ok lines
        | header :: _ ->
            Error
              (Printf.sprintf "%s: not a service manifest (%S)" path header)
        | [] -> Error (Printf.sprintf "%s: empty manifest" path)
    in
    (* Submissions in order; the latest state line per id wins. *)
    let entries : (string, entry) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    let rec go lineno = function
      | [] -> Ok ()
      | line :: rest -> (
          let fail msg = Error (Printf.sprintf "%s:%d: %s" path lineno msg) in
          match String.split_on_char '\t' line with
          | [ "campaign"; id; body ] -> (
              match dec body with
              | Error msg -> fail msg
              | Ok body ->
                  if Hashtbl.mem entries id then
                    fail (Printf.sprintf "duplicate campaign %s" id)
                  else begin
                    Hashtbl.replace entries id
                      { id; body; state = Queued; reason = "" };
                    order := id :: !order;
                    go (lineno + 1) rest
                  end)
          | [ "state"; id; state; reason ] -> (
              match (state_of_string state, dec reason) with
              | Error msg, _ | _, Error msg -> fail msg
              | Ok state, Ok reason -> (
                  match Hashtbl.find_opt entries id with
                  | None ->
                      fail (Printf.sprintf "state for unknown campaign %s" id)
                  | Some e ->
                      Hashtbl.replace entries id { e with state; reason };
                      go (lineno + 1) rest))
          | _ -> fail (Printf.sprintf "malformed line %S" line))
    in
    let* () = go 2 lines in
    Ok (List.rev_map (Hashtbl.find entries) !order)
  end

let append path =
  let header = magic ^ "\n" in
  let contents = if Sys.file_exists path then read path else "" in
  let committed = committed_length contents in
  if
    not
      (if committed = 0 then String.starts_with ~prefix:contents header
       else String.starts_with ~prefix:header contents)
  then Error (Printf.sprintf "%s: not a service manifest" path)
  else
    match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 with
    | fd ->
        (* Drop a torn trailing fragment before appending, or the next
           record would merge with it into one malformed line.  A file
           with no committed line (new, or torn inside its header) gets
           the header. *)
        Unix.ftruncate fd committed;
        ignore (Unix.lseek fd committed Unix.SEEK_SET : int);
        let oc = Unix.out_channel_of_descr fd in
        if committed = 0 then begin
          output_string oc header;
          flush oc
        end;
        Ok { oc }
    | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "%s: %s" path (Unix.error_message e))

let submit t ~id ~body =
  Printf.fprintf t.oc "campaign\t%s\t%s\n" id (enc body);
  flush t.oc

let transition t ~id state ~reason =
  Printf.fprintf t.oc "state\t%s\t%s\t%s\n" id (state_to_string state)
    (enc reason);
  flush t.oc

let close t = close_out_noerr t.oc
