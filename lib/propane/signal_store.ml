module String_tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type mode = At_read | Immediate

type cell = {
  mask : int;
  mode : mode;
  mutable value : int;
  mutable pending : (int -> int) option;
  mutable guards : (int -> int) list;  (* in application order *)
}

type t = cell String_tbl.t

let create ?(modes = []) ~signals () =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name signals) then
        invalid_arg
          (Printf.sprintf "Signal_store.create: mode for unknown signal %S"
             name))
    modes;
  let cells = String_tbl.create (List.length signals * 2) in
  List.iter
    (fun (name, width) ->
      if String.length name = 0 then
        invalid_arg "Signal_store.create: empty signal name";
      if width < 1 || width > 30 then
        invalid_arg
          (Printf.sprintf "Signal_store.create: width %d outside [1,30]" width);
      if String_tbl.mem cells name then
        invalid_arg
          (Printf.sprintf "Signal_store.create: duplicate signal %S" name);
      let mode =
        Option.value ~default:At_read (List.assoc_opt name modes)
      in
      String_tbl.add cells name
        {
          mask = (1 lsl width) - 1;
          mode;
          value = 0;
          pending = None;
          guards = [];
        })
    signals;
  cells

let cell t name =
  match String_tbl.find_opt t name with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Signal_store: unknown signal %S" name)

let mode t name = (cell t name).mode

let apply_guards c v = List.fold_left (fun v g -> g v) v c.guards

let read_cell c =
  (match c.pending with
  | Some corrupt ->
      c.pending <- None;
      (* A freshly corrupted value crosses the module boundary here, so
         wrapper guards get to inspect (and possibly repair) it just as
         they inspect produced values. *)
      c.value <- apply_guards c (corrupt c.value land c.mask) land c.mask
  | None -> ());
  c.value

let read t name = read_cell (cell t name)

let peek t name = (cell t name).value

let write_cell c v = c.value <- apply_guards c v land c.mask
let write t name v = write_cell (cell t name) v

let poke t name v =
  let c = cell t name in
  c.value <- v land c.mask

let inject t name corrupt =
  let c = cell t name in
  match c.mode with
  | At_read -> c.pending <- Some corrupt
  | Immediate -> c.value <- corrupt c.value land c.mask

let pending_injection t name = (cell t name).pending <> None

let clear_injections t =
  String_tbl.iter (fun _ c -> c.pending <- None) t

let add_write_guard t name guard =
  let c = cell t name in
  c.guards <- c.guards @ [ guard ]

type handle = cell

let handle = cell
let read_handle = read_cell
let peek_handle c = c.value
let write_handle = write_cell
let poke_handle c v = c.value <- v land c.mask
