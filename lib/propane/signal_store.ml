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

type t = {
  cells : cell String_tbl.t;
  order : cell array;  (* [create ~signals] order, for the bulk values *)
}

let create ?(modes = []) ~signals () =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name signals) then
        invalid_arg
          (Printf.sprintf "Signal_store.create: mode for unknown signal %S"
             name))
    modes;
  let cells = String_tbl.create (List.length signals * 2) in
  let order =
    List.map
      (fun (name, width) ->
        if String.length name = 0 then
          invalid_arg "Signal_store.create: empty signal name";
        if width < 1 || width > 30 then
          invalid_arg
            (Printf.sprintf "Signal_store.create: width %d outside [1,30]"
               width);
        if String_tbl.mem cells name then
          invalid_arg
            (Printf.sprintf "Signal_store.create: duplicate signal %S" name);
        let mode =
          Option.value ~default:At_read (List.assoc_opt name modes)
        in
        let c =
          {
            mask = (1 lsl width) - 1;
            mode;
            value = 0;
            pending = None;
            guards = [];
          }
        in
        String_tbl.add cells name c;
        c)
      signals
  in
  { cells; order = Array.of_list order }

let cell t name =
  match String_tbl.find_opt t.cells name with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Signal_store: unknown signal %S" name)

let mode t name = (cell t name).mode

(* Guards run in registration order; most cells have none, so the
   hot paths below test for the empty list before calling this. *)
let apply_guards guards v = List.fold_left (fun v g -> g v) v guards

let fire c corrupt =
  c.pending <- None;
  (* A freshly corrupted value crosses the module boundary here, so
     wrapper guards get to inspect (and possibly repair) it just as
     they inspect produced values. *)
  let v = corrupt c.value land c.mask in
  c.value <-
    (match c.guards with [] -> v | guards -> apply_guards guards v land c.mask)

let read_cell c =
  (match c.pending with Some corrupt -> fire c corrupt | None -> ());
  c.value

let read t name = read_cell (cell t name)

let peek t name = (cell t name).value

let write_cell c v =
  c.value <-
    (match c.guards with [] -> v | guards -> apply_guards guards v)
    land c.mask
let write t name v = write_cell (cell t name) v

let poke_cell c v = c.value <- v land c.mask
let poke t name v = poke_cell (cell t name) v

let inject t name corrupt =
  let c = cell t name in
  match c.mode with
  | At_read -> c.pending <- Some corrupt
  | Immediate -> c.value <- corrupt c.value land c.mask

let add_write_guard t name guard =
  let c = cell t name in
  c.guards <- c.guards @ [ guard ]

let length_mismatch what expected values =
  invalid_arg
    (Printf.sprintf "Signal_store.%s: %d values for %d signals" what
       (Array.length values) expected)

let snapshot t buf =
  let order = t.order in
  if Array.length buf <> Array.length order then
    length_mismatch "snapshot" (Array.length order) buf;
  for i = 0 to Array.length order - 1 do
    buf.(i) <- order.(i).value
  done

let load t values =
  let order = t.order in
  if Array.length values <> Array.length order then
    length_mismatch "load" (Array.length order) values;
  for i = 0 to Array.length order - 1 do
    let c = order.(i) in
    c.pending <- None;
    poke_cell c values.(i)
  done

let matches t values =
  let order = t.order in
  if Array.length values <> Array.length order then
    length_mismatch "matches" (Array.length order) values;
  let i = ref 0 in
  while
    !i < Array.length order
    &&
    let c = order.(!i) in
    c.value = values.(!i)
    && match c.pending with None -> true | Some _ -> false
  do
    incr i
  done;
  !i = Array.length order

type handle = cell

let handle = cell
let read_handle = read_cell
let write_handle = write_cell
let poke_handle = poke_cell

(* The port loops test for the common case (no pending trap, no
   guards) in line, so a port costs no call of its own. *)
let read_ports handles buf =
  if Array.length buf <> Array.length handles then
    length_mismatch "read_ports" (Array.length handles) buf;
  for i = 0 to Array.length handles - 1 do
    let c = handles.(i) in
    (match c.pending with Some corrupt -> fire c corrupt | None -> ());
    buf.(i) <- c.value
  done

let write_ports handles values =
  if Array.length values <> Array.length handles then
    length_mismatch "write_ports" (Array.length handles) values;
  for i = 0 to Array.length handles - 1 do
    let c = handles.(i) in
    let v = values.(i) in
    c.value <-
      (match c.guards with [] -> v | guards -> apply_guards guards v)
      land c.mask
  done
