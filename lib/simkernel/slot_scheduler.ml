type task = { name : string; run : unit -> unit }

type t = {
  slots : int;
  slot_source : unit -> int;
  tasks : task list array;  (* per slot, in registration order *)
  mutable background : task option;
  mutable ticks : int;
  mutable last_slot : int;  (* -1 before the first tick *)
}

let create ?(slots = 7) ~slot_source () =
  if slots < 1 then invalid_arg "Slot_scheduler.create: slots must be >= 1";
  {
    slots;
    slot_source;
    tasks = Array.make slots [];
    background = None;
    ticks = 0;
    last_slot = -1;
  }

let add_task t ~slot ~name run =
  if slot < 0 || slot >= t.slots then
    invalid_arg
      (Printf.sprintf "Slot_scheduler.add_task: slot %d outside [0,%d)" slot
         t.slots);
  t.tasks.(slot) <- t.tasks.(slot) @ [ { name; run } ]

let add_every_slot t ~name run =
  for slot = 0 to t.slots - 1 do
    add_task t ~slot ~name run
  done

let set_background t ~name run = t.background <- Some { name; run }

let tick t =
  (* A corrupted slot number still selects a slot: reduce into range the
     way the 3-bit hardware counter of the target would. *)
  let raw = t.slot_source () in
  let slot = ((raw mod t.slots) + t.slots) mod t.slots in
  t.last_slot <- slot;
  List.iter (fun task -> task.run ()) t.tasks.(slot);
  (match t.background with Some task -> task.run () | None -> ());
  t.ticks <- t.ticks + 1

let run t ~ms =
  if ms < 0 then invalid_arg "Slot_scheduler.run: negative duration";
  for _ = 1 to ms do
    tick t
  done

let ticks t = t.ticks
let last_slot t = if t.last_slot < 0 then None else Some t.last_slot

type state = { s_ticks : int; s_last_slot : int }

let save t = { s_ticks = t.ticks; s_last_slot = t.last_slot }

let restore t s =
  t.ticks <- s.s_ticks;
  t.last_slot <- s.s_last_slot

let matches t s = t.ticks = s.s_ticks && t.last_slot = s.s_last_slot
