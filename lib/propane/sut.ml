type state = ..
type state_hook = { save : unit -> state; restore : state -> unit }

type instance = {
  read : string -> int;
  write : string -> int -> unit;
  inject : string -> (int -> int) -> unit;
  step : unit -> unit;
  finished : unit -> bool;
  snapshot : (int array -> unit) option;
  state_hook : state_hook option;
}

type t = {
  name : string;
  signals : (string * int) list;
  digests : (string * string) list;
  instantiate : Testcase.t -> instance;
}

let signal_names t = List.map fst t.signals

let digest_of t m = List.assoc_opt m t.digests

let signal_width t s =
  match List.assoc_opt s t.signals with
  | Some w -> w
  | None ->
      invalid_arg
        (Printf.sprintf "Sut.signal_width: %S has no signal %S" t.name s)

let has_signal t s = List.mem_assoc s t.signals
