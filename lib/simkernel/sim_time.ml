type t = int

let of_ms ms =
  if ms < 0 then invalid_arg "Sim_time.of_ms: negative time" else ms

let to_ms t = t
