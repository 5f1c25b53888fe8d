type t = {
  target : string;
  at : Simkernel.Sim_time.t;
  error : Error_model.t;
}

let make ~target ~at ~error =
  if String.length target = 0 then invalid_arg "Injection.make: empty target";
  if Error_model.is_temporal (Error_model.payload error) then
    invalid_arg "Injection.make: temporal error models cannot nest";
  { target; at; error }

let inject_ms t = Simkernel.Sim_time.to_ms t.at
let first_fire_ms t = Error_model.first_fire_ms t.error ~inject_ms:(inject_ms t)
let last_fire_ms t = Error_model.last_fire_ms t.error ~inject_ms:(inject_ms t)
