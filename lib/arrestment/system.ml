module Store = Propane.Signal_store

type guard = { signal : string; make_transform : unit -> int -> int }

let testcase ~mass_kg ~velocity_mps =
  Propane.Testcase.make
    ~id:(Printf.sprintf "m%.0f-v%.0f" mass_kg velocity_mps)
    ~params:[ ("mass", mass_kg); ("velocity", velocity_mps) ]

let hardware_registers =
  [ Signals.pacnt; Signals.tic1; Signals.tcnt; Signals.adc; Signals.toc2 ]

(* Everything an instance's future depends on, copied out of it: the
   register and signal values (store layout order), then each stateful
   component's own variables.  PRES_A keeps no state. *)
type saved = {
  values : int array;
  environment : Environment.state;
  clock : Clock_mod.state;
  dist_s : Dist_s.state;
  pres_s : Pres_s.state;
  calc : Calc.state;
  v_reg : V_reg.state;
  scheduler : Simkernel.Slot_scheduler.state;
}

type Propane.Sut.state += Arrestment of saved

let instantiate guards tc =
  let mass_kg = Propane.Testcase.param_exn tc "mass" in
  let velocity_mps = Propane.Testcase.param_exn tc "velocity" in
  let store =
    Store.create
      ~modes:
        (List.map
           (fun s -> (Propagation.Signal.name s, Store.Immediate))
           hardware_registers)
      ~signals:Signals.store_layout ()
  in
  List.iter
    (fun g -> Store.add_write_guard store g.signal (g.make_transform ()))
    guards;
  let env = Environment.create store ~mass_kg ~velocity_mps in
  let clock = Clock_mod.create store in
  let dist_s = Dist_s.create store in
  let pres_s =
    Pres_s.create store ~start_conversion:(fun () ->
        Environment.convert_adc env)
  in
  let calc = Calc.create store in
  let v_reg = V_reg.create store in
  let pres_a = Pres_a.create store in
  let slot_handle =
    Store.handle store (Propagation.Signal.name Signals.ms_slot_nbr)
  in
  let scheduler =
    Simkernel.Slot_scheduler.create ~slots:7
      ~slot_source:(fun () -> Store.read_handle slot_handle)
      ()
  in
  Simkernel.Slot_scheduler.add_every_slot scheduler ~name:"CLOCK" (fun () ->
      Clock_mod.step clock);
  Simkernel.Slot_scheduler.add_every_slot scheduler ~name:"DIST_S" (fun () ->
      Dist_s.step dist_s);
  Simkernel.Slot_scheduler.add_task scheduler ~slot:1 ~name:"PRES_S" (fun () ->
      Pres_s.step pres_s);
  Simkernel.Slot_scheduler.add_task scheduler ~slot:3 ~name:"V_REG" (fun () ->
      V_reg.step v_reg);
  Simkernel.Slot_scheduler.add_task scheduler ~slot:5 ~name:"PRES_A" (fun () ->
      Pres_a.step pres_a);
  Simkernel.Slot_scheduler.set_background scheduler ~name:"CALC" (fun () ->
      Calc.step calc);
  let save () =
    let values = Array.make (List.length Signals.store_layout) 0 in
    Store.snapshot store values;
    Arrestment
      {
        values;
        environment = Environment.save env;
        clock = Clock_mod.save clock;
        dist_s = Dist_s.save dist_s;
        pres_s = Pres_s.save pres_s;
        calc = Calc.save calc;
        v_reg = V_reg.save v_reg;
        scheduler = Simkernel.Slot_scheduler.save scheduler;
      }
  in
  let restore = function
    | Arrestment s ->
        Store.load store s.values;
        Environment.restore env s.environment;
        Clock_mod.restore clock s.clock;
        Dist_s.restore dist_s s.dist_s;
        Pres_s.restore pres_s s.pres_s;
        Calc.restore calc s.calc;
        V_reg.restore v_reg s.v_reg;
        Simkernel.Slot_scheduler.restore scheduler s.scheduler
    | _ -> invalid_arg "Arrestment.System: not an arrestment state"
  in
  (* The store first: its values differ in most runs that have not
     rejoined the golden run. *)
  let matches = function
    | Arrestment s ->
        Store.matches store s.values
        && Environment.matches env s.environment
        && Clock_mod.matches clock s.clock
        && Dist_s.matches dist_s s.dist_s
        && Pres_s.matches pres_s s.pres_s
        && Calc.matches calc s.calc
        && V_reg.matches v_reg s.v_reg
        && Simkernel.Slot_scheduler.matches scheduler s.scheduler
    | _ -> invalid_arg "Arrestment.System: not an arrestment state"
  in
  {
    Propane.Sut.read = Store.peek store;
    inject = Store.inject store;
    step =
      (fun () ->
        Environment.pre_step env;
        Simkernel.Slot_scheduler.tick scheduler;
        Environment.post_step env);
    finished = (fun () -> Environment.finished env);
    snapshot = Some (Store.snapshot store);
    (* A guard closure keeps per-run state the saved state cannot
       carry, so guarded instances always start at millisecond 0. *)
    state_hook =
      (match guards with
      | [] -> Some { save; restore; matches }
      | _ :: _ -> None);
  }

let sut ?(guards = []) ?fault () =
  let sut =
    {
      Propane.Sut.name = "arrestment";
      signals = Signals.store_layout;
      digests = Model.module_digests;
      instantiate = instantiate guards;
    }
  in
  match fault with None -> sut | Some spec -> Propane.Fault.apply spec sut

let mission_failed ~golden ~run =
  let final traces signal =
    Propane.Trace_set.get traces signal
      (Propane.Trace_set.duration_ms traces - 1)
  in
  let run_pulscnt = final run "pulscnt" in
  let overrun =
    float_of_int run_pulscnt /. Params.pulses_per_metre
    >= Params.runway_length_m
  in
  let still_rolling =
    final run "stopped" = 0 && run_pulscnt > final golden "pulscnt" + 50
  in
  overrun || still_rolling
