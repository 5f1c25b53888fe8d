(* The traced run's instruments: spans around every call the benchmark
   makes into a layer, and a timing wrapper around the [Sut.t] record
   that accumulates the per-millisecond calls instead of spanning them.
   Spans stay in memory and are written out once, at the end. *)

let now_ns = Stats.now_ns

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  pass : int;  (** -1 outside the timed passes *)
  start_ns : int;
  stop_ns : int;
}

type t = {
  mutable rev_spans : span list;
  mutable next_id : int;
  mutable stack : int list;
  mutable pass : int;
}

let create () = { rev_spans = []; next_id = 1; stack = []; pass = -1 }
let set_pass t pass = t.pass <- pass

let span t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> 0 in
  t.stack <- id :: t.stack;
  let start_ns = now_ns () in
  let finish () =
    t.stack <- List.tl t.stack;
    t.rev_spans <-
      { id; name; parent; pass = t.pass; start_ns; stop_ns = now_ns () }
      :: t.rev_spans
  in
  Fun.protect ~finally:finish f

(* [span] on the traced run, a plain call otherwise. *)
let within t name f = match t with Some t -> span t name f | None -> f ()

let spans t = List.rev t.rev_spans

(* Seconds of every span called [name], per pass (passes >= 0 only). *)
let per_pass t name =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s : span) ->
      if s.pass >= 0 && String.equal s.name name then
        Hashtbl.replace tbl s.pass
          (Option.value (Hashtbl.find_opt tbl s.pass) ~default:0
          + (s.stop_ns - s.start_ns)))
    t.rev_spans;
  Hashtbl.fold (fun _ ns acc -> Stats.seconds_of_ns ns :: acc) tbl []

(* The fastest pass's total for [name]; 0 when no pass called it. *)
let min_per_pass t name =
  match per_pass t name with
  | [] -> 0.0
  | x :: xs -> List.fold_left Float.min x xs

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\tname\tparent\tpass\tstart_ns\tstop_ns\n";
      List.iter
        (fun (s : span) ->
          Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" s.id s.name s.parent
            s.pass s.start_ns s.stop_ns)
        (spans t))

(* {1 The SUT wrapper} *)

type counters = {
  mutable instances : int;
  mutable instantiate_ns : int;
  mutable steps : int;
  mutable prefix_steps : int;  (** steps before the run's injection *)
  mutable step_ns : int;
  mutable samples : int;  (** snapshot calls and single-signal reads *)
  mutable sample_ns : int;
  mutable injects : int;
  mutable inject_ns : int;
}

let counters () =
  {
    instances = 0;
    instantiate_ns = 0;
    steps = 0;
    prefix_steps = 0;
    step_ns = 0;
    samples = 0;
    sample_ns = 0;
    injects = 0;
    inject_ns = 0;
  }

let reset c =
  c.instances <- 0;
  c.instantiate_ns <- 0;
  c.steps <- 0;
  c.prefix_steps <- 0;
  c.step_ns <- 0;
  c.samples <- 0;
  c.sample_ns <- 0;
  c.injects <- 0;
  c.inject_ns <- 0

let copy c = { c with instances = c.instances }

let add_into acc c =
  acc.instances <- acc.instances + c.instances;
  acc.instantiate_ns <- acc.instantiate_ns + c.instantiate_ns;
  acc.steps <- acc.steps + c.steps;
  acc.prefix_steps <- acc.prefix_steps + c.prefix_steps;
  acc.step_ns <- acc.step_ns + c.step_ns;
  acc.samples <- acc.samples + c.samples;
  acc.sample_ns <- acc.sample_ns + c.sample_ns;
  acc.injects <- acc.injects + c.injects;
  acc.inject_ns <- acc.inject_ns + c.inject_ns

let sut_ns c = c.instantiate_ns + c.step_ns + c.sample_ns + c.inject_ns

let wrap c (sut : Propane.Sut.t) =
  let instantiate tc =
    let t0 = now_ns () in
    let inst = sut.instantiate tc in
    c.instances <- c.instances + 1;
    c.instantiate_ns <- c.instantiate_ns + (now_ns () - t0);
    let injected = ref false in
    let read name =
      let t0 = now_ns () in
      let v = inst.read name in
      c.samples <- c.samples + 1;
      c.sample_ns <- c.sample_ns + (now_ns () - t0);
      v
    in
    let inject name f =
      injected := true;
      let t0 = now_ns () in
      inst.inject name f;
      c.injects <- c.injects + 1;
      c.inject_ns <- c.inject_ns + (now_ns () - t0)
    in
    let step () =
      let t0 = now_ns () in
      inst.step ();
      c.step_ns <- c.step_ns + (now_ns () - t0);
      c.steps <- c.steps + 1;
      if not !injected then c.prefix_steps <- c.prefix_steps + 1
    in
    let snapshot =
      Option.map
        (fun snap buf ->
          let t0 = now_ns () in
          snap buf;
          c.samples <- c.samples + 1;
          c.sample_ns <- c.sample_ns + (now_ns () - t0))
        inst.snapshot
    in
    { inst with read; inject; step; snapshot }
  in
  { sut with instantiate }
