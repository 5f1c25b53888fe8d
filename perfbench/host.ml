(* The host's speed phases.  On the shared benchmark host a neighbour
   periodically thrashes the caches a vCPU sees, so code whose working
   set lives in L2/L3 runs up to 1.5x slower for seconds at a time while
   pure ALU code does not notice.  Two probes record the phase next to
   every pass, and the pass runs on whichever allowed CPU the cache probe
   finds quieter. *)

external allowed_cpus : unit -> int list = "perfbench_allowed_cpus"
external pin_cpu : int -> bool = "perfbench_pin_cpu"

(* Read once: pinning narrows what the process itself reports later. *)
let allowed = lazy (allowed_cpus ())

let ms_since t0 = float_of_int (Stats.now_ns () - t0) *. 1e-6

(* A fixed ALU loop: registers only, no repository code. *)
let alu_probe_ms () =
  let t0 = Stats.now_ns () in
  let x = ref 1 in
  for i = 1 to 2_000_000 do
    x := ((!x * 1103515245) + i) land 0x3FFFFFFF
  done;
  ignore (Sys.opaque_identity !x);
  ms_since t0

(* A pointer chase through a 2 MB random cycle, also free of repository
   code: L2-sized, so it reads fast when the caches are ours and slow
   when a neighbour evicts them. *)
let chase_cycle =
  lazy
    (let n = 262_144 in
     let order = Array.init n Fun.id in
     let r = Random.State.make [| 0x2b2b |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int r i in
       let t = order.(i) in
       order.(i) <- order.(j);
       order.(j) <- t
     done;
     let next = Array.make n 0 in
     for i = 0 to n - 1 do
       next.(order.(i)) <- order.((i + 1) mod n)
     done;
     next)

let cache_probe_ms () =
  let next = Lazy.force chase_cycle in
  let t0 = Stats.now_ns () in
  let i = ref 0 in
  for _ = 1 to 100_000 do
    i := Array.unsafe_get next !i
  done;
  ignore (Sys.opaque_identity !i);
  ms_since t0

type choice = { cpu : int option; alu_ms : float; cache_ms : (int * float) list }

(* Probe every allowed CPU and stay pinned to the quietest one. *)
let choose_cpu () =
  match Lazy.force allowed with
  | [] | [ _ ] ->
      { cpu = None; alu_ms = alu_probe_ms (); cache_ms = [ (-1, cache_probe_ms ()) ] }
  | cpus ->
      let cache_ms =
        List.map
          (fun cpu ->
            ignore (pin_cpu cpu);
            ignore (cache_probe_ms ());
            (cpu, cache_probe_ms ()))
          cpus
      in
      let cpu, _ =
        List.fold_left
          (fun (bc, bt) (c, t) -> if t < bt then (c, t) else (bc, bt))
          (List.hd cache_ms) (List.tl cache_ms)
      in
      ignore (pin_cpu cpu);
      { cpu = Some cpu; alu_ms = alu_probe_ms (); cache_ms }

(* Another allowed CPU than [cpu], for the second process of a run. *)
let other_cpu cpu =
  List.find_opt (fun c -> Some c <> cpu) (Lazy.force allowed)
