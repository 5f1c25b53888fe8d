(* Everything a workload feeds the library, generated from the
   workload seed: test cases, the DAG's masks, the layered system's
   wiring and which block the developer edits.  The same seed always
   gives the same inputs. *)

open Propane
module Rng = Simkernel.Rng
module Builder = Dataflow.Builder

let rng ~seed ~salt = Rng.create (Int64.add (Int64.of_int seed) salt)
let of_ms = List.map Simkernel.Sim_time.of_ms
let bit_flips = Error_model.bit_flips ~width:16

(* Truncating 128 ms after the fire is the CLI default ([--window 64]). *)
let config ?journal ?budget ?plan ~seed () =
  Runner.Config.make ~seed:(Int64.of_int seed) ~truncate_after_ms:128 ?journal
    ?budget ?plan ()

(* {1 The arrestment sweep}

   The paper's fixed design: 13 targets x 16 bit flips x 3 instants,
   here under 3 test cases drawn from the paper's ranges (8-20 t,
   40-80 m/s).  Test case [i] is drawn from the [i]-th third of both
   ranges, so every seed covers light-slow to heavy-fast aircraft and
   the golden runs cost about the same whatever the seed. *)

let paper_testcases ~seed =
  let r = rng ~seed ~salt:0x5eedL in
  List.init 3 (fun i ->
      Arrestment.System.testcase
        ~mass_kg:(float_of_int (8_000 + (4_000 * i) + (10 * Rng.int r 400)))
        ~velocity_mps:(float_of_int (40 + (14 * i) + Rng.int r 13)))

let paper_campaign ~seed =
  Campaign.make ~name:"paper-sweep"
    ~targets:Arrestment.Model.injection_targets
    ~testcases:(paper_testcases ~seed)
    ~times:(of_ms [ 500; 2500; 4500 ])
    ~errors:(Error_model.bit_flips ~width:Arrestment.Signals.width)

(* Stored in the journal header and handed to the cluster worker, which
   rebuilds the campaign from it. *)
let paper_recipe ~seed = Printf.sprintf "perfbench-paper-sweep seed=%d" seed

let seed_of_paper_recipe recipe =
  Scanf.sscanf_opt recipe "perfbench-paper-sweep seed=%d%!" Fun.id

(* {1 The XOR-and-mask DAG}

   Each block xors its inputs and keeps the low [keep] bits, so a bit
   flip on any input reaches the output iff it lands below [keep]:
   every permeability is exactly keep/16.  Block (l, j) reads signals j
   and j+1 of layer l, so rotating every layer's indices by the same
   amount maps the DAG onto itself.  The seed picks that rotation for a
   fixed assignment of the ten masks (and the stimulus slopes): every
   seed then poses the same resolution problem.  A free permutation of
   the masks would not — the adaptive plan needs from 2743 to 3378 runs
   over the first twelve seeds. *)

(* keep of B0_0 .. B2_2, then SINK; gaps of 1/16 only at the ends,
   where Wilson intervals are narrow *)
let dag_keeps = [| 9; 3; 15; 1; 11; 5; 13; 7; 0; 16 |]

type dag = { system : Builder.t; keep : string -> int }

(* "B1_2" -> (1, 2); block and signal names share the shape *)
let grid_position name =
  match String.split_on_char '_' (String.sub name 1 (String.length name - 1)) with
  | [ l; j ] -> (int_of_string l, int_of_string j)
  | _ -> invalid_arg ("Systems.grid_position: " ^ name)

let xor_mask ~name ~keep ~inputs ~output =
  Builder.block ~name ~inputs ~outputs:[ output ] (fun () inputs ->
      let acc = ref 0 in
      Array.iter (fun v -> acc := !acc lxor v) inputs;
      [| !acc land ((1 lsl keep) - 1) |])

let dag ~seed =
  let r = rng ~seed ~salt:0xda6L in
  let turn = Rng.int r 3 in
  let keeps =
    Array.init 10 (fun i ->
        if i = 9 then dag_keeps.(9)
        else dag_keeps.((3 * (i / 3)) + ((i + turn) mod 3)))
  in
  let s l j = Propagation.Signal.make (Printf.sprintf "d%d_%d" l j) in
  let name l j = Printf.sprintf "B%d_%d" l j in
  let blocks =
    List.concat_map
      (fun l ->
        List.init 3 (fun j ->
            xor_mask ~name:(name l j)
              ~keep:keeps.((3 * l) + j)
              ~inputs:[ s l j; s l ((j + 1) mod 3) ]
              ~output:(s (l + 1) j)))
      [ 0; 1; 2 ]
  in
  let sink =
    xor_mask ~name:"SINK" ~keep:keeps.(9)
      ~inputs:[ s 3 0; s 3 1; s 3 2 ]
      ~output:(Propagation.Signal.make "dag_out")
  in
  let stimuli =
    List.init 3 (fun j -> Builder.ramp ~slope:((2 * Rng.int r 8) + 3) (s 0 j))
  in
  let system =
    Builder.create_exn ~name:"dag" ~duration_ms:400 ~blocks:(blocks @ [ sink ])
      ~stimuli ()
  in
  let keep m =
    if m = "SINK" then keeps.(9)
    else
      let l, j = grid_position m in
      keeps.((3 * l) + j)
  in
  { system; keep }

(* Instants 6, 12, ..., 192 ms: 512 runs per target on offer. *)
let dag_campaign d =
  Campaign.make ~name:"dag-adaptive"
    ~targets:(Builder.injection_targets d.system)
    ~testcases:[ Testcase.make ~id:"ramp" ~params:[] ]
    ~times:(of_ms (List.init 32 (fun k -> 6 * (k + 1))))
    ~errors:bit_flips

(* {1 The layered system for cell reuse}

   Six layers of four blocks plus a sink.  Block (l, j) reads layer-l
   signals j, j+1 and one of the other two, drawn from the seed, so every
   block has three inputs and every seed the same amount of work.  The
   campaign injects into layers 0-3; the edit changes one layer-3
   block's transfer function and tag, so exactly that block's inputs
   must be re-injected. *)

let layered_width = 4
let layered_layers = 6

type layered = {
  base : Builder.t;
  edited : Builder.t;
  edited_inputs : string list;
}

let layered ~seed =
  let r = rng ~seed ~salt:0x1a7eL in
  let mask = 0xFFFF in
  let name l j = Printf.sprintf "L%d_%d" l j in
  let signal l j = Printf.sprintf "l%d_%d" l j in
  let wiring =
    Array.init layered_layers (fun _ ->
        Array.init layered_width (fun j ->
            let extra = (j + 2 + Rng.int r 2) mod layered_width in
            List.filter
              (fun k -> k = j || k = (j + 1) mod layered_width || k = extra)
              (List.init layered_width Fun.id)))
  in
  let edit = Rng.int r layered_width in
  let build ~edited =
    let blocks =
      List.concat_map
        (fun l ->
          List.init layered_width (fun j ->
              let is_edit = edited && l = 3 && j = edit in
              Builder.block ~name:(name l j)
                ~tag:(if is_edit then "v2" else "")
                ~inputs:
                  (List.map
                     (fun k -> Propagation.Signal.make (signal l k))
                     wiring.(l).(j))
                ~outputs:[ Propagation.Signal.make (signal (l + 1) j) ]
                (fun () inputs ->
                  (* rotate, mix and mask: each input reaches the output
                     with a different, partial permeability *)
                  let acc = ref 0 in
                  Array.iteri
                    (fun i v ->
                      acc := !acc lxor (v lsr ((i + j) mod 4)) lxor (v lsl j))
                    inputs;
                  [| (!acc + if is_edit then 17 else 0) land mask |])))
        (List.init layered_layers Fun.id)
    in
    let sink =
      Builder.block ~name:"SINK"
        ~inputs:
          (List.init layered_width (fun j ->
               Propagation.Signal.make (signal layered_layers j)))
        ~outputs:[ Propagation.Signal.make "sink_out" ]
        (fun () inputs ->
          [| Array.fold_left (fun a v -> (a + v) land mask) 0 inputs |])
    in
    Builder.create_exn ~name:"layered" ~duration_ms:400
      ~blocks:(blocks @ [ sink ])
      ~stimuli:
        (List.init layered_width (fun j ->
             Builder.ramp ~slope:((2 * j) + 3)
               (Propagation.Signal.make (signal 0 j))))
      ()
  in
  {
    base = build ~edited:false;
    edited = build ~edited:true;
    edited_inputs = List.map (signal 3) wiring.(3).(edit);
  }

let layered_campaign l =
  let upstream s = fst (grid_position s) <= 3 in
  Campaign.make ~name:"layered-reuse"
    ~targets:(List.filter upstream (Builder.injection_targets l.base))
    ~testcases:[ Testcase.make ~id:"ramp" ~params:[] ]
    ~times:(of_ms [ 100; 200; 300 ])
    ~errors:bit_flips

let layered_recipe ~seed = Printf.sprintf "perfbench-layered-reuse seed=%d" seed
