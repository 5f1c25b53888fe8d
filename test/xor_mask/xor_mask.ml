(* XOR-and-mask systems: ground truth for the estimator.

   A block xors its 16-bit inputs and keeps the low [keep] bits of the
   result.  A flip of bit [b] on any one input flips bit [b] of the xor,
   so it reaches the output iff [b < keep]: every permeability cell of
   the block is exactly keep/16, and a campaign that flips each of the
   16 bits at every instant measures exactly that. *)

let block ~name ~keep ~inputs ~output =
  Dataflow.Builder.block ~name
    ~tag:(Printf.sprintf "xor-mask keep=%d" keep)
    ~inputs ~outputs:[ output ]
    (fun () inputs ->
      [| Array.fold_left ( lxor ) 0 inputs land ((1 lsl keep) - 1) |])

type dag = { system : Dataflow.Builder.t; keep : string -> int }

(* Three layers of three blocks and a sink.  Block X<l>_<j> reads
   signals j and j+1 (mod 3) of layer l and writes signal j of layer
   l+1; the sink xors the last layer.  [seed] draws every block's keep
   in [0, 16] and the slopes of the three ramps driving layer 0. *)
let dag ~seed =
  let rng = Simkernel.Rng.create seed in
  let signal l j = Propagation.Signal.make (Printf.sprintf "x%d_%d" l j) in
  let keeps = Hashtbl.create 16 in
  let xor_block name ~inputs ~output =
    let keep = Simkernel.Rng.int rng 17 in
    Hashtbl.replace keeps name keep;
    block ~name ~keep ~inputs ~output
  in
  let blocks =
    List.concat_map
      (fun l ->
        List.init 3 (fun j ->
            xor_block
              (Printf.sprintf "X%d_%d" l j)
              ~inputs:[ signal l j; signal l ((j + 1) mod 3) ]
              ~output:(signal (l + 1) j)))
      [ 0; 1; 2 ]
  in
  let sink =
    xor_block "SINK"
      ~inputs:(List.init 3 (signal 3))
      ~output:(Propagation.Signal.make "xor_out")
  in
  let stimuli =
    List.init 3 (fun j ->
        Dataflow.Builder.ramp
          ~slope:((2 * Simkernel.Rng.int rng 8) + 3)
          (signal 0 j))
  in
  {
    system =
      Dataflow.Builder.create_exn ~name:"xor-dag" ~duration_ms:200
        ~blocks:(blocks @ [ sink ]) ~stimuli ();
    keep = Hashtbl.find keeps;
  }
