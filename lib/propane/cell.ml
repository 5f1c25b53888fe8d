type t = {
  module_name : string;
  target : string;
  outputs : string array;
  key : string;
  digest : string option;
}

(* The key digests a field-separated record; \x1f (unit separator)
   cannot appear in signal/module names (they are journal fields, which
   reject control separators) so components never collide. *)
let sep = '\x1f'

let key_of ~sut_name ~module_name ~module_digest ~target ~outputs ~shape
    ~errors ~recipe =
  let buf = Buffer.create 256 in
  List.iter
    (fun field ->
      Buffer.add_string buf field;
      Buffer.add_char buf sep)
    ([ "propane-cell 2"; sut_name; module_name; module_digest; target ]
    @ outputs
    @ [ shape ] @ errors @ [ recipe ]);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Canonical description of the width-independent campaign dimensions
   every cell of the campaign shares: test-case ids and parameters and
   injection times (targets excluded — each cell names its own; error
   models enter separately via [errors_of], canonicalized at the
   target's width). *)
let shape_of (campaign : Campaign.t) =
  let buf = Buffer.create 256 in
  let field s =
    Buffer.add_string buf s;
    Buffer.add_char buf sep
  in
  List.iter
    (fun tc ->
      field (Testcase.id tc);
      List.iter
        (fun (name, v) -> field (Printf.sprintf "%s=%h" name v))
        tc.Testcase.params)
    campaign.Campaign.testcases;
  List.iter
    (fun at -> field (string_of_int (Simkernel.Sim_time.to_ms at)))
    campaign.Campaign.times;
  Buffer.contents buf

(* Error models digest in width-aware canonical form, per target: the
   injected signal's width fixes which spellings collapse (Stuck_at 5
   and Stuck_at 65541 at width 16), so behaviourally identical models
   share a cache cell instead of missing spuriously. *)
let errors_of ~width (campaign : Campaign.t) =
  List.map
    (fun e -> Error_model.describe (Error_model.canonicalize ~width e))
    campaign.Campaign.errors

type plan = { cells : t list; by_target : (string * t list) list }

let plan ~(sut : Sut.t) ~model ~recipe (campaign : Campaign.t) =
  let shape = shape_of campaign in
  let consumers = Hashtbl.create 16 in
  List.iter
    (fun m ->
      List.iter
        (fun input ->
          let key = Propagation.Signal.name input in
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt consumers key)
          in
          Hashtbl.replace consumers key (prev @ [ m ]))
        (Propagation.Sw_module.input_signals m))
    (Propagation.System_model.modules model);
  let by_target =
    List.map
      (fun target ->
        let errors =
          errors_of ~width:(Sut.signal_width sut target) campaign
        in
        let cells =
          List.map
            (fun m ->
              let module_name = Propagation.Sw_module.name m in
              let outputs =
                List.map Propagation.Signal.name
                  (Propagation.Sw_module.output_signals m)
              in
              let digest = Sut.digest_of sut module_name in
              {
                module_name;
                target;
                outputs = Array.of_list outputs;
                key =
                  key_of ~sut_name:sut.Sut.name ~module_name
                    ~module_digest:(Option.value ~default:"" digest)
                    ~target ~outputs ~shape ~errors ~recipe;
                digest;
              })
            (Option.value ~default:[] (Hashtbl.find_opt consumers target))
        in
        (target, cells))
      campaign.Campaign.targets
  in
  { cells = List.concat_map snd by_target; by_target }
