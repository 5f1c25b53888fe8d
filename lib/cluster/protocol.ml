let version = 4

type welcome = {
  sut : string;
  campaign : string;
  seed : int64;
  total : int;
  config : string;
}

type to_coordinator =
  | Join of { version : int; host : string; pid : int }
  | Request_batch
  | Result of { index : int; retries : int; outcome : Propane.Results.outcome }
  | Heartbeat

type to_worker =
  | Assign of welcome
  | Batch of int list
  | Ping
  | Done
  | Reject of string

(* --------------------------- encoding ----------------------------- *)

let add_int b n =
  if n < 0 || n > 0x3FFFFFFF then
    invalid_arg (Printf.sprintf "Protocol: integer %d out of range" n);
  Buffer.add_int32_be b (Int32.of_int n)

let add_str b s =
  add_int b (String.length s);
  Buffer.add_string b s

let add_outcome b (o : Propane.Results.outcome) =
  add_str b o.testcase;
  add_str b o.injection.Propane.Injection.target;
  add_int b (Simkernel.Sim_time.to_ms o.injection.Propane.Injection.at);
  add_str b (Propane.Error_model.encode o.injection.Propane.Injection.error);
  (match o.status with
  | Propane.Results.Completed -> Buffer.add_uint8 b 0
  | Propane.Results.Crashed { at_ms; reason } ->
      Buffer.add_uint8 b 1;
      add_int b at_ms;
      add_str b reason
  | Propane.Results.Hung { budget_ms } ->
      Buffer.add_uint8 b 2;
      add_int b budget_ms);
  add_int b (List.length o.divergences);
  List.iter
    (fun (d : Propane.Golden.divergence) ->
      add_str b d.signal;
      add_int b d.first_ms)
    o.divergences

let encode_to_coordinator msg =
  let b = Buffer.create 64 in
  (match msg with
  | Request_batch -> Buffer.add_uint8 b 2
  | Result { index; retries; outcome } ->
      Buffer.add_uint8 b 3;
      add_int b index;
      add_int b retries;
      add_outcome b outcome
  | Heartbeat -> Buffer.add_uint8 b 4
  | Join { version; host; pid } ->
      Buffer.add_uint8 b 5;
      add_int b version;
      add_str b host;
      add_int b pid);
  Buffer.contents b

let add_welcome b { sut; campaign; seed; total; config } =
  add_str b sut;
  add_str b campaign;
  Buffer.add_int64_be b seed;
  add_int b total;
  add_str b config

let encode_to_worker msg =
  let b = Buffer.create 64 in
  (match msg with
  | Assign w ->
      Buffer.add_uint8 b 6;
      add_welcome b w
  | Batch indices ->
      Buffer.add_uint8 b 2;
      add_int b (List.length indices);
      List.iter (add_int b) indices
  | Ping -> Buffer.add_uint8 b 3
  | Done -> Buffer.add_uint8 b 4
  | Reject reason ->
      Buffer.add_uint8 b 5;
      add_str b reason);
  Buffer.contents b

(* --------------------------- decoding ----------------------------- *)

exception Bad of string

type cursor = { s : string; mutable pos : int }

let need c n what =
  if c.pos + n > String.length c.s then
    raise (Bad (Printf.sprintf "truncated message: missing %s" what))

let get_u8 c what =
  need c 1 what;
  let v = String.get_uint8 c.s c.pos in
  c.pos <- c.pos + 1;
  v

let get_int c what =
  need c 4 what;
  let v = Int32.to_int (String.get_int32_be c.s c.pos) in
  c.pos <- c.pos + 4;
  if v < 0 then raise (Bad (Printf.sprintf "negative %s" what));
  v

let get_i64 c what =
  need c 8 what;
  let v = String.get_int64_be c.s c.pos in
  c.pos <- c.pos + 8;
  v

let get_str c what =
  let n = get_int c what in
  need c n what;
  let v = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  v

(* [List.init] does not promise evaluation order; cursor reads must be
   strictly sequential. *)
let get_list n f =
  let rec go n acc = if n = 0 then List.rev acc else go (n - 1) (f () :: acc) in
  go n []

let get_outcome c =
  let testcase = get_str c "testcase" in
  let target = get_str c "target" in
  let at_ms = get_int c "at_ms" in
  let error =
    match Propane.Error_model.decode (get_str c "error") with
    | Ok e -> e
    | Error msg -> raise (Bad msg)
  in
  let status =
    match get_u8 c "status tag" with
    | 0 -> Propane.Results.Completed
    | 1 ->
        let at_ms = get_int c "crash at_ms" in
        let reason = get_str c "crash reason" in
        Propane.Results.Crashed { at_ms; reason }
    | 2 -> Propane.Results.Hung { budget_ms = get_int c "hang budget" }
    | t -> raise (Bad (Printf.sprintf "unknown status tag %d" t))
  in
  let ndiv = get_int c "divergence count" in
  let divergences =
    get_list ndiv (fun () ->
        let signal = get_str c "divergence signal" in
        let first_ms = get_int c "divergence time" in
        { Propane.Golden.signal; first_ms })
  in
  {
    Propane.Results.testcase;
    injection =
      Propane.Injection.make ~target
        ~at:(Simkernel.Sim_time.of_ms at_ms)
        ~error;
    divergences;
    status;
  }

let finished c msg =
  if c.pos <> String.length c.s then
    raise
      (Bad
         (Printf.sprintf "%d trailing bytes after message"
            (String.length c.s - c.pos)));
  msg

let decode f s =
  let c = { s; pos = 0 } in
  match finished c (f c) with
  | msg -> Ok msg
  | exception Bad msg -> Error (Printf.sprintf "Protocol: %s" msg)
  | exception Invalid_argument msg -> Error (Printf.sprintf "Protocol: %s" msg)

let decode_to_coordinator =
  decode (fun c ->
      match get_u8 c "message tag" with
      | 2 -> Request_batch
      | 3 ->
          let index = get_int c "index" in
          let retries = get_int c "retries" in
          let outcome = get_outcome c in
          Result { index; retries; outcome }
      | 4 -> Heartbeat
      | 5 ->
          let version = get_int c "version" in
          let host = get_str c "host" in
          let pid = get_int c "pid" in
          Join { version; host; pid }
      | t -> raise (Bad (Printf.sprintf "unknown message tag %d" t)))

let get_welcome c =
  let sut = get_str c "sut" in
  let campaign = get_str c "campaign" in
  let seed = get_i64 c "seed" in
  let total = get_int c "total" in
  let config = get_str c "config" in
  { sut; campaign; seed; total; config }

let decode_to_worker =
  decode (fun c ->
      match get_u8 c "message tag" with
      | 2 ->
          let n = get_int c "batch size" in
          Batch (get_list n (fun () -> get_int c "batch index"))
      | 3 -> Ping
      | 4 -> Done
      | 5 -> Reject (get_str c "reject reason")
      | 6 -> Assign (get_welcome c)
      | t -> raise (Bad (Printf.sprintf "unknown message tag %d" t)))

(* ---------------------------- debug ------------------------------- *)

let pp_to_coordinator ppf = function
  | Join { version; host; pid } ->
      Fmt.pf ppf "join v%d %s/%d" version host pid
  | Request_batch -> Fmt.string ppf "request-batch"
  | Result { index; retries; outcome } ->
      Fmt.pf ppf "result #%d (%a, %d retries)" index Propane.Results.pp_status
        outcome.Propane.Results.status retries
  | Heartbeat -> Fmt.string ppf "heartbeat"
