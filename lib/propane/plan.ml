module P = Propagation

type mode = Uniform | Adaptive

let mode_to_string = function Uniform -> "uniform" | Adaptive -> "adaptive"

let mode_of_string = function
  | "uniform" -> Ok Uniform
  | "adaptive" -> Ok Adaptive
  | s -> Error (Printf.sprintf "bad plan mode %S: expected uniform|adaptive" s)

type prior = {
  target : string;
  cells : int;
  spread : float;
  reach : float;
  weight : float;
}

let noisy_or = List.fold_left (fun acc x -> 1.0 -. ((1.0 -. acc) *. (1.0 -. x))) 0.0

let flat_matrices model =
  List.fold_left
    (fun acc m ->
      let rows =
        Array.make_matrix
          (P.Sw_module.input_count m)
          (P.Sw_module.output_count m)
          0.5
      in
      P.String_map.add (P.Sw_module.name m) (P.Perm_matrix.of_rows rows) acc)
    P.String_map.empty
    (P.System_model.modules model)

let priors ~model ~targets () =
  let graph = P.Perm_graph.build_exn model (flat_matrices model) in
  let signal_of name =
    List.find_opt
      (fun s -> P.Signal.name s = name)
      (P.System_model.signals model)
  in
  (* every target's reach, from one sampled matrix: the noisy-or over
     its row *)
  let reaches =
    match List.filter_map signal_of targets with
    | [] -> []
    | sources ->
        let arrival =
          P.Monte_carlo.arrival_matrix ~trials:2000 ~seed:1 graph ~sources
        in
        List.mapi
          (fun r s ->
            ( P.Signal.name s,
              noisy_or
                (Array.to_list (P.Perm_matrix.row arrival ~input:(r + 1))) ))
          sources
  in
  List.map
    (fun target ->
      match signal_of target with
      | None -> { target; cells = 0; spread = 0.0; reach = 0.0; weight = 0.05 }
      | Some signal ->
          let consumers = P.System_model.consumers model signal in
          let cells, spread =
            List.fold_left
              (fun (cells, spread) (m, input) ->
                let matrix = P.Perm_graph.matrix graph (P.Sw_module.name m) in
                let outs = P.Sw_module.output_count m in
                let spread =
                  let acc = ref spread in
                  for output = 1 to outs do
                    let p = P.Perm_matrix.get matrix ~input ~output in
                    acc := !acc +. (p *. (1.0 -. p))
                  done;
                  !acc
                in
                (cells + outs, spread))
              (0, 0.0) consumers
          in
          let reach = List.assoc target reaches in
          let weight = Float.max 0.05 (spread *. (0.5 +. reach)) in
          { target; cells; spread; reach; weight })
    targets

type block = {
  target : string;
  indices : int array;  (* selected experiment indices, ascending *)
  mutable next : int;  (* cursor of the next unallocated index *)
}

type planned = {
  mode : mode;
  mutable budget_left : int;
  round_budget : int;
  blocks : block array;
  weights : float array;  (* pilot weights, aligned with blocks *)
  consumers_of : string list array;  (* consuming modules, per block *)
  stream : Estimator.Stream.t;  (* outcomes of the finished rounds *)
  mutable round_no : int;
  mutable current : int list;  (* indices of the open round, ascending *)
  mutable current_left : int;  (* open-round runs not yet completed *)
  mutable finished : bool;
  mutable rev_rounds : Journal.round list;
}

type kind = Static | Planned of planned

type t = {
  mutex : Mutex.t;
  kind : kind;
  status : Bytes.t;
      (* '\000' unallocated, '\001' queued, '\003' in flight,
         '\002' done *)
  bank : Results.outcome option array;
  mutable queue : int list;
  mutable queue_len : int;
  mutable started : bool;
  mutable fresh : int;  (* cumulative indices enqueued for execution *)
  mutable executed : int;
  mutable allocated_runs : int;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let static ?(select = fun _ -> true) ~done_ ~total () =
  let status = Bytes.make total '\000' in
  let queue = ref [] in
  let n = ref 0 in
  for index = total - 1 downto 0 do
    if select index && not (done_ index) then begin
      Bytes.set status index '\001';
      queue := index :: !queue;
      incr n
    end
  done;
  {
    mutex = Mutex.create ();
    kind = Static;
    status;
    bank = Array.make (max total 1) None;
    queue = !queue;
    queue_len = !n;
    started = false;
    fresh = !n;
    executed = 0;
    allocated_runs = !n;
  }

let create ?(mode = Adaptive) ?(select = fun _ -> true) ?window_ms
    ?round_budget ~budget ~model ~campaign () =
  if budget < 1 then invalid_arg "Plan.create: budget < 1";
  let targets = (campaign : Campaign.t).targets in
  let per_target = Campaign.runs_per_target campaign in
  let total = Campaign.size campaign in
  let blocks =
    Array.of_list
      (List.mapi
         (fun ti target ->
           let lo = ti * per_target in
           let indices =
             Array.of_seq
               (Seq.filter select
                  (Seq.init per_target (fun off -> lo + off)))
           in
           { target; indices; next = 0 })
         targets)
  in
  let selectable =
    Array.fold_left
      (fun n b -> if Array.length b.indices > 0 then n + 1 else n)
      0 blocks
  in
  if budget < selectable then
    invalid_arg
      (Printf.sprintf
         "Plan.create: budget %d below the %d targets with selectable runs"
         budget selectable);
  let prior_list = priors ~model ~targets () in
  let weight_of target =
    match List.find_opt (fun (p : prior) -> p.target = target) prior_list with
    | Some p -> p.weight
    | None -> 0.05
  in
  let consumers_of =
    Array.map
      (fun b ->
        match
          List.find_opt
            (fun s -> P.Signal.name s = b.target)
            (P.System_model.signals model)
        with
        | None -> []
        | Some signal ->
            List.map
              (fun (m, _) -> P.Sw_module.name m)
              (P.System_model.consumers model signal))
      blocks
  in
  let planned =
    {
      mode;
      budget_left = budget;
      round_budget =
        (match round_budget with
        | Some r when r >= 1 -> r
        | Some _ -> invalid_arg "Plan.create: round_budget < 1"
        | None -> max (List.length targets) (budget / 8));
      blocks;
      weights = Array.map (fun b -> weight_of b.target) blocks;
      consumers_of;
      stream = Estimator.Stream.create ?window_ms ~model ();
      round_no = 0;
      current = [];
      current_left = 0;
      finished = false;
      rev_rounds = [];
    }
  in
  {
    mutex = Mutex.create ();
    kind = Planned planned;
    status = Bytes.make (max total 1) '\000';
    bank = Array.make (max total 1) None;
    queue = [];
    queue_len = 0;
    started = false;
    fresh = 0;
    executed = 0;
    allocated_runs = 0;
  }

let is_planned t = t.kind <> Static

(* Proportional allocation with caps: repeatedly grant one run to the
   block maximising weight / (2 * granted + 1) (Sainte-Lague divisors,
   first index winning ties), so the split tracks the weights without
   float-remainder juggling and is deterministic. *)
let distribute ~total ~weights ~caps ~alloc =
  let n = Array.length weights in
  let remaining = ref total in
  let exhausted = ref false in
  while !remaining > 0 && not !exhausted do
    let best = ref (-1) and best_score = ref 0.0 in
    for i = 0 to n - 1 do
      if alloc.(i) < caps.(i) && weights.(i) > 0.0 then begin
        let s = weights.(i) /. float_of_int ((2 * alloc.(i)) + 1) in
        if !best < 0 || s > !best_score then begin
          best := i;
          best_score := s
        end
      end
    done;
    if !best < 0 then exhausted := true
    else begin
      alloc.(!best) <- alloc.(!best) + 1;
      decr remaining
    end
  done

let caps_of p = Array.map (fun b -> Array.length b.indices - b.next) p.blocks

let pilot_allocation p =
  let caps = caps_of p in
  let n = Array.length caps in
  let alloc = Array.make n 0 in
  let total = min p.budget_left (max (Array.length p.blocks) p.round_budget) in
  (* every target first: estimation needs each injected at least once *)
  let given = ref 0 in
  for i = 0 to n - 1 do
    if caps.(i) > 0 && !given < total then begin
      alloc.(i) <- 1;
      incr given
    end
  done;
  distribute ~total:(total - !given) ~weights:p.weights ~caps ~alloc;
  alloc

let uniform_allocation p =
  let caps = caps_of p in
  let alloc = Array.make (Array.length caps) 0 in
  distribute ~total:p.budget_left
    ~weights:(Array.map (fun _ -> 1.0) caps)
    ~caps ~alloc;
  alloc

(* None = every ranking resolved (or nothing left to learn): stop. *)
let refine_allocation p =
  let ranking =
    P.Ranking.rank_relative
      (P.String_map.fold
         (fun name matrix acc -> P.Ranking.relative name matrix :: acc)
         (Estimator.Stream.matrices p.stream)
         [])
  in
  match
    List.filter_map
      (fun (name, resolved) -> if resolved then None else Some name)
      ranking
  with
  | [] -> None
  | unresolved ->
      let caps = caps_of p in
      let weights =
        Array.mapi
          (fun i b ->
            if caps.(i) = 0 then 0.0
            else
              let impact =
                List.length
                  (List.filter
                     (fun m -> List.mem m unresolved)
                     p.consumers_of.(i))
              in
              if impact = 0 then 0.0
              else
                Float.max
                  (Estimator.Stream.target_width p.stream ~target:b.target)
                  1e-6
                *. float_of_int impact)
          p.blocks
      in
      if Array.for_all (fun w -> w = 0.0) weights then None
      else begin
        let alloc = Array.make (Array.length caps) 0 in
        distribute
          ~total:(min p.budget_left p.round_budget)
          ~weights ~caps ~alloc;
        Some alloc
      end

let rec allocate p t =
  assert (t.queue_len = 0 && p.current_left = 0);
  if p.budget_left <= 0 then p.finished <- true
  else if Array.for_all (fun c -> c = 0) (caps_of p) then p.finished <- true
  else
    let allocation =
      match (p.mode, p.round_no) with
      | Uniform, 0 -> Some (uniform_allocation p)
      | Uniform, _ -> None  (* uniform spends everything in one round *)
      | Adaptive, 0 -> Some (pilot_allocation p)
      | Adaptive, _ -> refine_allocation p
    in
    match allocation with
    | None -> p.finished <- true
    | Some alloc when Array.for_all (fun n -> n = 0) alloc ->
        p.finished <- true
    | Some alloc ->
        let round_no = p.round_no in
        p.round_no <- round_no + 1;
        let rev_current = ref [] and rev_queue = ref [] in
        let fresh = ref 0 and granted = ref 0 in
        Array.iteri
          (fun bi n ->
            if n > 0 then begin
              let b = p.blocks.(bi) in
              p.rev_rounds <-
                { Journal.round = round_no; target = b.target; runs = n }
                :: p.rev_rounds;
              for _ = 1 to n do
                let index = b.indices.(b.next) in
                b.next <- b.next + 1;
                incr granted;
                rev_current := index :: !rev_current;
                assert (Bytes.get t.status index = '\000');
                if t.bank.(index) <> None then begin
                  (* a replayed outcome satisfies the run instantly *)
                  Bytes.set t.status index '\002';
                  t.executed <- t.executed + 1
                end
                else begin
                  Bytes.set t.status index '\001';
                  rev_queue := index :: !rev_queue;
                  incr fresh
                end
              done
            end)
          alloc;
        p.budget_left <- p.budget_left - !granted;
        p.current <- List.rev !rev_current;
        p.current_left <- !fresh;
        t.allocated_runs <- t.allocated_runs + !granted;
        t.fresh <- t.fresh + !fresh;
        t.queue <- List.rev !rev_queue;
        t.queue_len <- !fresh;
        if !fresh = 0 then advance_barrier p t

and advance_barrier p t =
  (* Feed the finished round in index order: the allocation decisions
     below are then a pure function of the completed outcome set, the
     same on every backend and on resume. *)
  List.iter
    (fun index ->
      match t.bank.(index) with
      | Some outcome -> Estimator.Stream.observe p.stream outcome
      | None -> assert false)
    p.current;
  p.current <- [];
  allocate p t

let ensure_started t =
  if not t.started then begin
    t.started <- true;
    match t.kind with Static -> () | Planned p -> allocate p t
  end

let prime t ~index outcome =
  locked t @@ fun () ->
  if t.started then invalid_arg "Plan.prime: scheduling already started";
  match t.kind with
  | Planned _ -> t.bank.(index) <- Some outcome
  | Static -> invalid_arg "Plan.prime: a static source takes [done_] instead"

let take t ~max:limit =
  locked t @@ fun () ->
  ensure_started t;
  if limit <= 0 then []
  else begin
    let rec grab n acc =
      if n = 0 then List.rev acc
      else
        match t.queue with
        | [] -> List.rev acc
        | index :: rest ->
            t.queue <- rest;
            t.queue_len <- t.queue_len - 1;
            Bytes.set t.status index '\003';
            grab (n - 1) (index :: acc)
    in
    grab limit []
  end

let requeue t indices =
  locked t @@ fun () ->
  let lost =
    List.filter (fun i -> Bytes.get t.status i = '\003') indices
  in
  if lost <> [] then begin
    List.iter (fun i -> Bytes.set t.status i '\001') lost;
    t.queue <- List.sort_uniq compare (List.rev_append lost t.queue);
    t.queue_len <- List.length t.queue
  end

let finish_one t ~index outcome =
  t.bank.(index) <- Some outcome;
  Bytes.set t.status index '\002';
  t.executed <- t.executed + 1;
  match t.kind with
  | Static -> ()
  | Planned p ->
      p.current_left <- p.current_left - 1;
      if p.current_left = 0 && t.queue_len = 0 && not p.finished then
        advance_barrier p t

let complete t ~index outcome =
  locked t @@ fun () ->
  match Bytes.get t.status index with
  | '\002' -> ()  (* duplicate result: first one won *)
  | '\003' -> finish_one t ~index outcome
  | '\001' ->
      (* requeued after a worker loss, then the lost worker's result
         arrived anyway: retire it from the queue before counting *)
      t.queue <- List.filter (fun i -> i <> index) t.queue;
      t.queue_len <- t.queue_len - 1;
      finish_one t ~index outcome
  | _ ->
      (* an index this source never scheduled (deselected, or banked
         pre-start); keep the outcome, it costs nothing *)
      if t.bank.(index) = None then t.bank.(index) <- Some outcome

let exhausted t =
  locked t @@ fun () ->
  ensure_started t;
  match t.kind with
  | Static -> t.queue_len = 0 && t.executed >= t.fresh
  | Planned p -> p.finished

let pending t =
  locked t @@ fun () ->
  ensure_started t;
  t.queue_len

let candidates t =
  locked t @@ fun () ->
  match t.kind with
  | Static -> t.queue
  | Planned p ->
      List.concat_map
        (fun b ->
          List.filter
            (fun i -> t.bank.(i) = None)
            (Array.to_list b.indices))
        (Array.to_list p.blocks)

let fresh_scheduled t = locked t @@ fun () -> t.fresh
let allocated t = locked t @@ fun () -> t.allocated_runs

let rounds t =
  locked t @@ fun () ->
  match t.kind with
  | Static -> []
  | Planned p -> List.rev p.rev_rounds
