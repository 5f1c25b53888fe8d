(* Block-minimum timing, tail percentiles and the closure check.

   A pass is cut into blocks at boundaries the benchmark can watch from
   outside the library (pass start, the first [Run_done], every
   [block_runs] completed runs, the end of each campaign, the final
   answer).  Every pass of a run does identical work, so block [i] of
   every pass covers the same runs; its time is the fastest pass's, and
   a timed metric is the sum of those minima.  The host's speed changes
   from moment to moment (see README.md), so a whole pass rarely runs at
   full speed while a short block often does. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_of_ns ns = float_of_int ns *. 1e-9

type kind =
  | Setup  (** pass start (or a campaign's start) to its first run *)
  | Runs  (** a fixed number of completed injection runs *)
  | Other  (** composition, persistence, the final answer *)

type block = { kind : kind; runs : int; seconds : float }

let kind_name = function Setup -> "setup" | Runs -> "runs" | Other -> "other"

(* Per-index minimum over passes.  Passes must agree on every block's
   kind and run count, otherwise they did different work and minima
   would mix unrelated intervals. *)
let block_minima = function
  | [] -> invalid_arg "Stats.block_minima: no passes"
  | first :: rest ->
      let n = Array.length first in
      List.iter
        (fun pass ->
          if Array.length pass <> n then
            invalid_arg
              (Printf.sprintf "Stats.block_minima: %d blocks against %d"
                 (Array.length pass) n);
          Array.iteri
            (fun i b ->
              if b.kind <> first.(i).kind || b.runs <> first.(i).runs then
                invalid_arg
                  (Printf.sprintf
                     "Stats.block_minima: block %d is %s/%d runs against \
                      %s/%d"
                     i (kind_name b.kind) b.runs
                     (kind_name first.(i).kind)
                     first.(i).runs))
            pass)
        rest;
      Array.mapi
        (fun i b ->
          {
            b with
            seconds =
              List.fold_left
                (fun m pass -> Float.min m pass.(i).seconds)
                b.seconds rest;
          })
        first

let total ?kind blocks =
  Array.fold_left
    (fun acc b ->
      match kind with
      | Some k when k <> b.kind -> acc
      | _ -> acc +. b.seconds)
    0.0 blocks

let block_runs blocks =
  Array.fold_left
    (fun acc b -> if b.kind = Runs then acc + b.runs else acc)
    0 blocks

let runs_per_s blocks =
  float_of_int (block_runs blocks) /. total ~kind:Runs blocks

(* {1 Recording a pass} *)

type recorder = { mutable last : int; mutable rev_blocks : block list }

let recorder () = { last = now_ns (); rev_blocks = [] }

let mark r kind ~runs =
  let t = now_ns () in
  r.rev_blocks <-
    { kind; runs; seconds = seconds_of_ns (t - r.last) } :: r.rev_blocks;
  r.last <- t

let blocks r = Array.of_list (List.rev r.rev_blocks)

(* Cuts one campaign's runs into blocks: the first completed run closes
   a [Setup] block, then every [block_runs] further runs close a [Runs]
   block; {!close_runs} ends the campaign's last, shorter block. *)
type marker = {
  rec_ : recorder;
  block_runs : int;
  mutable seen : int;
  mutable marked : int;
}

let marker rec_ ~block_runs = { rec_; block_runs; seen = 0; marked = 0 }

let run_done m =
  m.seen <- m.seen + 1;
  if m.seen = 1 then begin
    mark m.rec_ Setup ~runs:0;
    m.marked <- 1
  end
  else if m.seen - m.marked >= m.block_runs then begin
    mark m.rec_ Runs ~runs:(m.seen - m.marked);
    m.marked <- m.seen
  end

let close_runs m =
  if m.seen > m.marked then begin
    mark m.rec_ Runs ~runs:(m.seen - m.marked);
    m.marked <- m.seen
  end

(* {1 Percentiles} *)

(* Nearest-rank index of percentile [p] in [n] sorted samples, capped so
   that at least ten samples lie beyond it: a tail percentile backed by
   fewer than ten samples is noise.  [None] below eleven samples. *)
let tail_rank ~p n =
  if n < 11 then None
  else
    let nearest = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    Some (min (max 0 nearest) (n - 11))

let percentile ~p samples =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  Option.map (fun k -> sorted.(k)) (tail_rank ~p (Array.length sorted))

(* {1 Closure} *)

(* How far the traced layer parts miss the traced end-to-end time, as a
   share of it.  The parts cover disjoint work, so they should sum to
   the whole; the remainder is work no part accounts for. *)
let closure_error ~parts ~total =
  if total <= 0.0 then invalid_arg "Stats.closure_error: total <= 0";
  Float.abs (List.fold_left ( +. ) 0.0 parts -. total) /. total
