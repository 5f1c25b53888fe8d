(* Answer checks.  Each returns [Ok ()] or [Error reason]; the benchmark
   runs them on every pass and counts every failure. *)

module P = Propagation

type t = (unit, string) result

let all checks =
  List.filter_map (function Ok () -> None | Error e -> Some e) checks

(* Counts, point values and Wilson intervals all equal, module by
   module. *)
let same_matrices ~what a b =
  if
    P.String_map.equal
      (fun x y -> P.Perm_matrix.equal_estimates ~eps:0.0 x y)
      a b
  then Ok ()
  else Error (what ^ ": matrices differ")

let same_bytes ~what a b =
  if String.equal a b then Ok ()
  else
    Error
      (Printf.sprintf "%s: %d bytes differ from the expected %d bytes" what
         (String.length a) (String.length b))

(* A measured proportion within [z] binomial standard errors of [p],
   plus one count of discreteness. *)
let within_binomial ~z ~p ~errors ~trials =
  trials > 0
  &&
  let n = float_of_int trials in
  Float.abs ((float_of_int errors /. n) -. p)
  <= (z *. Float.sqrt (p *. (1.0 -. p) /. n)) +. (1.0 /. n)

(* Every measured cell of every module against the module's exact
   permeability. *)
let cells_near_exact ~z ~exact matrices =
  let bad =
    P.String_map.fold
      (fun name m acc ->
        let p = exact name in
        P.Perm_matrix.fold_estimates
          (fun ~input ~output (e : P.Estimate.t) acc ->
            if within_binomial ~z ~p ~errors:e.n_err ~trials:e.n_inj then acc
            else
              Printf.sprintf "%s[%d,%d] = %d/%d, exact %g" name input output
                e.n_err e.n_inj p
              :: acc)
          m acc)
      matrices []
  in
  match bad with
  | [] -> Ok ()
  | _ ->
      Error
        ("cells outside the binomial tolerance: "
        ^ String.concat "; " (List.rev bad))

(* A pair is resolved when one row's interval lies wholly above the
   other's; a resolved pair must then agree with the exact order. *)
let ranking_consistent ~exact (rows : P.Ranking.module_row list) =
  let bad =
    List.concat_map
      (fun (a : P.Ranking.module_row) ->
        List.filter_map
          (fun (b : P.Ranking.module_row) ->
            let ea = a.relative_permeability_est
            and eb = b.relative_permeability_est in
            if ea.lo > eb.hi && exact a.module_name <= exact b.module_name
            then Some (a.module_name ^ " above " ^ b.module_name)
            else None)
          rows)
      rows
  in
  match bad with
  | [] -> Ok ()
  | _ ->
      Error
        ("resolved pairs ordered against the exact ranking: "
        ^ String.concat ", " bad)

let same_set ~what ~expected actual =
  let sort = List.sort_uniq String.compare in
  if sort expected = sort actual && List.length actual = List.length expected
  then Ok ()
  else
    Error
      (Printf.sprintf "%s: got [%s], expected [%s]" what
         (String.concat "," actual)
         (String.concat "," expected))

let no_failed_runs ~what count =
  if count = 0 then Ok ()
  else Error (Printf.sprintf "%s: %d crashed or hung runs" what count)
