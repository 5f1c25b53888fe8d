type align = Left | Right

type t = {
  title : string option;
  columns : (string * align) list;
  rows : string list list;
}

let make ?title ~columns rows =
  if columns = [] then invalid_arg "Table.make: no columns";
  let width = List.length columns in
  List.iter
    (fun row ->
      if List.length row <> width then
        invalid_arg
          (Printf.sprintf "Table.make: row has %d cells, expected %d"
             (List.length row) width))
    rows;
  { title; columns; rows }

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s

let render t =
  let headers = List.map fst t.columns in
  let widths =
    List.mapi
      (fun idx header ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row idx)))
          (String.length header) t.rows)
      headers
  in
  let render_row cells =
    String.concat " | "
      (List.map2
         (fun (cell, (_, align)) width -> pad align width cell)
         (List.combine cells t.columns)
         widths)
  in
  let rule =
    String.concat "-+-" (List.map (fun w -> String.make w '-') widths)
  in
  let lines =
    (match t.title with Some title -> [ title ] | None -> [])
    @ [ render_row headers; rule ]
    @ List.map render_row t.rows
  in
  String.concat "\n" lines

let print t = print_endline (render t)
let row_count t = List.length t.rows
let column_names t = List.map fst t.columns
let fold_rows f acc t = List.fold_left f acc t.rows
