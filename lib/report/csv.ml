let escape field =
  let needs_quoting =
    String.exists
      (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r')
      field
  in
  if not needs_quoting then field
  else
    let b = Buffer.create (String.length field + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      field;
    Buffer.add_char b '"';
    Buffer.contents b

let row cells = String.concat "," (List.map escape cells)

let of_table table =
  let b = Buffer.create 1024 in
  Buffer.add_string b (row (Table.column_names table));
  Buffer.add_char b '\n';
  Table.fold_rows
    (fun () cells ->
      Buffer.add_string b (row cells);
      Buffer.add_char b '\n')
    () table;
  Buffer.contents b

let of_trace_set traces =
  let signals = Propane.Trace_set.signals traces in
  let columns = List.map (Propane.Trace_set.get traces) signals in
  let b = Buffer.create 4096 in
  Buffer.add_string b (row ("ms" :: signals));
  Buffer.add_char b '\n';
  for ms = 0 to Propane.Trace_set.duration_ms traces - 1 do
    Buffer.add_string b (string_of_int ms);
    List.iter
      (fun sample ->
        Buffer.add_char b ',';
        Buffer.add_string b (string_of_int (sample ms)))
      columns;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)
