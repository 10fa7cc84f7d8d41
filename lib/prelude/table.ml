type t = {
  title : string;
  columns : string list;
  mutable rows : string list list;  (* stored reversed *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg
      (Printf.sprintf "Table.add_row (%s): expected %d cells, got %d" t.title
         (List.length t.columns) (List.length cells));
  t.rows <- cells :: t.rows

let title t = t.title

let rows_in_order t = List.rev t.rows

let to_string t =
  let all = t.columns :: rows_in_order t in
  let ncols = List.length t.columns in
  let widths = Array.make ncols 0 in
  let record_row row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  List.iter record_row all;
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer ("== " ^ t.title ^ " ==\n");
  let render_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buffer "  ";
        Buffer.add_string buffer cell;
        Buffer.add_string buffer (String.make (widths.(i) - String.length cell) ' '))
      row;
    Buffer.add_char buffer '\n'
  in
  render_row t.columns;
  let total_width = Array.fold_left ( + ) (2 * (ncols - 1)) widths in
  Buffer.add_string buffer (String.make total_width '-');
  Buffer.add_char buffer '\n';
  List.iter render_row (rows_in_order t);
  Buffer.contents buffer

let csv_cell cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then begin
    let escaped =
      String.concat "\"\"" (String.split_on_char '"' cell)
    in
    "\"" ^ escaped ^ "\""
  end
  else cell

let to_csv t =
  let line row = String.concat "," (List.map csv_cell row) in
  String.concat "\n" (List.map line (t.columns :: rows_in_order t)) ^ "\n"

let print t =
  print_string (to_string t);
  print_newline ()
