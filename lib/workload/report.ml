type t = {
  title : string;
  columns : string list;
  mutable rows : (string * string list) list; (* newest first *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t ~label ~cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Report.add_row: cell count does not match columns";
  t.rows <- (label, cells) :: t.rows

let seconds s =
  if Float.is_nan s then "-"
  else if s >= 1.0 then Printf.sprintf "%.2fs" s
  else if s >= 1e-3 then Printf.sprintf "%.1fms" (s *. 1e3)
  else Printf.sprintf "%.0fus" (s *. 1e6)

let print ppf t =
  let header = "threads" :: t.columns in
  let body =
    List.map (fun (label, cells) -> label :: cells) (List.rev t.rows)
  in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) body)
      header
  in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let print_row row =
    let padded = List.map2 pad row widths in
    Format.fprintf ppf "  %s@." (String.concat "  " padded)
  in
  Format.fprintf ppf "%s@." t.title;
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row body
