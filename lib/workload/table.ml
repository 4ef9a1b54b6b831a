let render_rows ~title ~header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun m row ->
        match List.nth_opt row c with
        | Some cell -> max m (String.length cell)
        | None -> m)
      0 all
  in
  let widths = List.init ncols width in
  let render_row row =
    String.concat "  "
      (List.mapi
         (fun c w ->
           let cell = Option.value (List.nth_opt row c) ~default:"" in
           let pad = String.make (w - String.length cell) ' ' in
           if c = 0 then cell ^ pad else pad ^ cell)
         widths)
  in
  let sep =
    String.make (List.fold_left ( + ) (2 * (ncols - 1)) widths) '-'
  in
  String.concat "\n"
    ([ ""; "== " ^ title ^ " =="; render_row header; sep ]
    @ List.map render_row rows
    @ [ "" ])

let print_rows ~title ~header rows =
  print_string (render_rows ~title ~header rows);
  print_newline ()

let render ~title ~xlabel series =
  let open Pqtrace.Bench_out in
  let xs =
    List.concat_map (fun s -> List.map fst s.points) series
    |> List.sort_uniq compare
  in
  let header = xlabel :: List.map (fun s -> s.name) series in
  let rows =
    List.map
      (fun x ->
        string_of_int x
        :: List.map
             (fun s ->
               match List.assoc_opt x s.points with
               | Some y -> Printf.sprintf "%.0f" y
               | None -> "-")
             series)
      xs
  in
  render_rows ~title ~header rows

let print ~title ~xlabel series =
  print_string (render ~title ~xlabel series);
  print_newline ()
