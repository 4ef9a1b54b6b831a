(** Plain-text rendering of benchmark results: one aligned table per
    figure, x values down the rows and one column per series — the same
    rows/series the paper plots. *)

val render :
  title:string -> xlabel:string -> Pqtrace.Bench_out.series list -> string
(** one column per series, headed by its name; missing (x, series)
    combinations render as "-" *)

val print :
  title:string -> xlabel:string -> Pqtrace.Bench_out.series list -> unit

val render_rows :
  title:string -> header:string list -> string list list -> string
(** free-form table for Figure 8-style breakdowns *)

val print_rows : title:string -> header:string list -> string list list -> unit
