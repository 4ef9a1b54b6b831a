(* Result documents, BENCHMARK.json, and the comparison of two sets of
   results under BENCHMARK.json's bounds. *)

module J = Pqtrace.Json

(* ---- emitting a run's metrics -------------------------------------- *)

(* The metrics a run reports, in catalogue order: every end-to-end
   metric untraced, every per-layer metric traced.  A layer the workload
   does not execute reads 0.  A workload that computes a name outside
   the catalogue, or misses an end-to-end metric, is a benchmark bug. *)
let emitted ~trace (o : Measure.outcome) =
  let catalogue = Catalogue.metrics ~trace in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalogue) then
        invalid_arg ("pqperf: metric outside the catalogue: " ^ name))
    o.values;
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name o.values with
      | Some (value, samples) -> (name, unit, value, samples)
      | None when trace -> (name, unit, 0., [])
      | None -> invalid_arg ("pqperf: end-to-end metric not measured: " ^ name))
    catalogue

let finite x = if Float.is_finite x then x else 0.

let env ~domains =
  let nproc =
    match Option.bind (Sys.getenv_opt "PQPERF_NPROC") int_of_string_opt with
    | Some n -> n
    | None -> 0
  in
  J.
    [
      ("nproc", Int nproc);
      ("recommended_domain_count", Int (Domain.recommended_domain_count ()));
      ("ocaml", String Sys.ocaml_version);
      ("minor_heap_words", Int (Gc.get ()).minor_heap_size);
      ("domains", Int domains);
    ]

let correct (o : Measure.outcome) = o.tally.failed = 0 && o.tally.attempted > 0

type run = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  smoke : bool;
  env : (string * J.t) list;
}

let document r (o : Measure.outcome) metrics =
  let open J in
  let metric (name, unit, value, samples) =
    let q1, med, q3 = Measure.quartiles samples in
    ( name,
      Obj
        [
          ("value", Float (finite value));
          ("unit", String unit);
          ("q1", Float (finite q1));
          ("median", Float (finite med));
          ("q3", Float (finite q3));
          ("count", Int (List.length samples));
          ("samples", List (List.map (fun x -> Float (finite x)) samples));
        ] )
  in
  Obj
    [
      ("pqperf", Int 1);
      ("workload", String r.workload);
      ("seed", Int r.seed);
      ("seconds", Int r.seconds);
      ("trace", Int (if r.trace then 1 else 0));
      ("smoke", Bool r.smoke);
      ("env", Obj r.env);
      ("settings", Obj o.settings);
      ("counts", Obj o.counts);
      ("correct", Bool (correct o));
      ("attempted", Int o.tally.attempted);
      ("failed", Int o.tally.failed);
      ("problems", List (List.rev_map (fun p -> String p) o.tally.problems));
      ("metrics", Obj (List.map metric metrics));
      ( "series",
        Obj
          (List.map
             (fun (name, xs) -> (name, List (List.map (fun x -> Float (finite x)) xs)))
             o.series) );
    ]

(* the one-line result: correct, attempted, failed and every metric's
   value and unit *)
let result_line (o : Measure.outcome) metrics =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (correct o));
         ("attempted", J.Int o.tally.attempted);
         ("failed", J.Int o.tally.failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (name, unit, value, _) ->
                  (name, J.Obj [ ("value", J.Float (finite value)); ("unit", J.String unit) ]))
                metrics) );
       ])

(* ---- BENCHMARK.json ------------------------------------------------ *)

type declared = { name : string; unit : string; lower_better : bool; bound : float option }

type spec = {
  workloads : string list;
  end_to_end : declared list;
  per_layer : declared list;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let field name conv j =
  match Option.bind (J.member name j) conv with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing or malformed field %S" name)

let list_field name j = field name J.to_list j

let load_spec path =
  match J.of_string (read_file path) with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok j ->
      let declared m =
        {
          name = field "name" J.to_str m;
          unit = field "unit" J.to_str m;
          lower_better = field "better" J.to_str m = "lower";
          bound = Option.bind (J.member "bound" m) J.to_float;
        }
      in
      {
        workloads = List.map (field "name" J.to_str) (list_field "workloads" j);
        end_to_end = List.map declared (list_field "end_to_end" j);
        per_layer = List.map declared (list_field "per_layer" j);
      }

(* ---- comparing two sets of results --------------------------------- *)

type doc = {
  d_workload : string;
  d_trace : int;
  d_seed : int;
  d_header : J.t;  (** what must match across docs: seconds, smoke, env, settings *)
  d_metrics : J.t;
}

let doc_of_json j =
  {
    d_workload = field "workload" J.to_str j;
    d_trace = field "trace" J.to_int j;
    d_seed = field "seed" J.to_int j;
    d_header =
      J.Obj
        (List.map
           (fun k -> (k, field k Option.some j))
           [ "seconds"; "smoke"; "env"; "settings" ]);
    d_metrics = field "metrics" Option.some j;
  }

(* a result file, or every .json result file in a directory *)
let load_docs path =
  let files =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.sort compare
      |> List.map (Filename.concat path)
    else [ path ]
  in
  List.map
    (fun f ->
      match J.of_string (read_file f) with
      | Ok j when J.member "pqperf" j <> None -> doc_of_json j
      | Ok _ -> failwith (f ^ ": not a pqperf result")
      | Error e -> failwith (f ^ ": " ^ e))
    files

(* The samples a side holds for one metric: each run's value when the
   side holds several runs, else the one run's per-round samples. *)
let samples docs name =
  let metric d = Option.bind (J.member name d.d_metrics) Option.some in
  match docs with
  | [ d ] -> (
      match metric d with
      | Some m -> (
          match Option.bind (J.member "samples" m) J.to_list with
          | Some (_ :: _ as l) -> List.filter_map J.to_float l
          | _ -> Option.to_list (Option.bind (J.member "value" m) J.to_float))
      | None -> [])
  | _ ->
      List.filter_map
        (fun d -> Option.bind (metric d) (fun m -> Option.bind (J.member "value" m) J.to_float))
        docs

type verdict = Improved | Same | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Same -> "same"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* [worse] is the change toward the bad direction as a share of the
   base median; [spread] the wider side's interquartile range as a share
   of its median.  Within the spread a change is unresolved unless every
   new sample beats every base sample. *)
let verdict ~lower_better ~bound base next =
  let b = Measure.median base and n = Measure.median next in
  let better x y = if lower_better then x < y else x > y in
  let worse = Measure.ratio (if lower_better then n -. b else b -. n) (Float.abs b) in
  let spread xs =
    let q1, m, q3 = Measure.quartiles xs in
    Measure.ratio (q3 -. q1) (Float.abs m)
  in
  if Float.max (spread base) (spread next) > bound then
    if List.for_all (fun x -> List.for_all (better x) base) next then Improved
    else Unresolved
  else if worse > bound then Regressed
  else if worse < -.bound then Improved
  else Same

type line = {
  workload : string;
  metric : string;
  base : float;
  next : float;
  verdict : verdict option;  (** None for per-layer metrics, which have no bound *)
}

exception Refused of string

(* Pair the two sides by (workload, traced), refuse pairs whose seeds,
   settings or environment differ, and judge every declared metric. *)
let compare_docs spec base next =
  let groups docs =
    List.sort_uniq compare (List.map (fun d -> (d.d_workload, d.d_trace)) docs)
  in
  let pick docs (w, t) = List.filter (fun d -> d.d_workload = w && d.d_trace = t) docs in
  List.concat_map
    (fun key ->
      let w, t = key in
      let bs = pick base key and ns = pick next key in
      if ns = [] then []
      else begin
        let seeds ds = List.sort compare (List.map (fun d -> d.d_seed) ds) in
        if seeds bs <> seeds ns then
          raise (Refused (Printf.sprintf "%s: the two sides ran different seeds" w));
        (match bs @ ns with
        | d :: rest when List.exists (fun x -> x.d_header <> d.d_header) rest ->
            raise
              (Refused
                 (Printf.sprintf "%s: the runs differ in length, settings or environment" w))
        | _ -> ());
        List.map
          (fun m ->
            let b = samples bs m.name and n = samples ns m.name in
            {
              workload = w;
              metric = m.name;
              base = Measure.median b;
              next = Measure.median n;
              verdict =
                Option.map
                  (fun bound -> verdict ~lower_better:m.lower_better ~bound b n)
                  m.bound;
            })
          (if t = 0 then spec.end_to_end else spec.per_layer)
      end)
    (groups base)

let print_lines lines =
  Printf.printf "%-14s %-40s %16s %16s %10s  %s\n" "workload" "metric" "base" "new"
    "new/base" "verdict";
  List.iter
    (fun l ->
      Printf.printf "%-14s %-40s %16.6g %16.6g %10.4f  %s\n" l.workload l.metric l.base
        l.next (Measure.ratio l.next l.base)
        (match l.verdict with Some v -> verdict_name v | None -> "-"))
    lines
