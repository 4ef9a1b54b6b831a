(* The benchmark driver.

   Part 1 regenerates every table and figure of the paper's evaluation
   (Section 4) on the simulated 256-processor machine, printing one
   aligned text table per artifact — the same rows/series the paper
   plots.  Expected shapes versus the paper are catalogued in
   EXPERIMENTS.md.  Every Figure 5-9 series (plus the ablations and
   extensions) and the audit, chaos and adapt gate sections are also
   written as a schema-stable BENCH.json, byte-identical for any
   --jobs.

   Part 2 runs Bechamel micro-benchmarks of the host multicore library's
   primitive operations.  Wall-clock speed is otherwise measured by
   pqperf (perf/, BENCHMARK.json), not here.

   Usage: main.exe [quick] [--json PATH] [--jobs N].  `quick` caps the
   sweeps at 64 processors (default: paper scale); `--json` overrides
   the output path BENCH.json; `--jobs` defaults to PQBENCH_JOBS, else 1.
   Anything else prints the usage line and exits 2. *)

let usage () =
  prerr_endline "usage: main.exe [quick] [--json PATH] [--jobs N (>= 1)]";
  exit 2

let quick, json_path, jobs =
  let rec parse ((quick, json, jobs) as acc) = function
    | [] -> acc
    | "quick" :: rest -> parse (true, json, jobs) rest
    | "--json" :: path :: rest -> parse (quick, path, jobs) rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> parse (quick, json, j) rest
        | _ -> usage ())
    | _ -> usage ()
  in
  parse
    (false, "BENCH.json", Pqbenchlib.Pool.default_jobs ())
    (List.tl (Array.to_list Sys.argv))

(* ------------------------------------------------------------------ *)
(* Part 1: the paper's evaluation *)

let scale =
  if quick then { Pqbenchlib.Figures.quick with jobs }
  else { Pqbenchlib.Figures.full with ops = 40; jobs }

let () =
  Printf.printf
    "=====================================================================\n\
     Part 1: paper evaluation on the simulated %d-processor ccNUMA machine\n\
     (latency = average simulated cycles per operation; shapes, not\n\
     absolute values, are comparable with the paper)\n\
     =====================================================================\n"
    scale.Pqbenchlib.Figures.max_procs;
  let figures = Pqbenchlib.Figures.collect scale in
  ignore (Pqbenchlib.Figures.sensitivity scale);
  (* a couple of headline contention metrics ride along in the document's
     free-form metrics section, from probed re-runs of one Figure 8 point;
     independent probed runs, so they fan out like any other sweep *)
  let metrics =
    let p = min 64 scale.Pqbenchlib.Figures.max_procs in
    Pqbenchlib.Pool.map ~jobs
      (fun queue ->
        let r =
          Pqbenchlib.Profiler.profile_queue ~queue ~nprocs:p
            ~ops_per_proc:scale.Pqbenchlib.Figures.ops ()
        in
        ( Printf.sprintf "%s.P%d" queue p,
          Pqtrace.Metrics.to_json r.Pqbenchlib.Profiler.derived ))
      [ "SingleLock"; "HuntEtAl"; "SimpleTree"; "FunnelTree" ]
  in
  (* the gate sections: each gate's BENCH.json config, a fixed shape
     independent of --scale, so documents stay comparable *)
  let gates =
    List.map
      (fun (Pqanalysis.Gate.Gate g) ->
        let r = g.run ~jobs g.bench in
        Printf.printf "\n%s: %s\n%s" g.title r.summary r.report;
        (g.name, r.json))
      Pqanalysis.Gate.all
  in
  let doc =
    let scale = if quick then "quick" else "full" in
    { Pqtrace.Bench_out.seed = 42; scale; figures; metrics; gates }
  in
  let text = Pqtrace.Bench_out.to_string doc in
  (match Pqtrace.Bench_out.validate_string text with
  | Ok () -> ()
  | Error e -> failwith ("BENCH.json failed self-validation: " ^ e));
  let oc = open_out json_path in
  output_string oc text;
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s (%d figures, schema v%d)\n" json_path
    (List.length figures) Pqtrace.Bench_out.schema_version

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel micro-benchmarks *)

open Bechamel
open Toolkit

(* host multicore library primitives (single-domain costs) *)
let host_tests =
  let heap = Hostpq.Locked_heap.create ~npriorities:64 () in
  let bins = Hostpq.Bin_pq.create ~npriorities:64 () in
  let tree = Hostpq.Tree_pq.create ~npriorities:64 () in
  let stack = Hostpq.Elim_stack.create () in
  let counter = Hostpq.Bounded_counter.create ~floor:0 1_000_000 in
  [
    Test.make ~name:"host:locked-heap-insert-delete"
      (Staged.stage (fun () ->
           Hostpq.Locked_heap.insert heap ~pri:17 0;
           ignore (Hostpq.Locked_heap.delete_min heap)));
    Test.make ~name:"host:bin-pq-insert-delete"
      (Staged.stage (fun () ->
           Hostpq.Bin_pq.insert bins ~pri:17 0;
           ignore (Hostpq.Bin_pq.delete_min bins)));
    Test.make ~name:"host:tree-pq-insert-delete"
      (Staged.stage (fun () ->
           Hostpq.Tree_pq.insert tree ~pri:17 0;
           ignore (Hostpq.Tree_pq.delete_min tree)));
    Test.make ~name:"host:elim-stack-push-pop"
      (Staged.stage (fun () ->
           Hostpq.Elim_stack.push stack 1;
           ignore (Hostpq.Elim_stack.pop stack)));
    Test.make ~name:"host:bounded-counter-dec"
      (Staged.stage (fun () -> ignore (Hostpq.Bounded_counter.dec counter)));
  ]

let () =
  Printf.printf
    "\n\
     =====================================================================\n\
     Part 2: Bechamel micro-benchmarks (host wall-clock time)\n\
     =====================================================================\n\
     %!";
  let tests =
    Test.make_grouped ~name:"pq" ~fmt:"%s %s" host_tests
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let name_width =
    Hashtbl.fold (fun k _ acc -> max acc (String.length k)) results 0
  in
  Printf.printf "%-*s  %14s\n%s\n" name_width "benchmark" "ns/run"
    (String.make (name_width + 16) '-');
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) results []
  |> List.sort compare
  |> List.iter (fun (name, result) ->
         match Analyze.OLS.estimates result with
         | Some [ est ] -> Printf.printf "%-*s  %14.1f\n" name_width name est
         | _ -> Printf.printf "%-*s  %14s\n" name_width name "n/a")
