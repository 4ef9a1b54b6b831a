(* pqperf: the repository's benchmark.

     pqperf run --workload W [--seed S] [--seconds N] [--trace 0|1] [--out F]
     pqperf compare [--spec BENCHMARK.json] BASE NEW
     pqperf smoke [--spec BENCHMARK.json]

   [run] measures one workload in this process and prints every metric as
   "name value unit", then one JSON line with correct, attempted, failed
   and the metrics.  The full result (settings, environment, per-round
   samples and quartiles) goes to F, by default
   _build/pqperf/<workload>.seed<S>.trace<T>.json; a traced run also
   writes its host-time spans there as a Chrome trace.  [compare] judges
   two results, or two directories of them, under BENCHMARK.json's
   bounds.  [smoke] runs every workload once at the smallest size (one
   round, one seed per simulated queue, 50 ms host reps) and checks the
   results against BENCHMARK.json. *)

module J = Pqtrace.Json

let default_seed = 42
let minor_heap_words = 4 * 1024 * 1024

(* Host reps use at most two domains, and no more than the machine has. *)
let domains () =
  let avail =
    match Option.bind (Sys.getenv_opt "PQPERF_NPROC") int_of_string_opt with
    | Some n when n > 0 -> n
    | _ -> Domain.recommended_domain_count ()
  in
  max 1 (min 2 avail)

let measure ~workload ~seed ~seconds ~trace ~smoke ~domains =
  let rep_seconds = if smoke then 0.05 else 0.25 in
  let sim cfg =
    let cfg = if smoke then { cfg with Simbench.variants = 1 } else cfg in
    (if trace then Simbench.run_traced else Simbench.run_untraced)
      cfg ~seed ~seconds ~once:smoke
  in
  let host mix =
    (if trace then Hostbench.run_traced else Hostbench.run_untraced)
      mix ~seed ~seconds ~once:smoke ~rep_seconds ~domains
  in
  let o =
    Measure.Spans.span workload (fun () ->
        match workload with
        | "sim-fig7" -> sim Simbench.fig7
        | "sim-fig6" -> sim Simbench.fig6
        | "host-coinflip" -> host Hostbench.Coinflip
        | "host-hold" -> host Hostbench.Hold
        | w -> invalid_arg ("unknown workload " ^ w))
  in
  if trace then o
  else
    let mb = float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6 in
    { o with values = o.values @ [ ("peak_heap_mb", (mb, [ mb ])) ] }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_json path j =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string j);
      output_char oc '\n')

(* one run, in this process: the result document and emitted metrics *)
let run_one ~workload ~seed ~seconds ~trace ~smoke =
  Gc.set { (Gc.get ()) with minor_heap_size = minor_heap_words };
  let domains = domains () in
  Measure.Spans.enabled := trace;
  Measure.Spans.recorded := [];
  let o = measure ~workload ~seed ~seconds ~trace ~smoke ~domains in
  let metrics = Report.emitted ~trace o in
  let r = { Report.workload; seed; seconds; trace; smoke; env = Report.env ~domains } in
  (o, metrics, Report.document r o metrics)

let usage_error msg =
  prerr_endline ("pqperf: " ^ msg);
  exit 2

let parse argv specs usage =
  let anon = ref [] in
  (try
     Arg.parse_argv ~current:(ref 0) argv specs (fun a -> anon := a :: !anon) usage
   with
  | Arg.Bad msg -> usage_error msg
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  List.rev !anon

let run_cmd argv =
  let workload = ref "" and seed = ref default_seed and seconds = ref 20 in
  let trace = ref 0 and out = ref "" in
  let anon =
    parse argv
      [
        ("--workload", Arg.Set_string workload, "W one of " ^ String.concat ", " Catalogue.workloads);
        ("--seed", Arg.Set_int seed, "S input seed (default 42; 7 is the held-out seed)");
        ("--seconds", Arg.Set_int seconds, "N how long to measure (default 20)");
        ("--trace", Arg.Set_int trace, "0|1 1 reports the per-layer metrics");
        ("--out", Arg.Set_string out, "F where to write the full result");
      ]
      "pqperf run --workload W [options]"
  in
  if anon <> [] then usage_error ("unexpected argument " ^ List.hd anon);
  if not (List.mem !workload Catalogue.workloads) then
    usage_error
      (Printf.sprintf "--workload must be one of %s" (String.concat ", " Catalogue.workloads));
  if !trace <> 0 && !trace <> 1 then usage_error "--trace must be 0 or 1";
  if !seconds < 1 then usage_error "--seconds must be at least 1";
  let trace = !trace = 1 in
  let o, metrics, doc =
    run_one ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace ~smoke:false
  in
  let base = Printf.sprintf "_build/pqperf/%s.seed%d.trace%d" !workload !seed (Bool.to_int trace) in
  write_json (if !out = "" then base ^ ".json" else !out) doc;
  if trace then write_json (base ^ ".spans.json") (Measure.Spans.to_json ());
  List.iter (fun p -> prerr_endline ("pqperf: FAILED " ^ p)) (List.rev o.tally.problems);
  List.iter
    (fun (name, unit, value, _) -> Printf.printf "%s %s %s\n" name (J.to_string (J.Float value)) unit)
    metrics;
  print_endline (Report.result_line o metrics)

let compare_cmd argv =
  let spec = ref "BENCHMARK.json" in
  match
    parse argv
      [ ("--spec", Arg.Set_string spec, "F the benchmark declaration (default BENCHMARK.json)") ]
      "pqperf compare [--spec F] BASE NEW"
  with
  | [ base; next ] -> (
      match
        Report.compare_docs (Report.load_spec !spec) (Report.load_docs base)
          (Report.load_docs next)
      with
      | lines ->
          Report.print_lines lines;
          if List.exists (fun l -> l.Report.verdict = Some Report.Regressed) lines then exit 1
      | exception Report.Refused why -> usage_error ("refused: " ^ why))
  | _ -> usage_error "compare takes BASE and NEW"

let name_ok name =
  name <> ""
  && String.for_all
       (fun c ->
         match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       name

(* Every workload once, untraced and traced, at the smallest size: the
   metrics must be exactly BENCHMARK.json's, with well-formed names and
   nonzero end-to-end values; nothing may fail; and each result compared
   with itself must be "same" throughout. *)
let smoke_cmd argv =
  let spec = ref "BENCHMARK.json" in
  ignore
    (parse argv
       [ ("--spec", Arg.Set_string spec, "F the benchmark declaration (default BENCHMARK.json)") ]
       "pqperf smoke [--spec F]");
  let spec = Report.load_spec !spec in
  let problems = ref [] in
  let check ok msg = if not ok then problems := msg :: !problems in
  let pairs ds = List.map (fun (d : Report.declared) -> (d.name, d.unit)) ds in
  check
    (List.sort compare spec.workloads = List.sort compare Catalogue.workloads)
    "BENCHMARK.json declares other workloads than pqperf runs";
  List.iter
    (fun trace ->
      let declared = pairs (if trace then spec.per_layer else spec.end_to_end) in
      List.iter (fun (n, _) -> check (name_ok n) ("malformed metric name " ^ n)) declared;
      List.iter
        (fun workload ->
          let label = Printf.sprintf "%s trace %d" workload (Bool.to_int trace) in
          let o, metrics, doc = run_one ~workload ~seed:default_seed ~seconds:1 ~trace ~smoke:true in
          check (o.tally.failed = 0 && o.tally.attempted > 0) (label ^ ": operations failed");
          check
            (List.map (fun (n, u, _, _) -> (n, u)) metrics = declared)
            (label ^ ": emitted names or units differ from BENCHMARK.json");
          if not trace then
            List.iter
              (fun (n, _, v, _) -> check (v > 0.) (Printf.sprintf "%s: %s is not positive" label n))
              metrics;
          match J.of_string (J.to_string doc) with
          | Error e -> check false (label ^ ": result does not parse: " ^ e)
          | Ok j ->
              let d = [ Report.doc_of_json j ] in
              List.iter
                (fun (l : Report.line) ->
                  check
                    (l.verdict = None || l.verdict = Some Report.Same)
                    (Printf.sprintf "%s: %s compared with itself is not the same" label l.metric))
                (Report.compare_docs spec d d))
        Catalogue.workloads)
    [ false; true ];
  match !problems with
  | [] -> print_endline "pqperf smoke: ok"
  | ps ->
      List.iter (fun p -> prerr_endline ("pqperf smoke: " ^ p)) (List.rev ps);
      exit 1

let () =
  let argv = Sys.argv in
  let rest () = Array.sub argv 1 (Array.length argv - 1) in
  match if Array.length argv > 1 then argv.(1) else "" with
  | "run" -> run_cmd (rest ())
  | "compare" -> compare_cmd (rest ())
  | "smoke" -> smoke_cmd (rest ())
  | _ -> usage_error "usage: pqperf (run | compare | smoke) ..."
