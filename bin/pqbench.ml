(* Command-line driver: run a single queue benchmark, regenerate any of
   the paper's figures/tables on the simulated multiprocessor, or observe
   a run through the pqtrace subsystem (event traces, contention
   profiles, BENCH.json validation). *)

open Cmdliner

(* the figure catalogue, then the two experiments that make no
   BENCH.json figure *)
let experiments : (string * string * (Pqbenchlib.Figures.scale -> unit)) list =
  List.map
    (fun (e : Pqbenchlib.Figures.experiment) ->
      (e.name, e.doc, fun s -> ignore (e.run s)))
    Pqbenchlib.Figures.catalogue
  @ [
      ("sensitivity", "headline comparison under perturbed machine models",
       fun s -> ignore (Pqbenchlib.Figures.sensitivity s));
      ("all", "every figure, table and ablation", Pqbenchlib.Figures.run_all);
    ]

let scale_term =
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Paper scale: up to 256 processors.")
  in
  let xl =
    Arg.(
      value & flag
      & info [ "xl" ]
          ~doc:"Frontier scale: up to 1024 processors (pqturbo sweeps).")
  in
  let ops =
    Arg.(
      value
      & opt (some int) None
      & info [ "ops" ] ~docv:"N" ~doc:"Queue accesses per processor.")
  in
  let make full xl ops jobs =
    let base =
      if xl then Pqbenchlib.Figures.xl
      else if full then Pqbenchlib.Figures.full
      else Pqbenchlib.Figures.quick
    in
    let base = { base with Pqbenchlib.Figures.jobs } in
    match ops with None -> base | Some o -> { base with ops = o }
  in
  Term.(const make $ full $ xl $ ops $ Terms.jobs)

let list_cmd =
  let run () =
    print_endline "queues (the paper's seven, strict):";
    List.iter (Printf.printf "  %s\n") Pqcore.Registry.names_paper;
    print_endline "ablation variants (strict):";
    List.iter (Printf.printf "  %s\n")
      (List.filter
         (fun n ->
           (not (List.mem n Pqcore.Registry.names_paper))
           && not (List.mem n Pqcore.Registry.names_relaxed))
         Pqcore.Registry.names);
    print_endline "relaxed (MultiQueue family, bounded rank error):";
    List.iter (Printf.printf "  %s\n") Pqcore.Registry.names_relaxed;
    print_endline "adaptive (meta-queue over registry backends, `pqbench adapt'):";
    Printf.printf "  Adaptive(%s|%s)  [default light|heavy backends]\n"
      Pqadapt.Meta.default.Pqadapt.Meta.light
      Pqadapt.Meta.default.Pqadapt.Meta.heavy;
    print_endline "experiments:";
    List.iter (fun (n, d, _) -> Printf.printf "  %-10s %s\n" n d) experiments;
    let gates =
      List.map (fun (Pqanalysis.Gate.Gate g) -> g.name) Pqanalysis.Gate.all
    in
    Printf.printf
      "\nevery experiment above is an independent-point sweep: run, profile,\n\
       %s accept --jobs J (env PQBENCH_JOBS) to fan points across J\n\
       domains; output is byte-identical for any J.\n"
      (String.concat ", " gates)
  in
  Cmd.v (Cmd.info "list" ~doc:"List queues and experiments.")
    Term.(const run $ const ())

let run_cmd =
  let exp =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT" ~doc:"Experiment id (see `pqbench list').")
  in
  let run scale exp =
    match List.find_opt (fun (n, _, _) -> n = exp) experiments with
    | Some (_, _, f) ->
        f scale;
        `Ok ()
    | None ->
        `Error
          (false, Printf.sprintf "unknown experiment %S; try `pqbench list'" exp)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Regenerate a figure/table from the paper.")
    Term.(ret (const run $ scale_term $ exp))

let bench_cmd =
  let run queue procs priorities ops seed =
    let spec =
      {
        (Pqbenchlib.Workload.spec ~queue ~nprocs:procs ~npriorities:priorities)
        with
        seed;
      }
    in
    let r = Pqbenchlib.Workload.run ~ops_per_proc:ops spec in
    Printf.printf
      "%s  P=%d N=%d ops/proc=%d seed=%d\n\
       latency/access: %.0f cycles (insert %.0f, delete-min %.0f)\n\
       inserts: %d  deletes: %d  empty deletes: %d\n\
       makespan: %d cycles  line-queueing: %d cycles\n"
      queue procs priorities ops seed r.latency_all r.latency_insert
      r.latency_delete r.inserts r.deletes r.empty_deletes r.cycles
      r.queue_wait;
    match Pqsim.Mem.hot_lines r.mem 5 with
    | [] -> ()
    | hot ->
        Printf.printf "hottest lines (addr: queued cycles):";
        List.iter (fun (a, w) -> Printf.printf "  %d:%d" a w) hot;
        print_newline ()
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Run a single queue benchmark point.")
    Term.(
      const run
      $ Terms.queue ~default:"FunnelTree" ~doc:"Queue algorithm."
      $ Terms.procs ~default:16 $ Terms.priorities ~default:16
      $ Terms.ops ~default:40 $ Terms.seed)

let profile_cmd =
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K" ~doc:"Rows in the hottest-lines table.")
  in
  let run queue procs priorities ops seed top jobs =
    match Terms.resolve_queues queue with
    | Error e -> `Error (false, e)
    | Ok queues ->
        (* compute in parallel, print in queue order *)
        Pqbenchlib.Pool.map ~jobs
          (fun q ->
            Pqbenchlib.Profiler.profile_queue ~npriorities:priorities ~seed
              ~ops_per_proc:ops ~top ~queue:q ~nprocs:procs ())
          queues
        |> List.iter (fun r -> Format.printf "%a@.@." Pqbenchlib.Profiler.pp_report r);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run queues under a metrics probe and print contention metrics \
          (lock wait/hold, combining and elimination rates, CAS failures) \
          plus the hottest cache lines with symbolic names.")
    Term.(
      ret
        (const run
        $ Terms.queue ~default:"all"
            ~doc:"Queue algorithm, or $(b,all) for the paper's seven."
        $ Terms.procs ~default:64 $ Terms.priorities ~default:16
        $ Terms.ops ~default:40 $ Terms.seed $ top $ Terms.jobs))

let trace_cmd =
  let out =
    Arg.(
      value & opt string "trace"
      & info [ "out"; "o" ] ~docv:"PREFIX"
          ~doc:
            "Output prefix: writes $(docv).json (Chrome trace_event, load \
             in chrome://tracing or Perfetto) and $(docv).jsonl (one event \
             per line).")
  in
  let limit =
    Arg.(
      value & opt int 1_000_000
      & info [ "limit" ] ~docv:"E" ~doc:"Buffered-event cap.")
  in
  let run queue procs priorities ops seed limit out =
    match Terms.resolve_queues queue with
    | Error e -> `Error (false, e)
    | Ok [ q ] ->
        let recorder, r =
          Pqbenchlib.Profiler.trace_queue ~npriorities:priorities ~seed
            ~ops_per_proc:ops ~limit ~queue:q ~nprocs:procs ()
        in
        let mem = r.Pqbenchlib.Workload.mem in
        Terms.write (out ^ ".json") (Pqtrace.Recorder.to_chrome ~mem recorder);
        Terms.write (out ^ ".jsonl") (Pqtrace.Recorder.to_jsonl ~mem recorder);
        Printf.printf "%s  P=%d N=%d seed=%d: %d events (%d dropped), %d cycles\n"
          q procs priorities seed
          (Pqtrace.Recorder.length recorder)
          (Pqtrace.Recorder.dropped recorder)
          r.Pqbenchlib.Workload.cycles;
        `Ok ()
    | Ok _ ->
        `Error (false, "trace records one queue at a time; pick one, not all")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Record the full event trace of one benchmark run (memory \
          operations, lock hand-offs, funnel combines/eliminations, \
          scheduler decisions) and export it as a Chrome trace plus JSONL.")
    Term.(
      ret
        (const run
        $ Terms.queue ~default:"FunnelTree" ~doc:"Queue algorithm."
        $ Terms.procs ~default:8 $ Terms.priorities ~default:16
        $ Terms.ops ~default:10 $ Terms.seed $ limit $ out))

let validate_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"BENCH.json document to validate.")
  in
  let run file =
    let ic = open_in_bin file in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Pqtrace.Bench_out.validate_string text with
    | Ok () ->
        Printf.printf "%s: valid (schema v%d)\n" file
          Pqtrace.Bench_out.schema_version;
        `Ok ()
    | Error e -> `Error (false, Printf.sprintf "%s: %s" file e)
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Check a BENCH.json document against the benchmark schema.")
    Term.(ret (const run $ file))

let explore_cmd =
  let policy =
    Arg.(
      value & opt string "random"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Schedule generator: $(b,random), $(b,pct) or $(b,dfs).")
  in
  let budget =
    Arg.(
      value & opt Terms.positive 64
      & info [ "budget" ] ~docv:"N" ~doc:"Schedules to explore per queue.")
  in
  (* the shape defaults are the library's: Driver.config's *)
  let d = Pqexplore.Driver.config "" in
  let max_states =
    Arg.(
      value & opt int d.max_states
      & info [ "max-states" ] ~docv:"M"
          ~doc:
            "State bound for each linearizability search (quiescent \
             consistency is decided without a search).")
  in
  let run queue policy budget nprocs npriorities ops_per_proc seed max_states =
    match Pqexplore.Explore.policy_kind_of_string policy with
    | Error e -> `Error (false, e)
    | Ok policy -> (
        match Terms.resolve_queues queue with
        | Error e -> `Error (false, e)
        | Ok queues ->
            let text, inconsistent =
              Pqexplore.Explore.report ~seed ~policy ~budget queues
                ~cfg:
                  (Pqexplore.Driver.config ~nprocs ~npriorities ~ops_per_proc
                     ~max_states)
            in
            Terms.gate text
              (Terms.failing "quiescent-consistency violation found: "
                 inconsistent))
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Explore adversarial schedules and check each queue's consistency \
          claims.")
    Term.(
      ret
        (const run
        $ Terms.queue ~default:"all"
            ~doc:"Queue algorithm, or $(b,all) for the paper's seven."
        $ policy $ budget
        $ Terms.procs ~default:d.nprocs
        $ Terms.priorities ~default:d.npriorities
        $ Terms.ops ~default:d.ops_per_proc
        $ Terms.seed
        $ max_states))

(* one command per gate (Pqanalysis.Gate): --quick and each field of
   the gate, every default shown as printed from its config, then
   --report and --jobs; a bad value is a usage error naming its flag *)
let gate_cmd (Pqanalysis.Gate.Gate g) =
  let open Pqanalysis.Gate in
  let term f =
    let given v = [ (List.hd f.names, v) ] in
    match f.arg with
    | Flag _ ->
        Term.(
          const (fun b -> if b then given "" else [])
          $ Arg.(value & flag & info f.names ~doc:f.doc))
    | Value { docv; print; _ } ->
        let absent =
          match g.quick with
          | Some q when print q <> print g.default ->
              Printf.sprintf "%s; %s with --quick" (print g.default) (print q)
          | _ -> print g.default
        in
        let i = Arg.info f.names ~docv ~doc:f.doc ~absent in
        Term.(
          const (Option.fold ~none:[] ~some:given)
          $ Arg.(value & opt (some string) None i))
  in
  let quick =
    let doc = "Smaller workloads: the quick configuration CI gates on." in
    { names = [ "quick" ]; doc; arg = Flag Fun.id }
  in
  let args =
    List.fold_right
      (fun f acc -> Term.(const ( @ ) $ term f $ acc))
      ((if Option.is_none g.quick then [] else [ quick ]) @ g.fields)
      (Term.const [])
  in
  let run args report jobs =
    match configure g args with
    | Error e -> `Error (true, e)
    | Ok cfg ->
        let r = g.run ~jobs cfg in
        Terms.gate ?report r.report r.errors
          ~pass_line:(Printf.sprintf "%s: %s\n" g.name r.summary)
  in
  Cmd.v (Cmd.info g.name ~doc:g.doc)
    Term.(ret (const run $ args $ Terms.report $ Terms.jobs))

let lint_cmd =
  let root =
    Arg.(
      value & opt string "."
      & info [ "root" ] ~docv:"DIR"
          ~doc:"Repository root containing the linted lib/ subtrees.")
  in
  let allow =
    Arg.(
      value
      & opt (some string) None
      & info [ "allow" ] ~docv:"FILE"
          ~doc:"Allowlist file (default: $(b,.pqlint-allow) under the root).")
  in
  let run root allow =
    let allow_file =
      match allow with
      | Some f -> f
      | None -> Filename.concat root ".pqlint-allow"
    in
    let allow = Pqanalysis.Lint.load_allow allow_file in
    match Pqanalysis.Lint.scan_dirs ~allow ~root () with
    | [] ->
        Printf.printf "lint: %d rules clean over %s + %s (%d allowlist entries)\n"
          5
          (String.concat ", " Pqanalysis.Lint.default_dirs)
          (String.concat ", " Pqanalysis.Lint.default_extra_files)
          (List.length allow);
        `Ok ()
    | violations ->
        List.iter
          (Format.printf "%a@." Pqanalysis.Lint.pp_violation)
          violations;
        `Error
          ( false,
            Printf.sprintf "%d memory-discipline violation%s"
              (List.length violations)
              (if List.length violations = 1 then "" else "s") )
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically check that simulated algorithm code stays inside the \
          priced Api/Mem instruction set: no host-level mutable state or \
          effects, an .mli for every .ml, no unbounded spin loops.")
    Term.(ret (const run $ root $ allow))

let () =
  let doc =
    "bounded-range concurrent priority queues on a simulated multiprocessor"
  in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "pqbench" ~doc)
          ([
             list_cmd; run_cmd; bench_cmd; profile_cmd; trace_cmd; validate_cmd;
             explore_cmd; lint_cmd;
           ]
          @ List.map gate_cmd Pqanalysis.Gate.all)))
