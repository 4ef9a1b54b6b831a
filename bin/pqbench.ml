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
    print_endline
      "\n\
       every experiment above is an independent-point sweep: `run', \
       `profile',\n\
       `audit', `chaos' and `adapt' accept --jobs J (env PQBENCH_JOBS) to \
       fan points\n\
       across J domains; output is byte-identical for any J."
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
        let write path text =
          let oc = open_out path in
          output_string oc text;
          close_out oc;
          Printf.printf "wrote %s\n" path
        in
        write (out ^ ".json") (Pqtrace.Recorder.to_chrome ~mem recorder);
        write (out ^ ".jsonl") (Pqtrace.Recorder.to_jsonl ~mem recorder);
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
  let max_states =
    Terms.unset Arg.int
      (Arg.info [ "max-states" ] ~docv:"M"
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
              Pqexplore.Explore.report ?nprocs ?npriorities ?ops_per_proc
                ?max_states ?seed ~policy ~budget queues
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
        $ Terms.(unset positive procs_info)
        $ Terms.(unset positive priorities_info)
        $ Terms.(unset positive ops_info)
        $ Terms.(unset Arg.int seed_info)
        $ max_states))

let audit_cmd =
  let run report jobs =
    let reports = Pqanalysis.Audit.(run ~jobs config) in
    Terms.gate ?report
      (Format.asprintf "%a" Pqanalysis.Audit.pp reports)
      (Terms.failing "audit findings in: "
         (List.filter_map
            (fun (r : Pqanalysis.Audit.report) ->
              if Pqanalysis.Audit.findings r = [] then None else Some r.queue)
            reports))
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Audit every registry queue plus Adaptive under the default, \
          random and PCT schedules x seeds 42, 1, 7 (coin-flip \
          scenario, 16 processors, 40 ops each), running each cell once \
          with one probe that feeds the race detector, the lock-order \
          analyzer and the streaming rank/conservation monitor.  Any data \
          race, lock-order cycle, discipline finding, aborted run, failed \
          check or rank error over the queue's bound fails the command.")
    Term.(ret (const run $ Terms.report $ Terms.jobs))

let chaos_cmd =
  let scenarios =
    Arg.(
      value & opt string "all"
      & info [ "scenarios" ] ~docv:"S1,S2,.."
          ~doc:
            (Printf.sprintf "Comma-separated scenarios (%s) or $(b,all)."
               (Terms.bold_list Pqbenchlib.Scenario.names)))
  in
  let plans =
    Arg.(
      value & opt string "all"
      & info [ "plans" ] ~docv:"PLANS"
          ~doc:
            (Printf.sprintf
               "Comma-separated fault plans (%s) or $(b,all); $(b,none) is \
                the fault-free arm."
               (Terms.bold_list Pqchaos.Driver.plan_names)))
  in
  let scheds =
    Arg.(
      value & opt string "default,pct"
      & info [ "sched" ] ~docv:"P1,P2,.."
          ~doc:
            (Printf.sprintf
               "Comma-separated schedule policies (%s) or $(b,all)."
               (Terms.bold_list
                  (List.map Pqexplore.Policy.string_of_name
                     Pqexplore.Policy.names))))
  in
  let seeds =
    Arg.(
      value & opt string "42,1,7"
      & info [ "seeds" ] ~docv:"S1,S2,.."
          ~doc:"Comma-separated workload seeds; each seeds a full matrix.")
  in
  let soak =
    Arg.(
      value & opt int 1
      & info [ "soak" ] ~docv:"K"
          ~doc:
            "Soak multiplier: scales ops per processor (and the SSSP graph) \
             by $(docv); monitors stream, so memory stays flat.")
  in
  let ops =
    Arg.(
      value
      & opt (some int) None
      & info [ "ops" ] ~docv:"N"
          ~doc:"Operations per processor before soak scaling.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Smaller per-cell workloads (the CI smoke configuration).")
  in
  let host =
    Arg.(
      value & flag
      & info [ "host" ]
          ~doc:
            "Also soak the host-level queues (real domains) through the \
             phased scenarios and gate their conservation.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:
            "Print every cell, and each host soak's operation counts \
             (these vary with the domains' interleaving).")
  in
  let parse_scenarios =
    Terms.parse_list ~all:Pqbenchlib.Scenario.names ~of_string:(fun x ->
        if List.mem x Pqbenchlib.Scenario.names then Ok x
        else
          Error
            (Printf.sprintf "unknown scenario %S (known: %s)" x
               (String.concat ", " Pqbenchlib.Scenario.names)))
  in
  let run queue scenarios plans scheds procs priorities ops seeds soak quick
      host verbose report jobs =
    (* every error here is a bad option value: report it with usage *)
    let ( let* ) r f =
      match r with Error e -> `Error (true, e) | Ok v -> f v
    in
    let* queues =
      if queue = "all" then Ok Pqchaos.Driver.default_queues
      else Terms.resolve_queues queue
    in
    let* scenarios = parse_scenarios scenarios in
    let* plans =
      Terms.parse_list
        ~all:(None :: List.map Option.some Pqchaos.Plan.all)
        ~of_string:Pqchaos.Driver.plan_of_string plans
    in
    let* scheds =
      Terms.parse_list ~all:Pqexplore.Policy.names
        ~of_string:Pqexplore.Policy.name_of_string scheds
    in
    let* seeds =
      Terms.parse_list seeds ~of_string:(fun x ->
          Option.to_result ~none:(Printf.sprintf "bad --seeds %S" seeds)
            (int_of_string_opt x))
    in
    let base =
      if quick then Pqchaos.Driver.quick else Pqchaos.Driver.default
    in
    let cfg =
      {
        base with
        Pqchaos.Driver.queues;
        scenarios;
        plans;
        scheds;
        seeds;
        nprocs = procs;
        npriorities = priorities;
        ops_per_proc =
          Option.value ops ~default:base.Pqchaos.Driver.ops_per_proc;
        soak;
      }
    in
    let* cells =
      match Pqchaos.Driver.run ~jobs cfg with
      | cells -> Ok cells
      | exception Pqchaos.Driver.Invalid_config { field; reason } ->
          (* --procs and --priorities are already positive (Terms) *)
          let option = if field = "ops_per_proc" then "ops" else field in
          Error (Printf.sprintf "--%s: %s" option reason)
    in
    let buf = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer buf in
    Pqchaos.Driver.pp ~verbose ppf cells;
    let host_failures =
      if host then Pqchaos.Host.run ~verbose ppf cfg else []
    in
    Format.pp_print_flush ppf ();
    Terms.gate ?report (Buffer.contents buf)
      (Pqchaos.Driver.gate cells @ host_failures)
      ~pass_line:
        (Printf.sprintf "chaos: %d cells, worst verdict %s\n"
           (List.length cells)
           (Pqchaos.Driver.verdict_label (Pqchaos.Driver.worst cells)))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Soak every queue through the scenario x fault x schedule matrix \
          under streaming invariant monitors, and classify each cell as \
          healthy, degraded, blocked or a safety violation. Safety \
          violations — and blockage without a crash fault — fail the \
          command.")
    Term.(
      ret
        (const run
        $ Terms.queue ~default:"all"
            ~doc:
              "Queue algorithm, or $(b,all) for the paper's seven plus every \
               MultiQueue variant."
        $ scenarios $ plans $ scheds $ Terms.procs ~default:4
        $ Terms.priorities ~default:16 $ ops $ seeds $ soak $ quick $ host
        $ verbose $ Terms.report $ Terms.jobs))

let adapt_cmd =
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Smaller per-phase workloads (the CI gate configuration).")
  in
  let backends =
    Arg.(
      value
      & opt (some string) None
      & info [ "backends" ] ~docv:"LIGHT,HEAVY"
          ~doc:
            "Backend pair as $(docv): the queue used under the light regime \
             and under the heavy regime (default SingleLock,FunnelTree).")
  in
  let ops =
    Arg.(
      value
      & opt (some int) None
      & info [ "ops" ] ~docv:"N" ~doc:"Operations per processor per phase.")
  in
  let factor =
    Arg.(
      value
      & opt (some float) None
      & info [ "factor" ] ~docv:"F"
          ~doc:"Allowed per-phase latency ratio to the best static backend.")
  in
  let run quick backends procs priorities ops seed factor report jobs =
    let base =
      if quick then Pqadapt.Driver.quick else Pqadapt.Driver.default
    in
    let meta =
      match backends with
      | None -> Ok base.Pqadapt.Driver.meta
      | Some s -> (
          match String.split_on_char ',' s |> List.map String.trim with
          | [ light; heavy ] ->
              let m = { base.Pqadapt.Driver.meta with Pqadapt.Meta.light; heavy } in
              (try
                 Pqadapt.Meta.validate m;
                 Ok m
               with Invalid_argument e -> Error e)
          | _ -> Error (Printf.sprintf "bad --backends %S (want LIGHT,HEAVY)" s))
    in
    match meta with
    | Error e -> `Error (false, e)
    | Ok meta ->
        let cfg =
          Pqadapt.Driver.make ~nprocs:procs ~npriorities:priorities
            ~phase_ops:
              (Option.value ops ~default:base.Pqadapt.Driver.phase_ops)
            ~seed
            ~factor:(Option.value factor ~default:base.Pqadapt.Driver.factor)
            ~meta ()
        in
        let r = Pqadapt.Driver.run ~jobs cfg in
        Terms.gate ?report
          (Pqadapt.Driver.report_to_string r)
          r.Pqadapt.Driver.errors
  in
  Cmd.v
    (Cmd.info "adapt"
       ~doc:
         "Run the adaptive meta-queue against its static backends on the \
          phase-shifted workload (uniform-heavy, skewed-low, uniform-heavy) \
          and gate it: at least one backend switch per direction, per-phase \
          mean latency within --factor of the best static backend and \
          strictly better than the worst, conservation green.")
    Term.(
      ret
        (const run $ quick $ backends $ Terms.procs ~default:16
        $ Terms.priorities ~default:256 $ ops $ Terms.seed $ factor
        $ Terms.report $ Terms.jobs))

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
          [
            list_cmd; run_cmd; bench_cmd; profile_cmd; trace_cmd; validate_cmd;
            explore_cmd; audit_cmd; chaos_cmd;
            adapt_cmd; lint_cmd;
          ]))
