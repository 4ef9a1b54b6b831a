type scale = { ops : int; max_procs : int; jobs : int }

let quick = { ops = 15; max_procs = 64; jobs = 1 }
let full = { ops = 40; max_procs = 256; jobs = 1 }

(* the 1024-processor sweep scale: quick's modest per-point work (the
   point count is what grows), concurrency uncapped up to 1024 — the
   regime the arena engine makes routine (`pqbench run scale1k --xl`) *)
let xl = { ops = 15; max_procs = 1024; jobs = 1 }

(* one write per line so progress from parallel workers doesn't tear *)
let progress fmt =
  Printf.ksprintf
    (fun s ->
      prerr_string (s ^ "\n");
      flush stderr)
    fmt

(* Fan one figure's (series × point) grid across [scale.jobs] domains
   and regroup per series.  [Pool.map] preserves cell order, and every
   table is printed from the returned groups on the calling domain, so
   job count cannot change any output; at [jobs = 1] this is the plain
   sequential nested loop.  Sound because each cell is an independent
   simulation — it owns its seeded RNGs and its memory, and the
   simulator keeps no cross-run state. *)
let grid scale ~series ~points ~run ~mk =
  let cells =
    List.concat_map (fun s -> List.map (fun x -> (s, x)) (points s)) series
  in
  let out = ref (Pool.map ~jobs:scale.jobs (fun (s, x) -> run s x) cells) in
  List.map
    (fun s ->
      let rec take n =
        if n = 0 then []
        else
          match !out with
          | [] -> assert false
          | y :: tl ->
              out := tl;
              y :: take (n - 1)
      in
      mk s (take (List.length (points s))))
    series

let series name points = { Pqtrace.Bench_out.name; points }

let concurrencies scale procs = List.filter (fun p -> p <= scale.max_procs) procs

let queue_series scale ~queues ~npriorities ~procs ?(tweak = Fun.id) () =
  grid scale ~series:queues
    ~points:(fun _ -> concurrencies scale procs)
    ~run:(fun queue nprocs ->
      progress "[bench] %s N=%d P=%d" queue npriorities nprocs;
      let s = tweak (Workload.spec ~queue ~nprocs ~npriorities) in
      let r = Workload.run ~ops_per_proc:scale.ops s in
      (nprocs, r.latency_all))
    ~mk:series

(* ------------------------------------------------------------------ *)

let fig5_procs = [ 4; 8; 16; 32; 64; 128; 256 ]

let fig5_left scale =
  let data =
    grid scale
      ~series:
        [
          ("Fetch-and-add", Counterbench.Faa);
          ("BFaD+elim", Counterbench.Bounded { elim = true });
          ("BFaD-noelim", Counterbench.Bounded { elim = false });
        ]
      ~points:(fun _ -> concurrencies scale fig5_procs)
      ~run:(fun (label, mode) p ->
        progress "[bench] fig5L %s P=%d" label p;
        ( p,
          Counterbench.run ~mode ~nprocs:p ~dec_percent:50
            ~ops_per_proc:scale.ops ))
      ~mk:(fun (name, _) -> series name)
  in
  ( "Figure 5 (left): funnel counter latency, 50/50 inc/dec (cycles/op)",
    data )

let fig5_right scale =
  let p = min 256 scale.max_procs in
  let percents = [ 0; 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ] in
  let data =
    grid scale
      ~series:
        [
          ("Fetch-and-add", Counterbench.Faa);
          ("BFaD+elim", Counterbench.Bounded { elim = true });
        ]
      ~points:(fun _ -> percents)
      ~run:(fun (label, mode) pc ->
        progress "[bench] fig5R %s dec%%=%d" label pc;
        ( pc,
          Counterbench.run ~mode ~nprocs:p ~dec_percent:pc
            ~ops_per_proc:scale.ops ))
      ~mk:(fun (name, _) -> series name)
  in
  ( Printf.sprintf
      "Figure 5 (right): funnel counter latency at %d processors \
       (cycles/op)"
      p,
    data )

let fig6 scale =
  let data =
    queue_series scale ~queues:Pqcore.Registry.names_paper ~npriorities:16
      ~procs:[ 2; 4; 6; 8; 10; 12; 14; 16 ] ()
  in
  ( "Figure 6: all queues, 16 priorities, low concurrency (cycles/access)",
    data )

let fig7 scale =
  let data =
    queue_series scale ~queues:Pqcore.Registry.scalable_names ~npriorities:16
      ~procs:[ 2; 4; 8; 16; 32; 64; 128; 256 ] ()
  in
  ( "Figure 7: scalable queues, 16 priorities, high concurrency \
     (cycles/access)",
    data )

type fig8_cell = {
  f8_procs : int;
  f8_priorities : int;
  f8_queue : string;
  f8_insert : float;
  f8_delete : float;
  f8_all : float;
}

let fig8 scale =
  let configs =
    [ (16, 16); (16, 128); (64, 16); (64, 128); (256, 16); (256, 128) ]
    |> List.filter (fun (p, _) -> p <= scale.max_procs)
  in
  let data =
    grid scale ~series:configs
      ~points:(fun _ -> Pqcore.Registry.scalable_names)
      ~run:(fun (p, n) queue ->
        progress "[bench] fig8 %s N=%d P=%d" queue n p;
        let r =
          Workload.run ~ops_per_proc:scale.ops
            (Workload.spec ~queue ~nprocs:p ~npriorities:n)
        in
        {
          f8_procs = p;
          f8_priorities = n;
          f8_queue = queue;
          f8_insert = r.latency_insert;
          f8_delete = r.latency_delete;
          f8_all = r.latency_all;
        })
      ~mk:(fun _ cells -> cells)
    |> List.concat
  in
  let k v = Printf.sprintf "%.1f" (v /. 1000.) in
  let rows =
    List.map
      (fun (p, n) ->
        let cells =
          List.concat_map
            (fun queue ->
              let c =
                List.find
                  (fun c ->
                    c.f8_procs = p && c.f8_priorities = n
                    && c.f8_queue = queue)
                  data
              in
              [ k c.f8_insert; k c.f8_delete; k c.f8_all ])
            Pqcore.Registry.scalable_names
        in
        (string_of_int p :: string_of_int n :: cells))
      configs
  in
  let header =
    [ "P"; "N" ]
    @ List.concat_map
        (fun q -> [ q ^ ":Ins"; "Del"; "All" ])
        Pqcore.Registry.scalable_names
  in
  Table.print_rows
    ~title:
      "Figure 8: insert / delete-min latency break-down (thousands of \
       cycles)"
    ~header rows;
  (* BENCH.json keeps raw cycles: one series over P per (queue, N,
     metric) *)
  List.concat_map
    (fun (n, queue) ->
      let pick metric sel =
        series
          (Printf.sprintf "%s N=%d %s" queue n metric)
          (List.filter_map
             (fun c ->
               if c.f8_priorities = n && c.f8_queue = queue then
                 Some (c.f8_procs, sel c)
               else None)
             data)
      in
      [
        pick "insert" (fun c -> c.f8_insert);
        pick "delete" (fun c -> c.f8_delete);
        pick "all" (fun c -> c.f8_all);
      ])
    (List.sort_uniq compare
       (List.map (fun c -> (c.f8_priorities, c.f8_queue)) data))

let fig9 scale ~nprocs ~queues =
  let priorities = [ 2; 4; 8; 16; 32; 64; 128; 256; 512 ] in
  grid scale ~series:queues
    ~points:(fun _ -> priorities)
    ~run:(fun queue n ->
      progress "[bench] fig9 %s N=%d P=%d" queue n nprocs;
      let r =
        Workload.run ~ops_per_proc:scale.ops
          (Workload.spec ~queue ~nprocs ~npriorities:n)
      in
      (n, r.latency_all))
    ~mk:series

let fig9_left scale =
  let nprocs = min 64 scale.max_procs in
  ( Printf.sprintf
      "Figure 9 (left): latency vs priority range at %d processors \
       (cycles/access)"
      nprocs,
    fig9 scale ~nprocs ~queues:Pqcore.Registry.scalable_names )

let fig9_right scale =
  let nprocs = min 256 scale.max_procs in
  ( Printf.sprintf
      "Figure 9 (right): latency vs priority range at %d processors \
       (cycles/access; paper omits SimpleTree here)"
      nprocs,
    fig9 scale ~nprocs
      ~queues:[ "SimpleLinear"; "LinearFunnels"; "FunnelTree"; "SimpleTree" ] )

(* ------------------------------------------------------------------ *)
(* ablations *)

let sweep = [ 4; 16; 64; 128; 256 ]

let ablation_cutoff scale =
  let data =
    grid scale ~series:[ 0; 2; 4; 99 ]
      ~points:(fun _ -> concurrencies scale sweep)
      ~run:(fun cutoff p ->
        progress "[bench] cutoff=%d P=%d" cutoff p;
        let s =
          {
            (Workload.spec ~queue:"FunnelTree" ~nprocs:p ~npriorities:64) with
            cutoff;
          }
        in
        (p, (Workload.run ~ops_per_proc:scale.ops s).latency_all))
      ~mk:(fun cutoff -> series (Printf.sprintf "cutoff=%d" cutoff))
  in
  ( "Ablation: FunnelTree funnel/MCS cut-off depth, 64 priorities \
     (cycles/access; cutoff=0 means MCS-locked counters everywhere, 99 \
     funnels everywhere)",
    data )

let ablation_precheck scale =
  let data =
    queue_series scale
      ~queues:[ "LinearFunnels"; "LinearFunnelsNoCheck" ]
      ~npriorities:16 ~procs:sweep ()
  in
  ( "Ablation: LinearFunnels delete-min emptiness pre-check \
     (cycles/access)",
    data )

let ablation_adaption scale =
  let data =
    grid scale
      ~series:[ ("adaptive", true); ("fixed-width", false) ]
      ~points:(fun _ -> concurrencies scale sweep)
      ~run:(fun (label, adaptive) p ->
        progress "[bench] adaption=%s P=%d" label p;
        let s =
          {
            (Workload.spec ~queue:"FunnelTree" ~nprocs:p ~npriorities:16) with
            adaptive;
          }
        in
        (p, (Workload.run ~ops_per_proc:scale.ops s).latency_all))
      ~mk:(fun (name, _) -> series name)
  in
  ( "Ablation: funnel layer-width adaption (FunnelTree, 16 priorities)",
    data )

let counter_shootout scale =
  let makers =
    [
      ("cas", fun mem ~nprocs -> ignore nprocs; Pqcounters.Adapters.cas mem);
      ("mcs", Pqcounters.Adapters.mcs);
      ( "combtree",
        fun mem ~nprocs -> Pqcounters.Combtree.create mem ~nprocs () );
      ("dtree", fun mem ~nprocs -> Pqcounters.Dtree.create mem ~nprocs);
      ( "bitonic8",
        fun mem ~nprocs ->
          ignore nprocs;
          Pqcounters.Bitonic.create mem ~width:8 );
      ("reactive", fun mem ~nprocs -> Pqcounters.Reactive.create mem ~nprocs);
      ("funnel", Pqcounters.Adapters.funnel);
    ]
  in
  let latency maker nprocs =
    let _, r =
      Pqsim.Sim.run ~nprocs ~seed:11
        ~setup:(fun mem -> maker mem ~nprocs)
        ~program:(fun c _ ->
          for _ = 1 to scale.ops do
            Pqsim.Api.work 10;
            Pqsim.Api.timed "op" (fun () ->
                ignore (c.Pqcounters.Ctr_intf.inc ()))
          done)
        ()
    in
    Pqsim.Stats.mean r.Pqsim.Sim.stats "op"
  in
  let data =
    grid scale ~series:makers
      ~points:(fun _ -> concurrencies scale [ 2; 4; 8; 16; 32; 64; 128; 256 ])
      ~run:(fun (label, maker) p ->
        progress "[bench] counters %s P=%d" label p;
        (p, latency maker p))
      ~mk:(fun (name, _) -> series name)
  in
  ( "Counter shootout (Sec. 1/3.1 context): fetch-and-increment latency \
     across implementations (cycles/op)",
    data )

let mix scale =
  (* Figure 5 (right) varies the op mix for raw counters; this extension
     does the same for whole queues.  Elimination and combining feed on
     balanced traffic, so the funnel queues should peak at 50/50 while
     the lock-based baseline is indifferent to the mix. *)
  let nprocs = min 128 scale.max_procs in
  let biases = [ 10; 30; 50; 70; 90 ] in
  let data =
    grid scale
      ~series:[ "SimpleLinear"; "SimpleTree"; "FunnelTree" ]
      ~points:(fun _ -> biases)
      ~run:(fun queue insert_bias ->
        progress "[bench] mix %s ins%%=%d" queue insert_bias;
        let s =
          {
            (Workload.spec ~queue ~nprocs ~npriorities:16) with
            insert_bias;
            (* keep the queue from draining dry or exploding *)
            prefill = 256;
          }
        in
        (insert_bias, (Workload.run ~ops_per_proc:scale.ops s).latency_delete))
      ~mk:series
  in
  ( Printf.sprintf
      "Workload mix (extension): delete-min latency at %d processors vs \
       %% of accesses that insert (cycles/delete)"
      nprocs,
    data )

let queue_depth scale =
  (* The paper's benchmark keeps queues nearly empty (50/50 mix from an
     empty queue).  This extension pre-fills the queue behind a barrier
     and measures the same mix on a deep queue. *)
  let nprocs = min 64 scale.max_procs in
  let depths = [ 0; 128; 512; 2048 ] in
  let data =
    grid scale ~series:Pqcore.Registry.scalable_names
      ~points:(fun _ -> depths)
      ~run:(fun queue prefill ->
        progress "[bench] depth %s prefill=%d" queue prefill;
        let s =
          { (Workload.spec ~queue ~nprocs ~npriorities:16) with prefill }
        in
        (prefill, (Workload.run ~ops_per_proc:scale.ops s).latency_all))
      ~mk:series
  in
  ( Printf.sprintf
      "Queue depth (extension): latency at %d processors with a \
       pre-filled queue (cycles/access)"
      nprocs,
    data )

let sensitivity scale =
  (* The headline comparison (Fig. 7 at peak concurrency) re-run under
     perturbed machine cost models: the claim should survive a slower
     network, dearer misses and longer atomic occupancy. *)
  let p = min 256 scale.max_procs in
  let machines =
    [
      ("baseline", Pqsim.Machine.make ~nprocs:p ());
      ("slow-network", Pqsim.Machine.make ~nprocs:p ~hop_cost:4 ());
      ("dear-misses", Pqsim.Machine.make ~nprocs:p ~miss_base:40 ());
      ( "long-atomics",
        Pqsim.Machine.make ~nprocs:p ~atomic_occupancy:16 ~write_occupancy:10
          () );
      ( "uniform-memory",
        Pqsim.Machine.make ~nprocs:p ~hop_cost:0 ~mem_modules:1 () );
    ]
  in
  let queues = [ "SimpleLinear"; "SimpleTree"; "FunnelTree" ] in
  let rows =
    grid scale ~series:machines
      ~points:(fun _ -> queues)
      ~run:(fun (mname, machine) queue ->
        progress "[bench] sensitivity %s %s" mname queue;
        let s =
          {
            (Workload.spec ~queue ~nprocs:p ~npriorities:16) with
            machine = Some machine;
          }
        in
        Printf.sprintf "%.0f"
          (Workload.run ~ops_per_proc:scale.ops s).latency_all)
      ~mk:(fun (mname, _) cells -> mname :: cells)
  in
  Table.print_rows
    ~title:
      (Printf.sprintf
         "Sensitivity: latency at %d processors under perturbed machine \
          models (cycles/access)"
         p)
    ~header:("machine" :: queues) rows;
  rows

(* ------------------------------------------------------------------ *)
(* pqrelax: the relaxed MultiQueue family *)

let relaxed scale =
  let data =
    queue_series scale
      ~queues:(Pqcore.Registry.names_paper @ Pqcore.Registry.names_relaxed)
      ~npriorities:16
      ~procs:[ 2; 4; 8; 16 ] ()
  in
  ( "Relaxed (pqrelax): MultiQueue family vs the paper's seven, 16 \
     priorities, low concurrency (cycles/access)",
    data )

let relaxed_scale scale =
  let data =
    queue_series scale
      ~queues:("MultiQueue" :: Pqcore.Registry.scalable_names)
      ~npriorities:16
      ~procs:[ 2; 4; 8; 16; 32; 64; 128; 256 ] ()
  in
  ( "Relaxed (pqrelax): MultiQueue vs the scalable queues, 16 priorities, \
     high concurrency (cycles/access)",
    data )

let rank_error scale =
  (* the quality side of the relaxation trade: worst rank error the
     streaming monitor measures across the named schedules (seeds 42,
     1, 7) per concurrency.  FunnelTree rides along as the strict
     baseline — the monitor holds every strict queue to exactly 0. *)
  let procs = concurrencies scale [ 2; 4; 8; 16 ] in
  let data =
    grid scale
      ~series:(Pqcore.Registry.names_relaxed @ [ "FunnelTree" ])
      ~points:(fun _ -> procs)
      ~run:(fun queue p ->
        progress "[bench] rank_error %s P=%d" queue p;
        let worst =
          List.fold_left
            (fun worst seed ->
              List.fold_left
                (fun worst name ->
                  let h =
                    Pqcheck.History.record ~queue ~nprocs:p ~npriorities:16
                      ~ops_per_proc:30 ~seed
                      ?policy:(Pqexplore.Policy.named name ~seed ~nprocs:p)
                      ()
                  in
                  max worst (Pqcheck.Monitor.of_history h).max_rank)
                worst Pqexplore.Policy.names)
            0 [ 42; 1; 7 ]
        in
        (p, float_of_int worst))
      ~mk:series
  in
  ( "Rank error (pqrelax): worst rank error over adversarial schedules, \
     30 ops/processor (elements certainly overtaken per delete-min)",
    data )

(* ------------------------------------------------------------------ *)
(* one point of a scenario figure: a run that aborted or failed its
   check raises instead of putting a wrong number in the table *)

let checked what (o : Scenario.outcome) =
  (match o.aborted with Some e -> raise e | None -> ());
  match o.check with
  | Ok () -> o
  | Error e -> failwith (what ^ " figure: " ^ e)

let scenario_point ?phase_timing what sc scale queue p =
  progress "[bench] %s %s P=%d" what queue p;
  checked what
    (Scenario.run_sim ?phase_timing ~queue ~nprocs:p
       ~npriorities:(Scenario.npriorities_for sc ~default:16)
       ~ops_per_proc:scale.ops ~seed:42 sc)

(* ------------------------------------------------------------------ *)
(* the bursty-Zipf scenario as a figure family: per-phase latency on the
   paper's axes (concurrency sweep, cycles/access), one series per
   (queue, phase).  Phase 0 is the bursty half (Zipf producers vs
   delete-heavy consumers), phase 1 the closing drain storm — the two
   regimes a single whole-run mean conflates. *)

let burst_phase_labels = [| "burst"; "drain" |]

let burst_phases scale =
  let rows =
    grid scale ~series:Pqcore.Registry.scalable_names
      ~points:(fun _ -> concurrencies scale [ 2; 4; 8; 16; 32; 64; 128; 256 ])
      ~run:(fun queue p ->
        let o =
          scenario_point ~phase_timing:true "burst" Scenario.burst scale queue p
        in
        ( p,
          Array.init
            (Array.length burst_phase_labels)
            (fun i ->
              match
                Pqsim.Stats.summary o.Scenario.stats (Scenario.phase_key i)
              with
              | Some s -> s.Pqsim.Stats.mean
              | None -> 0.) ))
      ~mk:(fun queue points -> (queue, points))
  in
  let data =
    List.concat_map
      (fun (queue, points) ->
        List.init (Array.length burst_phase_labels) (fun i ->
            series
              (Printf.sprintf "%s %s" queue burst_phase_labels.(i))
              (List.map (fun (p, means) -> (p, means.(i))) points)))
      rows
  in
  ( "Burst (extension): per-phase latency on the bursty-Zipf scenario \
     (cycles/access)",
    data )

(* ------------------------------------------------------------------ *)
(* pqturbo: the 1024-processor frontier.  Figure 7's axes extended past
   the paper's 256-processor ceiling onto a multi-socket machine model
   ({!Pqsim.Machine.scale1k}), with a deep tree (N=1024, height 10) so
   the tree-of-counters queues traverse ten counter levels and the
   funnels run their widened four-layer configuration — probing where
   homogeneous combining saturates, the regime the 1999 paper could
   never reach. *)

let scale1k_procs = [ 64; 128; 256; 512; 1024 ]
let scale1k_npriorities = 1024

let scale1k scale =
  let height = Pqcore.Bin_queues.height ~npriorities:scale1k_npriorities in
  let data =
    grid scale ~series:Pqcore.Registry.scalable_names
      ~points:(fun _ -> concurrencies scale scale1k_procs)
      ~run:(fun queue p ->
        progress "[bench] scale1k %s P=%d" queue p;
        let s =
          {
            (Workload.spec ~queue ~nprocs:p
               ~npriorities:scale1k_npriorities)
            with
            machine = Some (Pqsim.Machine.scale1k ~nprocs:p);
          }
        in
        (p, (Workload.run ~ops_per_proc:scale.ops s).latency_all))
      ~mk:series
  in
  ( Printf.sprintf
      "Scale-1k (pqturbo): scalable queues to 1024 processors, %d \
       priorities (tree height %d; sockets past 256 procs; \
       cycles/access)"
      scale1k_npriorities height,
    data )

(* ------------------------------------------------------------------ *)
(* the hold and SSSP scenarios as figure families: the remaining two
   catalogue scenarios promoted onto the paper's axes (concurrency
   sweep), closing the ROADMAP scenario item.  Like burst_phases, each
   point is one deterministic Scenario.run_sim. *)

let hold_model scale =
  (* Gruber's classic DES hold model: every access is a delete_min
     followed by a reinsert at the popped priority plus a random lag, on
     a prefilled queue — the event-scheduler workload the simulator's
     own ladder queue is built for, here measured on the simulated
     queues *)
  let data =
    grid scale ~series:Pqcore.Registry.scalable_names
      ~points:(fun _ -> concurrencies scale [ 2; 4; 8; 16; 32; 64; 128; 256 ])
      ~run:(fun queue p ->
        let o =
          scenario_point ~phase_timing:true "hold" Scenario.hold scale queue p
        in
        let mean =
          match Pqsim.Stats.summary o.Scenario.stats (Scenario.phase_key 0) with
          | Some s -> s.Pqsim.Stats.mean
          | None -> 0.
        in
        (p, mean))
      ~mk:series
  in
  ( "Hold (scenario): DES hold-model latency, delete_min + reinsert on a \
     prefilled queue (cycles/access)",
    data )

let sssp_scaling scale =
  (* concurrent Dijkstra: the queue is the open set, so the figure's
     metric is the makespan of settling the whole graph — a whole-run
     completion time, not a per-access latency, because SSSP's accesses
     are causally chained through the graph *)
  let sc = Scenario.sssp ~nodes:96 () in
  let data =
    grid scale ~series:Pqcore.Registry.scalable_names
      ~points:(fun _ -> concurrencies scale [ 2; 4; 8; 16; 32; 64 ])
      ~run:(fun queue p ->
        let o = scenario_point "sssp" sc scale queue p in
        (p, float_of_int o.Scenario.cycles))
      ~mk:series
  in
  ( "SSSP (scenario): concurrent Dijkstra makespan over a 96-node seeded \
     graph, distances verified against the sequential reference (cycles \
     to completion)",
    data )

(* ------------------------------------------------------------------ *)
(* the catalogue: every figure's CLI name, BENCH.json entry and runner,
   in BENCH.json order *)

type experiment = {
  name : string;
  id : string;
  doc : string;
  title : string;
  xlabel : string;
  run : scale -> Pqtrace.Bench_out.series list;
}

(* an experiment whose table plots its series; [f] returns the table's
   heading with them *)
let plot name id ~doc ~title ~xlabel f =
  let run scale =
    let heading, data = f scale in
    Table.print ~title:heading ~xlabel data;
    data
  in
  { name; id; doc; title; xlabel; run }

let catalogue =
  [
    plot "fig5L" "fig5_left"
      ~doc:"funnel counter latency vs concurrency (Fig. 5 left)"
      ~title:"funnel counter latency, 50/50 inc/dec (cycles/op)" ~xlabel:"P"
      fig5_left;
    plot "fig5R" "fig5_right"
      ~doc:"funnel counter latency vs op mix (Fig. 5 right)"
      ~title:"funnel counter latency vs decrement share (cycles/op)"
      ~xlabel:"%dec" fig5_right;
    plot "fig6" "fig6" ~doc:"all queues at low concurrency (Fig. 6)"
      ~title:"all queues, 16 priorities, low concurrency (cycles/access)"
      ~xlabel:"P" fig6;
    plot "fig7" "fig7" ~doc:"scalable queues, 2-256 processors (Fig. 7)"
      ~title:
        "scalable queues, 16 priorities, high concurrency (cycles/access)"
      ~xlabel:"P" fig7;
    {
      name = "fig8";
      id = "fig8";
      doc = "insert/delete-min latency breakdown (Fig. 8)";
      title = "insert / delete-min latency break-down (cycles)";
      xlabel = "P";
      run = fig8;
    };
    plot "fig9L" "fig9_left"
      ~doc:"latency vs priority range at 64 procs (Fig. 9 left)"
      ~title:"latency vs priority range, 64 processors (cycles/access)"
      ~xlabel:"N" fig9_left;
    plot "fig9R" "fig9_right"
      ~doc:"latency vs priority range at 256 procs (Fig. 9 right)"
      ~title:"latency vs priority range, 256 processors (cycles/access)"
      ~xlabel:"N" fig9_right;
    plot "cutoff" "ablation_cutoff"
      ~doc:"ablation: FunnelTree funnel/MCS cut-off"
      ~title:"FunnelTree funnel/MCS cut-off depth (cycles/access)"
      ~xlabel:"P" ablation_cutoff;
    plot "precheck" "ablation_precheck"
      ~doc:"ablation: LinearFunnels emptiness pre-check"
      ~title:"LinearFunnels delete-min emptiness pre-check (cycles/access)"
      ~xlabel:"P" ablation_precheck;
    plot "adaption" "ablation_adaption" ~doc:"ablation: funnel width adaption"
      ~title:"funnel layer-width adaption (cycles/access)" ~xlabel:"P"
      ablation_adaption;
    plot "counters" "counter_shootout"
      ~doc:"counter shootout: cas/mcs/combtree/dtree/bitonic/funnel"
      ~title:"fetch-and-increment latency across counters (cycles/op)"
      ~xlabel:"P" counter_shootout;
    plot "depth" "queue_depth" ~doc:"latency on a pre-filled (deep) queue"
      ~title:"latency on a pre-filled queue (cycles/access)" ~xlabel:"depth"
      queue_depth;
    plot "mix" "mix" ~doc:"latency vs insert share of the access mix"
      ~title:"delete-min latency vs insert share (cycles/delete)"
      ~xlabel:"%ins" mix;
    plot "relaxed" "relaxed"
      ~doc:"MultiQueue family vs the paper's seven (pqrelax)"
      ~title:
        "MultiQueue family vs the paper's seven, low concurrency \
         (cycles/access)"
      ~xlabel:"P" relaxed;
    plot "relaxedscale" "relaxed_scale"
      ~doc:"MultiQueue vs the scalable queues, 2-256 procs"
      ~title:
        "MultiQueue vs the scalable queues, high concurrency (cycles/access)"
      ~xlabel:"P" relaxed_scale;
    plot "rankerror" "rank_error"
      ~doc:"worst rank error per concurrency (pqrelax)"
      ~title:
        "worst rank error over adversarial schedules (elements per \
         delete-min)"
      ~xlabel:"P" rank_error;
    plot "burst" "burst_phases"
      ~doc:"per-phase latency on the bursty-Zipf scenario"
      ~title:"per-phase latency on the bursty-Zipf scenario (cycles/access)"
      ~xlabel:"P" burst_phases;
    plot "scale1k" "scale1k"
      ~doc:"scalable queues to 1024 processors (pqturbo; try --xl)"
      ~title:
        "scalable queues to 1024 processors, 1024 priorities (cycles/access)"
      ~xlabel:"P" scale1k;
    plot "hold" "hold" ~doc:"DES hold-model latency on a prefilled queue"
      ~title:"DES hold-model latency on a prefilled queue (cycles/access)"
      ~xlabel:"P" hold_model;
    plot "sssp" "sssp" ~doc:"concurrent Dijkstra makespan, distances verified"
      ~title:
        "concurrent Dijkstra makespan, distances verified (cycles to \
         completion)"
      ~xlabel:"P" sssp_scaling;
  ]

let run_all scale =
  List.iter (fun e -> ignore (e.run scale)) catalogue;
  ignore (sensitivity scale)

(* BENCH.json: the same runs, captured in schema-stable form.  Each
   figure runs once; its table prints while its series are collected.
   Tables print last entry first, except that fig8 prints right after
   relaxed: the order the golden table digest pins. *)
let collect scale =
  let fig8, rest =
    List.partition (fun e -> e.id = "fig8") (List.rev catalogue)
  in
  let order =
    List.concat_map (fun e -> if e.id = "relaxed" then e :: fig8 else [ e ]) rest
  in
  let ran = List.map (fun e -> (e.id, e.run scale)) order in
  List.map
    (fun e ->
      {
        Pqtrace.Bench_out.id = e.id;
        title = e.title;
        xlabel = e.xlabel;
        series = List.assoc e.id ran;
      })
    catalogue
