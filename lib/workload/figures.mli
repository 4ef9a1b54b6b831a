(** One entry point per figure and table in the paper's evaluation
    (Section 4), plus the ablations called out in DESIGN.md.  Each
    function runs the simulations, prints an aligned text table with the
    same rows/series as the paper's artifact, and returns the data.

    Absolute cycle counts differ from the paper's Proteus testbed; the
    claims to check are comparative (who wins, by what factor, where the
    crossovers fall) and are summarised in EXPERIMENTS.md. *)

type scale = {
  ops : int;  (** queue accesses per processor *)
  max_procs : int;  (** skip sweep points above this concurrency *)
  jobs : int;
      (** host domains running experiment points concurrently (see
          {!Pool}); any value produces byte-identical tables and
          BENCH.json because points are independent and results are
          merged in fixed point order *)
}

val quick : scale
(** small runs for CI: up to 64 processors, [jobs = 1] *)

val full : scale
(** the paper's range: up to 256 processors, [jobs = 1] *)

val xl : scale
(** the pqturbo frontier: up to 1024 processors at quick's per-point
    work, [jobs = 1] — the scale the arena engine makes routine
    ([pqbench run scale1k --xl]) *)

val fig5_left : scale -> Table.series list
(** funnel fetch-and-add vs bounded-decrement-with-elimination latency,
    50/50 mix, concurrency sweep (also carries the no-elimination
    ablation series) *)

val fig5_right : scale -> Table.series list
(** same comparison at peak concurrency, sweeping the decrement share *)

val fig6 : scale -> Table.series list
(** all seven queues, 16 priorities, 2-16 processors *)

val fig7 : scale -> Table.series list
(** the four scalable queues, 16 priorities, 2-256 processors *)

type fig8_cell = {
  f8_procs : int;
  f8_priorities : int;
  f8_queue : string;
  f8_insert : float;  (** cycles per insert *)
  f8_delete : float;  (** cycles per delete-min *)
  f8_all : float;  (** cycles per access *)
}
(** one (P, N, queue) cell of the paper's Figure 8 latency break-down *)

val fig8 : scale -> fig8_cell list
(** insert / delete-min / all latency breakdown for N ∈ 16,128 and
    P ∈ 16,64,256 (prints the table in thousands of cycles, returns the
    raw cycle counts) *)

val fig9_left : scale -> Table.series list
(** latency vs priority range 2-512 at 64 processors *)

val fig9_right : scale -> Table.series list
(** latency vs priority range 2-512 at 256 processors (SimpleTree is
    reported even though the paper leaves it off the graph) *)

val ablation_cutoff : scale -> Table.series list
(** FunnelTree funnel/MCS cut-off depth *)

val ablation_precheck : scale -> Table.series list
(** LinearFunnels with and without the single-read emptiness test *)

val ablation_adaption : scale -> Table.series list
(** funnel layer-width adaption on vs off (FunnelTree) *)

val counter_shootout : scale -> Table.series list
(** fetch-and-increment latency across every counter substrate in the
    repository: CAS loop, MCS lock, software combining tree, diffracting
    tree, bitonic counting network and combining funnel — the comparison
    behind the paper's Section 1/3.1 positioning *)

val mix : scale -> Table.series list
(** latency vs the insert share of the access mix — elimination and
    combining feed on balanced traffic *)

val queue_depth : scale -> Table.series list
(** the same 50/50 workload on a queue pre-filled behind a barrier —
    deep-queue behaviour the paper's empty-start benchmark never probes *)

val relaxed : scale -> Table.series list
(** pqrelax: the MultiQueue family alongside the paper's seven at low
    concurrency — what bounded rank error buys in cycles/access *)

val relaxed_scale : scale -> Table.series list
(** pqrelax: MultiQueue against the four scalable queues across the
    paper's full 2-256 processor sweep *)

val rank_error : scale -> Table.series list
(** pqrelax: worst rank error per concurrency for every MultiQueue
    variant (FunnelTree rides along as the strict zero baseline), over
    the {!Pqexplore.Policy.names} schedules, as
    {!Pqcheck.Monitor.of_history} measures each recorded history *)

val burst_phases : scale -> Table.series list
(** the bursty-Zipf scenario as a figure family: per-phase mean latency
    (phase 0 the bursty half, phase 1 the closing drain storm) for the
    scalable queues across the concurrency sweep — one series per
    (queue, phase), via [Scenario.run_sim ~phase_timing:true] *)

val scale1k : scale -> Table.series list
(** pqturbo: Figure 7's axes extended past the paper's 256-processor
    ceiling — the scalable queues at 64-1024 processors on the
    multi-socket {!Pqsim.Machine.scale1k} model with a 1024-priority
    (height-10) tree and the widened four-layer funnels, probing where
    homogeneous combining saturates *)

val hold_model : scale -> Table.series list
(** the DES hold scenario as a figure family: delete_min + reinsert at
    the popped priority plus a random lag on a prefilled queue, mean
    access latency per concurrency ([Scenario.hold]) *)

val sssp_scaling : scale -> Table.series list
(** the SSSP scenario as a figure family: concurrent Dijkstra makespan
    over a 96-node seeded graph per concurrency, distances verified
    against the sequential reference ([Scenario.sssp]) *)

val sensitivity : scale -> string list list
(** the headline comparison re-run under perturbed machine cost models
    (slower network, dearer misses, longer atomic occupancy, uniform
    memory): checks the reproduction's shape is not an artifact of one
    set of constants *)

val run_all : scale -> unit
(** print every figure, table and ablation *)

val collect : scale -> Pqtrace.Bench_out.figure list
(** run every Figure 5-9 experiment plus the ablations and extensions,
    printing each table as usual, and return the results as
    schema-stable {!Pqtrace.Bench_out} figures for BENCH.json. *)
