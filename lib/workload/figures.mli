(** The paper's evaluation (Section 4), the ablations called out in
    DESIGN.md and the extensions, as one catalogue.  Each entry runs
    the simulations, prints an aligned text table with the same
    rows/series as the paper's artifact, and returns the data.

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

type experiment = {
  name : string;  (** CLI name, e.g. ["fig5L"] ([pqbench run fig5L]) *)
  id : string;  (** BENCH.json id, e.g. ["fig5_left"] *)
  doc : string;  (** one line for [pqbench list] *)
  title : string;  (** BENCH.json title *)
  xlabel : string;
      (** BENCH.json xlabel; heads the x column of a plotted table *)
  run : scale -> Pqtrace.Bench_out.series list;
      (** run the simulations, print the text table, return the series *)
}

val catalogue : experiment list
(** every Figure 5-9 experiment, the ablations and the extensions, in
    BENCH.json order; the one list [pqbench run]/[list], {!run_all} and
    {!collect} read *)

val sensitivity : scale -> string list list
(** the headline comparison re-run under perturbed machine cost models
    (slower network, dearer misses, longer atomic occupancy, uniform
    memory): checks the reproduction's shape is not an artifact of one
    set of constants *)

val run_all : scale -> unit
(** run the catalogue in order, then {!sensitivity} *)

val collect : scale -> Pqtrace.Bench_out.figure list
(** run every catalogue entry, printing each table as usual, and return
    the results as BENCH.json figures in catalogue order *)

val checked : string -> Scenario.outcome -> Scenario.outcome
(** [checked what o] is [o] when the run completed and its check held:
    the one gate every scenario figure's points (burst, hold, SSSP)
    pass through.  It re-raises [o.aborted]'s exception, and raises
    [Failure "<what> figure: <message>"] when [o.check] failed. *)
