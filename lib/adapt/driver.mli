(** The [pqbench adapt] gate: adaptive meta-queue vs its static
    backends on a phase-shifted workload.

    The workload is three phases per processor — uniform-heavy
    ({!Pqbenchlib.Scenario.Mixed}), skewed-low ({!Pqbenchlib.Scenario.Trickle}
    with a large inter-access gap and Zipf priorities), uniform-heavy
    again — so a correct classifier must switch heavy→light and back.
    The gate asserts (a) at least one switch in each direction and (b)
    per-phase mean latency within [factor] of the best static backend
    and strictly better than the worst, with every run's conservation
    check green.  All runs are deterministic per seed and the fan-out
    uses {!Pqbenchlib.Pool}, so output is byte-identical for any
    [--jobs]. *)

type config = {
  nprocs : int;
  npriorities : int;
  phase_ops : int;  (** per-processor ops in each of the three phases *)
  seed : int;
  factor : float;  (** allowed ratio to the best static backend *)
  meta : Meta.config;
}

val classifier_for : nprocs:int -> Classifier.config
(** rate thresholds scaled to the processor count (the classifier sees
    the global completion rate); contention thresholds from
    {!Classifier.default} *)

val default : config
(** 16 procs, 256 priorities, 150 ops/proc/phase, seed 42, factor 1.5,
    {!Meta.default} backends with {!classifier_for} thresholds starting
    Heavy.  Another [nprocs] needs its own classifier:
    [Pqanalysis.Gate.adapt]'s [procs] sets both. *)

val quick : config
(** CI scale: 100 ops/proc/phase *)

val nphases : int
(** 3 *)

val phase_names : string array
(** length {!nphases}: ["uniform-heavy"; "skewed-low"; "uniform-heavy'"] *)

val workload : Pqbenchlib.Scenario.t
(** the phase-shifted scenario, via {!Pqbenchlib.Scenario.phased} —
    outside the chaos catalogue: both uniform-heavy phases insert 40% of
    the time, and the skewed-low phase adds 6000 cycles (± 25%) of local
    work before each access, inserts 40% of the time at Zipf priorities
    of exponent 1.2 *)

type phase_stat = { ph_mean : float; ph_count : int }

type run = {
  r_queue : string;
  r_cycles : int;
  r_phases : phase_stat array;  (** length {!nphases} *)
  r_check : (unit, string) result;
  r_aborted : string option;
}

type report = {
  cfg : config;
  adaptive : run;
  statics : run list;  (** the backends run statically, [[light; heavy]] *)
  switches : Meta.switch list;
  to_heavy : int;  (** migrations into the heavy backend *)
  to_light : int;
  windows : int;  (** classifier decision windows *)
  errors : string list;  (** gate verdicts; [] is a pass *)
}

val run : ?jobs:int -> config -> report
(** three simulator runs (adaptive + both statics), fanned out over
    [jobs] domains, judged by {!judge}.
    @raise Invalid_argument on a bad [config.meta] *)

val judge : report -> string list
(** re-derive the gate verdicts from a report (ignores its [errors]) *)

val to_json : report -> Pqtrace.Json.t
(** the report as BENCH.json's [adapt] section (judged pass flag,
    per-phase best/worst statics, chronological switch timeline) *)

val pp_report : Format.formatter -> report -> unit
val report_to_string : report -> string
