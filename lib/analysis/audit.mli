(** The analyzer audit: one fixed cell matrix, one probe per run, every
    analyzer fed from it.

    Every {!Pqcore.Registry.names} queue plus the [Pqadapt] meta-queue
    (["Adaptive"]) runs {!Pqbenchlib.Scenario.coinflip} at P=16, N=16,
    40 ops per processor, under each of {!schedules} for each of
    {!seeds}.  Each cell runs once through
    {!Pqbenchlib.Scenario.run_sim} with one probe: its event sink feeds
    the {!Races} detector and its note channel feeds {!Lockdep.feed}.
    Rank error and conservation come from the streaming
    {!Pqcheck.Monitor} that [run_sim] runs itself.

    A queue passes ({!findings} empty) when, over all its cells, there
    are no data races, no lock-order cycles or discipline findings, no
    aborted run, the scenario's check (which includes the monitor's
    conservation) holds, and the worst rank error is within
    {!Pqcore.Multi_queue.rank_bound_for} (0 for strict queues and
    [Adaptive]).  Everything is deterministic per cell, so reports are
    byte-identical for any [jobs]. *)

val queues : string list
(** {!Pqcore.Registry.names} followed by ["Adaptive"] *)

val schedules : Pqexplore.Policy.name list
(** [[Default; Random; Pct]]: every named schedule, in the cell order
    that fixes which witness {!Lockdep.merge} keeps *)

val seeds : int list
(** [42; 1; 7] *)

val nprocs : int
val npriorities : int
val ops_per_proc : int

type cell = { queue : string; schedule : Pqexplore.Policy.name; seed : int }

val cells : cell list
(** the matrix: per queue (in {!queues} order), per seed, per schedule *)

val label : cell -> string
(** ["<schedule>/s<seed>"] *)

val run_sim : ?probe:Pqsim.Probe.t -> cell -> Pqbenchlib.Scenario.outcome
(** run one cell's scenario under [probe] — the same run {!run_cell}
    observes, for analyzers' solo runs *)

type observed = {
  cell : cell;
  cycles : int;  (** simulated cycles; 0 when aborted *)
  events : int;  (** probe events the race detector consumed *)
  races : Races.race list;
  locks : Lockdep.analysis;
  monitor : Pqcheck.Monitor.report;  (** {!Pqbenchlib.Scenario.outcome.monitor} *)
  aborted : string option;
  check : (unit, string) result;  (** {!Pqbenchlib.Scenario.outcome.check} *)
}

val run_cell : cell -> observed
(** run a cell once with the composed {!Races} and {!Lockdep} probe and
    fold every analyzer *)

type report = {
  queue : string;
  cells : int;
  events : int;
  races : Races.race list;
      (** merged over cells by (label, first direction, second
          direction), occurrence counts summed *)
  locks : Lockdep.analysis;  (** {!Lockdep.merge} over cells *)
  aborted : (string * string) list;  (** cell label, exception *)
  failed_checks : (string * string) list;
      (** cell label, scenario check message *)
  bound : int;
  worst_rank : int;
  worst_cell : string;  (** where [worst_rank] was first reached *)
  worst_delay : int;
}

val merge : string -> observed list -> report
(** fold one queue's cell results, in list order *)

val findings : report -> string list
(** the exit rule: one line per finding; empty iff the queue passes *)

val run : jobs:int -> report list
(** run {!cells} across [jobs] domains, one report per queue in
    {!queues} order *)

val pp : Format.formatter -> report list -> unit
(** per-queue evidence blocks, then the summary table *)

val to_json : report list -> Pqtrace.Json.t
(** the reports as BENCH.json's [audit] section: the matrix shape, then
    one row per queue with its pass flag, {!findings} and the counts
    behind them *)
