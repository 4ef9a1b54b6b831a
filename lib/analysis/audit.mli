(** The analyzer audit: a probed slice of the chaos matrix, one probe
    per run, every analyzer fed from it.

    {!config} is a {!Pqchaos.Driver.config}: every
    {!Pqcore.Registry.names} queue plus the [Pqadapt] meta-queue
    (["Adaptive"]) runs the coin-flip scenario without faults at P=16,
    N=16, 40 ops per processor, under the default, random and PCT
    schedules for seeds 42, 1 and 7.  {!Pqchaos.Driver.observe} runs
    each cell once with the probe of {!probe}: its event sink feeds the
    {!Races} detector and its note channel feeds {!Lockdep.feed}.  Each
    cell's verdict is {!Pqchaos.Driver.judge}'s, from the streaming
    {!Pqcheck.Monitor} that [Scenario.run_sim] runs itself.

    A queue passes ({!findings} empty) when, over all its cells, there
    are no data races, no lock-order cycles or discipline findings, and
    {!Pqchaos.Driver.gate} passes its cells: no aborted run, no failed
    check, no rank error over {!Pqcore.Multi_queue.rank_bound_for} (0
    for strict queues and [Adaptive]).  Everything is deterministic per
    cell, so reports are byte-identical for any [jobs]. *)

val config : Pqchaos.Driver.config
(** the audit's matrix; tests run slices of it *)

type observed = {
  events : int;  (** probe events the race detector consumed *)
  races : Races.race list;
  locks : Lockdep.analysis;
  delay : int;  (** the monitor's worst delay *)
}

val probe :
  unit ->
  Pqsim.Probe.t
  * (Pqchaos.Driver.cell -> Pqbenchlib.Scenario.outcome -> observed)
(** a fresh composed {!Races} and {!Lockdep} probe, and the fold of
    every analyzer once the cell has run under it *)

type report = {
  queue : string;
  cells : Pqchaos.Driver.cell list;  (** the queue's cells, in run order *)
  events : int;
  races : Races.race list;
      (** merged over cells by (label, first direction, second
          direction), occurrence counts summed *)
  locks : Lockdep.analysis;  (** {!Lockdep.merge} over cells *)
  bound : int;  (** the least of the cells' bounds *)
  worst_rank : int;
  worst_cell : string;
      (** ["<schedule>/s<seed>"] where [worst_rank] was first reached *)
  worst_delay : int;
}

val merge :
  string -> (Pqchaos.Driver.cell * observed option) list -> report
(** fold one queue's cells, in list order; [None] for a cell not run *)

val findings : report -> string list
(** the exit rule: one line per race, lock-order cycle and discipline
    finding, then {!Pqchaos.Driver.gate} over the cells; empty iff the
    queue passes *)

val run : jobs:int -> Pqchaos.Driver.config -> report list
(** {!Pqchaos.Driver.observe} a matrix across [jobs] domains under
    {!probe}, one report per queue in the config's order *)

val pp : Format.formatter -> report list -> unit
(** per-queue evidence blocks, then the summary table *)

val to_json : Pqchaos.Driver.config -> report list -> Pqtrace.Json.t
(** the reports of a run of a config as BENCH.json's [audit] section:
    the matrix shape, then one row per queue with its pass flag,
    {!findings} and the counts behind them ([aborted]: blocked cells,
    [failed_checks]: cells with a safety violation) *)
