(** The chaos driver: scenarios x fault plans x schedule policies, each
    cell one monitored soak, classified into the graceful-degradation
    taxonomy.

    Each (queue, scenario, seed) group runs its fault-free
    default-schedule baseline first; probes are passive, so the
    baseline's cycle count is the degradation yardstick and watchdog
    scale for the group's other cells.  {!gate} fails every safety
    violation, and blockage only where survival is required (no fault,
    or a finite one) — blocking algorithms dying under a crash is
    recorded, expected. *)

(** the graceful-degradation taxonomy, ordered by {!severity} *)
type verdict =
  | Healthy  (** completed, all invariants hold, within the time budget *)
  | Degraded of { ratio : float }
      (** completed safely but beyond 1.25x the baseline cycle count *)
  | Blocked of string
      (** the run aborted (watchdog, deadlock, limits); acceptable only
          under a crash fault *)
  | Safety_violation of string
      (** conservation broken, phantom elements, rank error above the
          (dangling-widened) bound, or a failed scenario check — never
          acceptable *)

val severity : verdict -> int
val verdict_label : verdict -> string
val verdict_detail : verdict -> string

type cell = {
  queue : string;
  scenario : string;
  plan : string;  (** "none" or a {!Plan.name} *)
  sched : string;  (** a {!Pqexplore.Policy.string_of_name} *)
  seed : int;
  verdict : verdict;
  cycles : int;
  ops : int;
  worst_rank : int;
  bound : int;
      (** rank bound widened by one per [dangling] op (0 for strict) *)
  live_high_water : int;
  dangling : int;
}

type config = {
  queues : string list;
  scenarios : string list;
  plans : Plan.t option list;  (** [None] is the fault-free arm *)
  scheds : Pqexplore.Policy.name list;
  seeds : int list;
  nprocs : int;
  npriorities : int;
  ops_per_proc : int;
  soak : int;  (** multiplies [ops_per_proc] and the SSSP graph size *)
  sssp_nodes : int;
  host : bool;  (** [pqbench chaos --host]: also run {!Host.run} *)
  verbose : bool;  (** [--verbose]: {!pp} every cell; {!run} ignores both *)
}

val default_queues : string list
(** all registry queues: the paper's seven plus the relaxed family *)

val plan_names : string list
(** ["none"] plus every {!Plan.name} *)

val plan_of_string : string -> (Plan.t option, string) result
(** accepts ["none"]; otherwise defers to {!Plan.of_string} *)

val default : config
val quick : config

val scenario_of : config -> string -> Pqbenchlib.Scenario.t
(** resolve a scenario name, applying the soak-scaled SSSP sizing.
    @raise Invalid_argument on an unknown name *)

val watchdog_for : plan:Plan.t option -> baseline:int -> int
(** idle-progress budget of a faulted cell: [4 * baseline + 100_000]
    plus the fault's own dead time (the pause length, or [factor *
    baseline] for a slow module) *)

val judge :
  config ->
  queue:string ->
  baseline:int option ->
  Pqbenchlib.Scenario.outcome ->
  verdict
(** the one verdict of a gate cell's run: aborted is {!Blocked}; a
    failed check, or a rank error above the queue's
    {!Pqcore.Multi_queue.rank_bound_for} (0 for strict queues) widened
    by one per dangling op, is a {!Safety_violation}; a safe run beyond
    5/4 of [baseline]'s cycles (default: its own) is {!Degraded} *)

val run_cell :
  ?probe:Pqsim.Probe.t ->
  config ->
  queue:string ->
  scenario:string ->
  plan:Plan.t option ->
  sched:Pqexplore.Policy.name ->
  seed:int ->
  baseline:int option ->
  cell * Pqbenchlib.Scenario.outcome
(** run one cell and {!judge} it: the fault plan armed and composed
    with the named schedule, the {!watchdog_for} budget when
    [baseline] (the group's fault-free default-schedule cycles) is
    given, then {!Pqbenchlib.Scenario.run_sim}.  ["Adaptive"] names
    [Pqadapt.Meta.default].  [probe] is passive: it changes no cycle,
    verdict or monitor report.
    @raise Invalid_argument on an unknown scenario *)

exception Invalid_config of { field : string; reason : string }
(** [field] names the rejected {!config} field *)

val run : ?jobs:int -> config -> cell list
(** the full cross product, domain-parallel over (queue, scenario,
    seed) groups, each run in plan-major, schedule-minor order; output
    order and content are independent of [jobs].
    @raise Invalid_config before running any cell when [queues],
    [scenarios] or [seeds] is empty, or [nprocs], [npriorities],
    [ops_per_proc] or [soak] is below 1 *)

val observe :
  ?jobs:int ->
  config ->
  (unit -> Pqsim.Probe.t * (cell -> Pqbenchlib.Scenario.outcome -> 'a)) ->
  (cell * 'a option) list
(** {!run}, each cell under the passive probe of a fresh [make ()],
    whose finisher then sees the cell and its outcome; [None] for a
    cell left unrun behind an unhealthy baseline *)

val gate : cell list -> string list
(** gate errors (empty means pass): every safety violation, plus every
    blockage under no fault or a finite fault *)

val worst : cell list -> verdict

val summary_matrix : cell list -> (string * (string * string) list) list
(** scenario -> (plan -> worst verdict label) across queues, seeds and
    schedules *)

val to_json : config -> cell list -> Pqtrace.Json.t
(** the cells of a run of [config] as BENCH.json's [chaos] section *)

val pp : verbose:bool -> Format.formatter -> cell list -> unit
(** the simulated part of [pqbench chaos]'s report: one line per cell
    under [verbose], then the {!summary_matrix} *)
