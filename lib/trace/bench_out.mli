(** Machine-readable benchmark output (BENCH.json).

    The figure runner renders human tables; this module captures the
    same data points in a schema-stable JSON document so CI can archive
    them and downstream tooling can diff runs.  The contract is described
    by [schema/bench.schema.json] and enforced by {!validate} (the
    toolchain has no JSON-Schema engine, so the checks are hand-rolled
    and kept in sync with the schema file).

    Serialization is deterministic: the same figures and seed produce the
    same bytes, and every section is independent of [--jobs]. *)

val schema_version : int

type series = { name : string; points : (int * float) list }

type figure = {
  id : string;  (** stable identifier, e.g. "fig6" *)
  title : string;
  xlabel : string;
  series : series list;
}

val chaos_verdicts : string list
(** the verdict taxonomy as stable strings: healthy, degraded, blocked,
    safety-violation *)

type chaos_cell = {
  cc_queue : string;
  cc_scenario : string;
  cc_plan : string;  (** "none" or a fault-plan name *)
  cc_sched : string;
  cc_seed : int;
  cc_verdict : string;  (** one of {!chaos_verdicts} *)
  cc_cycles : int;
  cc_ops : int;
  cc_worst_rank : int;
  cc_bound : int;  (** rank bound after dangling widening; 0 for strict *)
  cc_dangling : int;
}
(** one (queue, scenario, plan, sched, seed) soak of the chaos matrix *)

type chaos = {
  chaos_nprocs : int;
  chaos_npriorities : int;
  chaos_ops_per_proc : int;
  chaos_safe : bool;  (** no cell carries a safety-violation verdict *)
  cells : chaos_cell list;
}
(** the chaos-matrix section (pqbench chaos) *)

type adapt_phase = {
  ad_phase : string;  (** phase name, e.g. "skewed-low" *)
  ad_adaptive : float;  (** meta-queue mean latency over the phase *)
  ad_best_queue : string;
  ad_best : float;  (** best static backend's mean *)
  ad_worst_queue : string;
  ad_worst : float;
}

type adapt_switch = {
  as_cycle : int;
  as_from : string;
  as_to : string;
  as_regime : string;  (** "light" | "heavy" (direction switched {e to}) *)
  as_moved : int;  (** elements migrated *)
}

type adapt = {
  adapt_nprocs : int;
  adapt_npriorities : int;
  adapt_ops_per_phase : int;
  adapt_factor : float;  (** allowed ratio to the best static backend *)
  adapt_light : string;  (** light-regime backend *)
  adapt_heavy : string;
  adapt_windows : int;  (** classifier decision windows *)
  adapt_pass : bool;
  adapt_phases : adapt_phase list;
  adapt_switches : adapt_switch list;  (** chronological *)
}
(** the adaptive meta-queue gate section (pqbench adapt /
    [Pqadapt.Driver]) *)

type audit_row = {
  queue : string;
  findings : string list;  (** empty iff the queue passes *)
  counts : (string * int) list;
      (** named non-negative tallies, the evidence behind the verdict
          (events, races, locks, cycles, worst rank, bound, ...) *)
}

type audit = {
  audit_nprocs : int;
  audit_npriorities : int;
  audit_ops_per_proc : int;
  audit_schedules : string list;
  audit_seeds : int list;
  audit_rows : audit_row list;
}
(** the analyzer audit section ([pqbench audit] / [Pqanalysis.Audit]):
    one row per queue, its pass flag derived from its findings *)

type t = {
  paper : string;
  seed : int;
  scale : string;  (** "quick" | "full" | "tiny" — informational *)
  figures : figure list;
  metrics : (string * Json.t) list;  (** free-form extras *)
  audit : audit option;
  chaos : chaos option;
  adapt : adapt option;
}

val make :
  ?paper:string ->
  ?metrics:(string * Json.t) list ->
  ?audit:audit ->
  ?chaos:chaos ->
  ?adapt:adapt ->
  seed:int ->
  scale:string ->
  figure list ->
  t

val to_json : t -> Json.t
val to_string : t -> string

val validate : Json.t -> (unit, string) result
(** structural validation of a parsed document: required fields, types,
    non-empty figures, each with non-empty series of (x:int, y:number)
    points; an optional [audit] section (non-empty schedules, seeds
    and rows, every count a non-negative integer, each row's pass flag
    equal to its findings being empty and the section's pass flag to
    every row passing); an optional [chaos] section (non-empty
    cells, verdicts drawn from {!chaos_verdicts}, non-violating cells
    inside their recorded bound, safe flag consistent with the cells);
    an optional [adapt] section (non-empty phases each with
    best <= worst, switch regimes drawn from light/heavy, and — when
    the pass flag is set — the gate verdict re-derivable from the
    recorded per-phase means and switch directions; a false flag with
    passing numbers is accepted, since the gate also judges aborts and
    conservation failures the section doesn't record); rejects any
    top-level key the schema does not define, naming it, and other
    [schema_version]s *)

val validate_string : string -> (unit, string) result
(** parse + validate *)
