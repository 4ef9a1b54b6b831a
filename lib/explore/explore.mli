(** Top-level schedule exploration: run a budget of adversarial
    schedules against one queue, check every resulting history against
    the paper's consistency claims, and report the strongest level the
    observations support — with a shrunk witness schedule for any
    violation found. *)

(** how schedules are generated *)
type policy_kind =
  | Named of Policy.name
      (** a {!Policy.named} schedule, fresh seed per run: [Random] is
          seeded preemption fuzzing, [Pct] PCT-style priority schedules *)
  | Dfs of { horizon : int; branching : int; quantum : int }
      (** bounded exhaustive enumeration: all [branching]^[horizon]
          delay vectors over the first [horizon] decision points, in
          lexicographic order, delays in multiples of [quantum].  Meant
          for tiny configs (2-3 processors, 4-8 ops). *)

val policy_kind_of_string : string -> (policy_kind, string) result
(** ["random"], ["pct"] or ["dfs"] (over the first 6 decision points,
    branching 2, quantum 120). *)

val policy_kind_name : policy_kind -> string

(** a violation witness, minimized before reporting *)
type witness = {
  kind : [ `Lin | `Qc ];  (** which condition the schedule violates *)
  original : Schedule.t;  (** as found by the explorer *)
  schedule : Schedule.t;  (** after greedy shrinking *)
  history : Pqcheck.History.t;  (** produced by the shrunk schedule *)
  shrink_runs : int;  (** simulator runs the shrinker spent *)
}

type report = {
  queue : string;
  policy : string;
  budget : int;
  runs : int;  (** schedules executed (= budget unless DFS exhausted) *)
  lin_violations : int;  (** runs whose history refuted linearizability *)
  qc_violations : int;  (** runs refuting quiescent consistency *)
  gave_up : int;
      (** runs where the bounded linearizability search was inconclusive *)
  level : Verdict.level;  (** strongest level consistent with all runs *)
  lin_witness : witness option;  (** first linearizability violation *)
  qc_witness : witness option;  (** first quiescent-consistency violation *)
}

val run :
  ?cfg:Driver.config ->
  ?seed:int ->
  ?shrink_budget:int ->
  queue:string ->
  policy:policy_kind ->
  budget:int ->
  unit ->
  report
(** [run ~queue ~policy ~budget ()] executes up to [budget] schedules
    ([cfg] defaults to {!Driver.config}[ queue]; [seed], default 1,
    varies the workload and policy streams; [shrink_budget], default
    400, bounds each witness minimization).  Every schedule that
    exposes a violation is kept; the first of each kind is shrunk into
    a witness.  DFS stops early once the bounded space is exhausted. *)

val pp_report : Format.formatter -> report -> unit
(** human-readable report: counters, verdict, and for each witness the
    shrunk schedule plus the violating history it reproduces. *)

val report :
  cfg:(string -> Driver.config) ->
  seed:int ->
  policy:policy_kind ->
  budget:int ->
  string list ->
  string * string list
(** what [pqbench explore] prints: {!run} each of [queues] in turn under
    its [cfg] from [seed], and return the {!pp_report} text of all of
    them with the queues whose verdict is {!Verdict.Inconsistent} *)
