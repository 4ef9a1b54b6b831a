(** The scenario algebra: composable, phase-structured workloads beyond
    the paper's single coin-flip benchmark.

    A scenario is either {e phased} — each processor runs a per-role
    list of phases (coin-flip mixes, Zipf-skewed produce bursts, drain
    storms, the DES hold model) over any registry queue — or the
    {e SSSP} scenario, a concurrent Dijkstra over a seeded generated
    graph whose safety condition is equality with the sequential
    reference distances.  Everything is deterministic per seed: phase
    interpretation draws only from the per-processor engine streams,
    and graph/skew tables are seeded precomputations.

    Phased scenarios run both on the simulator ({!run_sim}) and on host
    queues ({!run_phases} with host-provided {!ctx}/{!ops}); SSSP needs
    simulated shared memory and is {!sim_only}.

    On the simulator every queue access streams an all-integer
    {!Pqsim.Api.note} record ({!Pqcheck.Monitor.Tag}) that the run's
    own streaming {!Pqcheck.Monitor} folds online — no trace
    buffering. *)

(** One phase of a processor's life. *)
type phase =
  | Mixed of { ops : int; bias : int }
      (** coin-flip accesses, [bias]% inserts at uniform priorities *)
  | Produce of { ops : int; skew : float }
      (** pure inserts, priorities Zipf-distributed with exponent [skew] *)
  | Drain of { ops : int }  (** pure delete_min storm *)
  | Hold of { ops : int; lag : int }
      (** DES hold model: delete_min, reinsert at popped priority plus a
          random lag in [1, lag] (mod the priority range); an empty pop
          repopulates at a uniform priority *)
  | Idle of { cycles : int }  (** local work only *)
  | Trickle of { ops : int; bias : int; skew : float; gap : int }
      (** low-rate traffic: the [Mixed] coin flip, but each access is
          preceded by [gap] (± 25%, jittered so per-processor accesses
          decorrelate instead of arriving in phase-locked volleys) extra
          local-work cycles and insert priorities are Zipf-distributed
          with exponent [skew] ([skew <= 0.] means uniform) — the
          "skewed-low" regime of the adaptive workload *)

type role = nprocs:int -> pid:int -> ops_per_proc:int -> phase list
(** a scenario's phase list for one processor *)

type t

val name : t -> string
val descr : t -> string

val sim_only : t -> bool
(** true for SSSP, which needs simulated shared memory *)

val coinflip : t
(** the paper's benchmark as a scenario (baseline cell) *)

val hold : t
(** the DES hold model, prefilled *)

val burst : t
(** Zipf producers vs delete-heavy consumers, ending in a drain storm *)

val sssp : ?nodes:int -> unit -> t
(** concurrent Dijkstra over a {!Graph} of [nodes] (default 24) nodes,
    average degree {!Graph.degree} (3) and weights 1 to
    {!Graph.max_weight} (8) *)

val phased : name:string -> descr:string -> role -> t
(** a custom phased scenario with no prefill, outside the {!all}
    catalogue (and hence outside the chaos matrix): how subsystems such
    as [Pqadapt] compose bespoke workloads — e.g. the phase-shifted
    uniform-heavy → skewed-low run — while reusing the interpreter,
    sizing and runner *)

val all : t list
(** [coinflip; hold; burst; sssp ()] *)

val names : string list
(** sorted names of {!all} *)

val of_string : string -> t
(** @raise Invalid_argument naming the valid set, mirroring
    {!Pqcore.Registry} *)

(** {2 Sizing} *)

val npriorities_for : t -> default:int -> int
(** the effective priority range: [default] for phased scenarios; for
    SSSP, the bound on any insertable distance *)

val capacity_for : t -> nprocs:int -> ops_per_proc:int -> int
val ops_bound_for : t -> nprocs:int -> ops_per_proc:int -> int

val total_ops : t -> nprocs:int -> ops_per_proc:int -> int
(** approximate total queue accesses, for watchdog/baseline scaling *)

val params_of :
  t ->
  nprocs:int ->
  npriorities:int ->
  ops_per_proc:int ->
  seed:int ->
  Pqcore.Pq_intf.params

(** {2 The generic interpreter} *)

type ops = {
  insert : pri:int -> payload:int -> bool;
  delete_min : unit -> (int * int) option;
}
(** the queue face a phase interpretation drives; on the simulator this
    wraps a registry queue, on the host a hostpq queue or a model *)

type ctx = {
  pid : int;
  nprocs : int;
  npriorities : int;
  rand : int -> int;  (** uniform in [0, n-1], deterministic per seed *)
  work : int -> unit;  (** local computation (no-op on host models) *)
}

val run_phases : ctx -> ops -> seq:int ref -> phase list -> unit
(** interpret a phase list, with 20 cycles of [ctx.work] before each
    access; [seq] numbers this processor's inserts so payloads
    ([pid + nprocs * seq]) are unique across the run *)

val phases_of : t -> nprocs:int -> pid:int -> ops_per_proc:int -> phase list
(** @raise Invalid_argument on a non-phased scenario *)

val prefill_per_proc : t -> int

(** {2 Simulator runner} *)

type outcome = {
  cycles : int;  (** 0 when [aborted] *)
  leftover : (int * int) list;  (** drained after the run (even aborted) *)
  aborted : exn option;
      (** the engine exception (deadlock, watchdog, spin/cycle limit)
          that ended the run early, if any *)
  check : (unit, string) result;
      (** structural invariants (fault-free runs), then [monitor]'s
          conservation, then (SSSP, fault-free) reference-distance
          equality; [Ok ()] when [aborted] — the caller judges aborts *)
  monitor : Pqcheck.Monitor.report;
      (** the run's streaming monitor, finalized against [leftover]
          (also when [aborted]): rank error, conservation, dangling
          operations and the live high-water mark *)
  stats : Pqsim.Stats.t;
      (** the run's recorded samples — per-phase latency under
          [phase_timing] (keys {!phase_key}); empty when [aborted] *)
  mem : Pqsim.Mem.t option;
      (** the run's final memory — carries the symbolic labels (e.g.
          for attributing lock addresses in probe notes); [None] only
          when the run aborted before construction completed *)
}

val phase_key : int -> string
(** the {!outcome.stats} key of phase [i]'s access latencies
    (["phase<i>"]) when [run_sim ~phase_timing:true] *)

val run_sim :
  ?probe:Pqsim.Probe.t ->
  ?policy:Pqsim.Sched.t ->
  ?watchdog:int ->
  ?degrade:(Pqsim.Mem.t -> unit) ->
  ?create:(Pqsim.Mem.t -> Pqcore.Pq_intf.params -> Pqcore.Pq_intf.t) ->
  ?phase_timing:bool ->
  queue:string ->
  nprocs:int ->
  npriorities:int ->
  ops_per_proc:int ->
  seed:int ->
  t ->
  outcome
(** [run_sim ~queue ... t] runs scenario [t] on a registry queue and
    judges it.  Every run folds its op notes into a
    {!Pqcheck.Monitor}, so host memory stays bounded by the live
    elements however long the run; the monitor is finalized with
    {!Pqcore.Multi_queue.slack_per_dangling}[ queue] elements of slack
    per operation a crash left dangling, and its conservation result
    is part of [check].  A caller's [probe] sees every event, metric
    and note as usual: its notes are composed with the monitor's.
    Engine abort exceptions are caught and returned in [aborted] with
    the queue drained regardless, so the survivors of a crashed or
    hung run are still checked for conservation.

    [create] (default: {!Pqcore.Registry.create}[ queue]) overrides
    queue construction — how non-registry queues such as the
    [Pqadapt] meta-queue run the whole scenario algebra; [queue]
    remains the reporting label.  [phase_timing] (default false)
    records each access's latency under its phase's {!phase_key};
    recording is free in simulated time, so timing changes no run. *)
