(** The paper's synthetic benchmark (Section 4).

    Each simulated processor alternates between a small constant amount of
    local work and a queue access; the access is an unbiased coin flip
    between [insert] of a random-priority element and [delete_min].  The
    queue starts empty.  The metric is {e latency}: average simulated
    cycles per access.

    Every run also verifies multiset conservation (elements inserted =
    elements deleted + elements remaining) and the queue's structural
    invariants at quiescence, so the benchmarks double as stress tests. *)

type spec = {
  queue : string;  (** a {!Pqcore.Registry} name *)
  nprocs : int;
  npriorities : int;
  ops_per_proc : int;
  local_work : int;
  insert_bias : int;  (** percentage of accesses that are inserts, 0-100 *)
  seed : int;
  adaptive : bool;  (** funnel adaption (ablation hook) *)
  cutoff : int;  (** FunnelTree funnel depth (ablation hook) *)
  machine : Pqsim.Machine.t option;  (** cost-model override (sensitivity) *)
  prefill : int;
      (** elements inserted before the timed phase begins (behind a
          barrier), to measure deep-queue behaviour; default 0 — the
          paper's queues start empty *)
}

val spec : queue:string -> nprocs:int -> npriorities:int -> spec
(** paper defaults: 50/50 mix, small constant local work.  Funnel
    elimination is always on in the queues; Figure 5's elimination
    ablation runs on the bare counters ({!Counterbench}). *)

type result = {
  latency_all : float;  (** cycles per access, the paper's headline metric *)
  latency_insert : float;
  latency_delete : float;
  inserts : int;
  deletes : int;  (** delete_min calls that returned an element *)
  empty_deletes : int;  (** delete_min calls that found nothing *)
  cycles : int;  (** makespan of the whole run *)
  queue_wait : int;  (** total cycles spent queued at busy lines *)
  mem : Pqsim.Mem.t;
      (** the run's final memory — carries the symbolic labels, the
          per-line queueing delay ({!Pqsim.Mem.hot_lines}) and (under a
          probe) per-line traffic for the contention profiler *)
}

exception Verification_failure of string

val params_of : spec -> Pqcore.Pq_intf.params
(** the construction parameters {!run} builds [spec]'s queue with; its
    [capacity] is one more than the elements the run can insert, which
    bounds a heap and each bin alike *)

(** The conservation ledger {!run} keeps: which (priority, payload)
    elements each processor inserted and deleted, in flat per-processor
    int arrays. *)
module Ledger : sig
  type t

  val create : nprocs:int -> stride:int -> t
  (** room for [stride] inserts and deletes per processor; the delete
      log grows past that *)

  val take : nprocs:int -> stride:int -> t
  (** [take ~nprocs ~stride] is this domain's spare ledger, emptied and
      sized to [nprocs] and [stride], when it has room for them, and
      {!create}'s otherwise.  Either way the domain has no spare
      afterwards. *)

  val give_back : t -> unit
  (** [give_back t] makes [t] its domain's spare if its last {!balances}
      answered [true], which leaves its insert log all zero; any other
      ledger is dropped.  {!run} hands its ledger back only after the
      run verified. *)

  val payload : pid:int -> j:int -> int
  (** the payload of processor [pid]'s [j]-th insert ([1 <= j <= stride]):
      [pid * 100_000 + j] *)

  val insert : t -> pid:int -> j:int -> pri:int -> unit
  (** records that processor [pid]'s [j]-th insert, at priority [pri],
      succeeded.
      @raise Invalid_argument past the ledger's [nprocs] or [stride] *)

  val delete : t -> pid:int -> pri:int -> payload:int -> unit
  (** records an element processor [pid]'s [delete_min] returned *)

  val inserts : t -> int
  val deletes : t -> int

  val balances : t -> remaining:(int * int) list -> bool
  (** [balances t ~remaining] is true iff the inserted elements are, as a
      multiset, exactly the deleted ones plus [remaining]: none lost,
      duplicated or invented.  O(n), without sorting; it consumes the
      ledger, so ask once. *)
end

val run :
  ?ops_per_proc:int ->
  ?probe:Pqsim.Probe.t ->
  ?policy:Pqsim.Sched.t ->
  ?watchdog:int ->
  spec ->
  result
(** [run spec] executes one benchmark; raises {!Verification_failure} if
    conservation or a structural invariant fails afterwards.  [probe]
    attaches an observability probe (see {!Pqsim.Sim.run}); it is
    passive, so probed results equal unprobed ones.  [policy] overrides
    the scheduling policy (see {!Pqsim.Sched}), e.g. an adversarial
    schedule from {!Pqexplore.Policy} — the structural verification
    still runs, and the race sanitizer uses this to audit perturbed
    interleavings. *)
