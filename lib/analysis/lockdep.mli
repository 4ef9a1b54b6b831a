(** Lock-order inference, potential-deadlock detection and
    lock-discipline verification over the probe note stream.

    The [Pqsync] locks emit one {!Pqsim.Probe.Lock_tag} note per
    ownership transition (see that module for the protocol: [acquire]
    after ownership, [release] at the start of release, [try_fail]
    never ownership; operand [a] is the lock's declare_sync'd word,
    symbolic via {!Pqsim.Mem.name_of}).  This analyzer folds the
    stream into:

    - {b per-processor locksets}, giving an online lock-discipline
      check — release-without-hold, double release (the bug class a
      PR 5 review caught in the HuntEtAl sift-down), locks still held
      at quiescence;
    - a {b lock-order graph}: acquiring B while holding A adds the
      edge A→B with a witness (processor, times, schedule).  Failed
      try-acquires add {e no} edge — a failed attempt never implies
      ownership, which is exactly why ordered try-lock protocols
      (MultiQueue spraying) are deadlock-free by construction.

    A cycle in the graph is a {e potential} deadlock: each edge is
    witnessed by a real acquisition history, so some interleaving of
    those histories blocks forever — reported even when every explored
    schedule completed.  Acyclicity of the witnessed order is the
    discipline {!Audit} enforces over every audited queue. *)

(** {1 Event capture} *)

type obs
(** a passive buffering consumer of lock notes; unknown note tags
    (e.g. the workload op protocol sharing the channel) are ignored *)

val observer : unit -> obs

val feed :
  obs -> proc:int -> time:int -> tag:int -> a:int -> b:int -> unit
(** feed one raw note — the entry point for host-side traces
    ([Hostpq.Hlock]) and synthetic test histories *)

val probe : ?metrics:Pqsim.Stats.t -> obs -> Pqsim.Probe.t
(** a notes-only probe for {!Pqsim.Sim.run} /
    {!Pqbenchlib.Scenario.run_sim}; strictly passive *)

val events : obs -> int
(** lock events captured so far *)

(** {1 Analysis} *)

type witness = {
  proc : int;  (** who acquired out of order *)
  held_since : int;  (** when [src] was acquired *)
  time : int;  (** when [dst] was acquired (the edge's birth) *)
  sched : string;  (** which run witnessed it first *)
}

type edge = { src : string; dst : string; count : int; witness : witness }
(** [src] was held while [dst] was acquired, [count] times; the witness
    is the first occurrence in stream order *)

type disc_kind = Release_without_hold | Double_release | Held_at_quiescence

type disc = {
  kind : disc_kind;
  proc : int;
  lock : string;
  time : int;  (** first occurrence ([Held_at_quiescence]: acquire time) *)
  occurrences : int;
}

type analysis = {
  events_seen : int;
  try_fails : int;
  locks : string list;  (** sorted node keys *)
  edges : edge list;  (** sorted by (src, dst) *)
  disc : disc list;  (** sorted *)
}

val empty : analysis

val analyze :
  ?sched:string ->
  ?label:(int -> string option) ->
  ?quiescent:bool ->
  obs ->
  analysis
(** [analyze obs] folds the captured stream.  [sched] (default
    ["default"]) stamps witnesses; [label] maps lock addresses to
    symbolic keys (pass {!Pqsim.Mem.name_of}[ mem]; unlabelled locks
    key as ["addr:<n>"]); [quiescent] (default true) checks for locks
    still held at stream end — pass false for streams that end
    mid-flight (aborted runs).  The result depends only on each
    processor's event subsequence, so it is invariant under
    interleavings that preserve per-processor order. *)

val merge : analysis list -> analysis
(** union the graphs by symbolic key, summing edge counts and
    discipline occurrences; first witness in list order wins *)

val cycles : analysis -> string list list
(** the potential-deadlock report: strongly connected components of
    two or more locks (plus self-loops, unproducible from a single
    well-formed stream), each as a sorted key list, sorted *)

(** {1 Findings} *)

type finding = Cycle of string list | Discipline of disc

val disc_kind_name : disc_kind -> string

val signature : finding -> string
(** the one-line rendering the audit reports: ["cycle: A -> B"] or
    ["double-release p2 HuntEtAl.heap_lock.tail"].  Every cycle and
    discipline finding is an {!Audit} finding; there is no allowlist. *)

(** {1 Reporting} *)

val pp_edge : Format.formatter -> edge -> unit
