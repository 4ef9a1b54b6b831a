(** Streaming online invariant monitors over the probe note channel.

    One monitor attaches to one simulated run via
    [Pqsim.Probe.make ~notes:(Monitor.notes m) ()] and folds every
    queue-op note ({!Tag}) into O(1)-amortised state as it arrives — no
    trace is buffered, so soaks can run orders of magnitude longer than
    the post-hoc {!Lincheck} pipeline while the monitor's memory stays
    bounded by O(npriorities + live elements + nprocs).

    It maintains, online:
    - {e quiescence-aware rank error}, an incremental reformulation of
      the paper's Appendix B rank oracle (equivalent on complete
      histories; see the proof sketch in DESIGN.md §16, and the test
      suite's post-hoc reference model): quiescent points are detected
      by in-flight counting, insert candidates settle at quiescent
      points, and deletes pend as per-priority counts until the next
      quiescent point finalizes their prefix-sum ranks;
    - {e incremental conservation}: a live (pri, payload) multiset
      debited by delete responses, with phantom deletes (elements never
      inserted) flagged immediately and the final multiset compared to
      the drained leftover under a dangling-operation slack;
    - {e SSSP settle monotonicity}: settled-distance inversions as a
      relaxation-quality metric;
    - memory high-water marks, the boundedness evidence the chaos gate
      reports.

    Crash faults leave dangling invocations that permanently suppress
    quiescent points; the monitor then under-measures rank
    (conservatively — strict queues still read 0) and reports the
    dangling count so the driver can widen relaxed bounds. *)

(** Tags of the op-note protocol emitted by
    [Pqbenchlib.Scenario.run_sim]'s instrumented queue wrapper.
    Invocation notes carry the arguments; response notes the results;
    [settle] is SSSP-specific (node, distance at which it was
    settled). *)
module Tag : sig
  val ins_invoke : int  (** a = priority, b = payload *)

  val ins_ok : int  (** a = priority, b = payload *)

  val ins_reject : int  (** capacity rejection; a = priority, b = payload *)

  val del_invoke : int
  val del_some : int  (** a = priority, b = payload *)

  val del_none : int
  val settle : int  (** a = node, b = settled distance *)
end

type t

val create : npriorities:int -> nprocs:int -> t

val notes : t -> Pqsim.Probe.note
(** the receiver to pass to {!Pqsim.Probe.make}; single-run,
    single-domain *)

val note : t -> proc:int -> time:int -> tag:int -> a:int -> b:int -> unit
(** feed one note directly (tests replay recorded histories this way) *)

(** summary of the streaming rank/delay distributions; [rank_hist] and
    [delay_hist] are nonempty power-of-two buckets as (lower bound,
    count): bucket 0 counts exact answers, bucket [2^k] counts values
    in [2^k, 2^(k+1)) *)
type rank_stats = {
  deletes : int;
  empties : int;
  max_rank : int;
  mean_rank : float;
  rank_hist : (int * int) list;
  max_delay : int;
  mean_delay : float;
  delay_hist : (int * int) list;
}

type report = {
  rank : rank_stats;
  conservation : (unit, string) result;
  phantoms : int;  (** deletes of never-invoked elements — always a
                       violation *)
  dangling : int;  (** processors with an op invoked but never responded *)
  dangling_inserts : int;
  dangling_deletes : int;
  unfinalized : int;
      (** pending deletes never rank-finalized because dangling ops
          suppressed the final quiescent point *)
  inserts : int;
  rejects : int;
  quiescent_points : int;
  settles : int;  (** SSSP settle notes seen *)
  inversions : int;  (** settles below the running max distance *)
  live_high_water : int;  (** max live-table size: boundedness evidence *)
  pending_high_water : int;
      (** most deletes pending between two quiescent points — a count,
          not memory: they fold into a fixed npriorities-sized array *)
  notes_seen : int;
}

val finalize :
  ?slack_per_dangling:int -> t -> leftover:(int * int) list -> report
(** close the stream (a final quiescent point if nothing is in flight)
    and check conservation against the drained queue contents.
    [slack_per_dangling] (default 1) is the queue's in-hand bound: how
    many elements one crash-interrupted operation can strand in local
    state (1 plus any insertion/deletion buffering) *)

val of_history : History.t -> rank_stats
(** replay a recorded history as its note stream (an invoke note at
    each op's [t0], a response note at its [t1], responses first at
    equal cycles) and measure it: the rank figure's meter *)
