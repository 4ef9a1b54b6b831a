(** The post-hoc rank-error oracle: the reference model the test suite
    holds {!Pqcheck.Monitor}'s streaming rank measurement to.

    Where {!Pqcheck.Lincheck} gives a yes/no consistency verdict, this
    oracle measures {e how far} from exact a queue's delete-min answers
    are — the quality metric of the relaxed-queue literature
    (MultiQueues, k-LSM).  It replays a recorded history against the multiset of
    elements that are {e definitely live} at each delete.

    "Definitely" is judged against the weakest guarantee any strict
    queue here makes — quiescent consistency (Appendix B): two
    operations are certainly ordered only when a quiescent point (an
    idle cycle covered by no operation) separates them.  An accepted
    insert [y] is definitely live across delete [D] when a quiescent
    point separates [y]'s response from [D]'s invocation, and another
    separates [D]'s response from the invocation of the delete that
    eventually returns [y] (if any).

    For a delete returning priority [p], the {b rank error} is the
    number of definitely-live elements with priority strictly below [p];
    for a delete returning [None] it is the number of definitely-live
    elements of any priority (elements provably ignored by the empty
    answer).  Because only definitely-live elements are counted, every
    linearizable {e and} every quiescently consistent queue measures
    exactly 0 on every schedule — any nonzero value is a real ordering
    violation, never schedule noise.  The MultiQueue family stays
    visible to this conservative oracle because its relaxation is
    structural, not concurrency noise: a pick-2 delete skips the true
    minimum even at full quiescence.

    The {b delay} of a returned element [x] is the number of earlier
    deletes that certainly overtook it: deletes ordered (by quiescent
    points) after [x]'s insert and before [x]'s remover, yet returning
    a strictly larger priority.  Elements never removed contribute no
    delay sample. *)

type stats = {
  deletes : int;  (** delete operations measured, [None] returns included *)
  empties : int;  (** deletes that returned [None] *)
  max_rank : int;
  mean_rank : float;
  p99_rank : int;
  max_delay : int;
  mean_delay : float;
  p99_delay : int;
  rank_hist : (int * int) list;
      (** nonempty power-of-two buckets as (lower bound, count):
          bucket 0 counts exact answers, bucket [2^k] counts errors in
          [2^k, 2^(k+1)) *)
  delay_hist : (int * int) list;
}

val measure : Pqcheck.History.t -> stats
(** An offline sweep over the history's quiescent epochs, counting live
    elements by priority in a Fenwick tree: O(n log n) in the history's
    length, so a recorded run of tens of thousands of operations
    measures in well under a second.  {!Brute.rank_samples} is the
    definition it is held to. *)

val samples : Pqcheck.History.t -> int list * int list
(** the sorted rank errors of every delete and delays of every returned
    element that {!measure} summarizes *)

val pp : Format.formatter -> stats -> unit
