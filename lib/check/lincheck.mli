(** Linearizability and quiescent-consistency checking of priority-queue
    histories.

    The sequential specification is the bounded-range priority queue:
    [Insert] adds its element (when accepted); [Delete_min] must return an
    element of the smallest priority present, or [None] only on an empty
    queue.  Payload choice among equal priorities is free (bins are
    bags — the paper's footnote 7 semantics), and the queue is a multiset
    of (priority, payload) elements: inserting an element twice makes two
    copies, each of which one delete may return.

    [linearizable] respects real-time order: operation [a] must take
    effect before [b] whenever [a] responded before [b] was invoked.  It
    is a Wing & Gong search with memoisation, exponential in the worst
    case; keep histories to a few dozen overlapping operations
    ([max_states] bounds the effort, past which the answer is
    [Gave_up]).

    [quiescently_consistent] only respects order across {e quiescent
    points} — instants covered by no operation — which is the guarantee
    the funnel-based queues make (Appendix B).  It needs no search: the
    history is cut into epochs at its quiescent points, and each epoch is
    decided from the multiset present at its start, its accepted inserts,
    the elements its deletes returned and its count of [None] deletes, in
    time O(n log n) for n operations. *)

type verdict = Linearizable | Not_linearizable | Gave_up

val linearizable : ?max_states:int -> History.t -> verdict

val quiescently_consistent : History.t -> bool
(** [true] iff some order of the operations that respects the order of
    epochs satisfies the sequential specification. *)
