(** The brute-force references the test suite holds {!Pqcheck.Lincheck}
    and {!Rank} to.  For Lincheck: try every order of a history's operations that respects a given
    precedence, one operation at a time, against the sequential
    priority-queue specification.  No memoisation and no epoch algebra,
    so it shares no reasoning with the checker; its cost is factorial,
    so keep histories to about 8 operations. *)

val legal :
  precedes:(Pqcheck.History.event -> Pqcheck.History.event -> bool) ->
  Pqcheck.History.t ->
  bool
(** some total order of the operations, with [a] before [b] whenever
    [precedes a b], is a legal sequential run: each accepted insert adds
    a copy of its element, each delete returns a present element of the
    lowest priority present, or [None] on an empty queue. *)

val real_time : Pqcheck.History.event -> Pqcheck.History.event -> bool
(** [a] responded before [b] was invoked (linearizability). *)

val quiescent :
  Pqcheck.History.t -> Pqcheck.History.event -> Pqcheck.History.event -> bool
(** [quiescent h a b]: some instant after [a]'s response and before
    [b]'s invocation is covered by no operation of [h] (quiescent
    consistency).  Times are integers and an operation covers the closed
    interval [\[t0, t1\]], so such an instant exists iff some midpoint
    [k + 1/2] between them is uncovered. *)

val rank_samples : Pqcheck.History.t -> int list * int list
(** {!Rank.samples} by its definition, with no epochs and no counting
    structure: the sorted rank errors of every delete and delays of
    every returned element.  [a] is certainly ordered before [b] when
    some whole cycle strictly between them is covered by no operation.
    A delete's rank error counts the accepted inserts whose response is
    ordered before its invocation and whose first remover (if any) is
    invoked ordered after its response, and whose priority is below the
    answer's (any priority, for [None]).  A returned element's delay
    counts the deletes ordered after its last insert's response and
    before its remover's invocation that returned a larger priority.
    Quadratic and worse: keep histories to a few dozen operations. *)
