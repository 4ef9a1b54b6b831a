(** Combining-funnel shared counters, including the paper's novel bounded
    fetch-and-decrement (Figure 10).

    Bounded operations do not commute, so combined trees must be
    {e homogeneous}: increments only combine with increments, decrements
    with decrements, and the two eliminate each other when trees of equal
    size meet in a layer.  Elimination short-cuts both trees using the
    paper's interleaving convention (inc, dec, inc, dec, ...), so the
    counter is treated as never straying more than one step from its
    current value.

    A counter is configured at creation with an optional [floor] (applied
    by decrements: never move below it) and [ceil] (applied by
    increments).  [add] offers the classical unbounded combining
    fetch-and-add, where trees need not be homogeneous because unbounded
    additions commute. *)

type t

val create :
  ?name:Pqsim.Mem.name ->
  Pqsim.Mem.t ->
  nprocs:int ->
  ?config:Engine.config ->
  ?elim:bool ->
  ?floor:int ->
  ?ceil:int ->
  init:int ->
  unit ->
  t
(** [elim] (default true) enables elimination between opposite trees;
    disable it for the ablation benchmark. *)

val inc : t -> int
(** fetch-and-increment (bounded by [ceil] when given); returns the
    pre-operation value per Figure 1 semantics *)

val dec : t -> int
(** fetch-and-decrement (bounded by [floor] when given) *)

val add : t -> int -> int
(** plain combining fetch-and-add; requires an unbounded counter *)

val get : t -> int
(** costed read of the central value *)

val peek : Pqsim.Mem.t -> t -> int
(** host-side value, for verification *)
