(** One MultiQueue slot: a sequential bounded priority queue on simulated
    memory, optionally fronted by insertion and deletion buffers.

    A slot is an exact sequential priority queue — the relaxation of the
    MultiQueue comes entirely from {e which} slot an operation picks,
    never from a slot reordering its own elements.  The buffers are the
    "Engineering MultiQueues" optimisation: an insertion buffer absorbs
    inserts and is flushed to the heap wholesale, a deletion buffer holds
    the slot's smallest elements so delete-min is a buffer pop.  The
    invariant maintained throughout is that every element in the heap or
    insertion buffer is >= every element in the deletion buffer.

    Callers must provide exclusion (the MultiQueue wraps each slot in one
    try-lock); all costed operations run in processor context.  The [top]
    word — the slot's current minimum key, or {!empty_top} — is published
    for lock-free pick-2 comparison and is declared a synchronization
    line ({!Pqsim.Mem.declare_sync}): reading it is an optimistic minimum
    test, the moral analogue of the other queues' emptiness pre-checks. *)

type t

val empty_top : int
(** the [top] sentinel of an empty slot (greater than any packed key),
    also what {!extract} answers for an empty slot *)

val create :
  ?name:Pqsim.Mem.name ->
  Pqsim.Mem.t ->
  cap:int ->
  ins_cap:int ->
  del_cap:int ->
  t
(** [cap] bounds the elements simultaneously in the slot (across heap and
    both buffers); [ins_cap]/[del_cap] of 0 disable that buffer. *)

val top_addr : t -> int
(** address of the published minimum, for pick-2 reads ({!Pqsim.Api.read}) *)

val size : t -> int
(** costed element count (heap + buffers) *)

val insert : t -> int -> bool
(** [insert t key] under the slot's lock; false when the slot is full. *)

val extract : t -> int
(** [extract t] removes and returns the slot's minimum key, under the
    slot's lock; {!empty_top} when the slot is empty. *)

val peek_all : Pqsim.Mem.t -> t -> int list
(** host-side: every key in the slot (heap + buffers), unordered *)

val check : Pqsim.Mem.t -> t -> (unit, string) result
(** host-side structural invariants at quiescence: heap property, sorted
    deletion buffer, buffer/heap ordering invariant, published [top]
    equal to the true minimum, sizes within bounds *)
