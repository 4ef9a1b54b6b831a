(** Combining-funnel FIFO queue — the fairness-preserving "bin"
    alternative the paper sketches in Section 3.2.

    The funnel stack is unfair: later insertions occlude earlier ones and
    can starve them.  This structure keeps the combining funnel but makes
    the central object a linked FIFO; combined enqueue trees splice their
    chain at the tail, combined dequeue trees detach a chain from the
    head.  Two flavours:

    - {e pure FIFO} ([elim:false], the default): strict arrival order
      within the bin, at the cost of giving up elimination;
    - {e hybrid} ([elim:true]): enqueue and dequeue trees of equal size
      still eliminate in the funnel layers (a dequeue may return a brand
      new element ahead of older ones), while elements that do reach the
      central object leave in FIFO order — the paper's suggested
      compromise. *)

type t

val create :
  ?name:Pqsim.Mem.name ->
  Pqsim.Mem.t ->
  nprocs:int ->
  ?config:Engine.config ->
  ?elim:bool ->
  ?pool:Pool.t ->
  ?max_pushes_per_proc:int ->
  unit ->
  t

val enqueue : t -> int -> unit
val dequeue : t -> int option
val is_empty : t -> bool
val size_now : Pqsim.Mem.t -> t -> int
val drain_now : Pqsim.Mem.t -> t -> int list
(** head-to-tail order *)
