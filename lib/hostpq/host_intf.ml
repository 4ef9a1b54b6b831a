(** Common signature of the host (real multicore) bounded-range priority
    queues.

    These are the paper's designs transplanted onto OCaml 5 domains and
    hardware atomics, usable by real applications: same API shape as the
    simulated queues, minus the simulation plumbing.  Payloads are
    arbitrary values of type ['a]. *)

module type S = sig
  type 'a t

  val name : string

  val create : npriorities:int -> unit -> 'a t
  (** priorities range over [0, npriorities).  The heap queues
      ({!Locked_heap}, {!Multi_pq}) pack a priority into 31 bits of a
      heap entry ({!Heap.key_limit}), so they take at most [2^31]
      priorities.
      @raise Invalid_argument if [npriorities] is not positive, or is
      above [2^31] for a heap queue *)

  val insert : 'a t -> pri:int -> 'a -> unit
  (** @raise Invalid_argument if [pri] is out of range *)

  val delete_min : 'a t -> (int * 'a) option
  (** removes an element of minimal priority; [None] if the queue appears
      empty.  Queues built from distributed counters are quiescently
      consistent: overlapping operations may be reordered, but once the
      queue is quiet the k next deletions return the k smallest
      elements. *)

  val length : 'a t -> int
  (** element count; approximate while operations are in flight *)
end
