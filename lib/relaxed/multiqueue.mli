(** MultiQueue: a relaxed concurrent priority queue on simulated memory
    (Williams, Sanders & Dementiev, "Engineering MultiQueues").

    [c * nprocs] sequential slot priority queues ({!Slot}), each guarded
    by one test-and-set try-lock.  Insert picks a random slot and locks
    it; delete-min picks two random slots, compares their published
    minima and extracts from the smaller one ("pick-2").  No operation
    ever waits for a specific peer, so throughput scales with
    processors; in exchange delete-min returns {e an} small element, not
    {e the} smallest — the rank error, measured by [Pqcheck.Monitor],
    is a random variable bounded in expectation by O(slots).

    Variants (the registry's ablation surface):
    - {b stickiness}: a processor reuses its picked slots for
      [stickiness] consecutive operations, trading rank error for cache
      affinity and fewer pick rounds;
    - {b buffering}: per-slot insertion/deletion buffers
      ({!Slot}) amortise heap traffic.

    Everything is deterministic per engine seed: all randomness comes
    from {!Pqsim.Api.rand} (per-processor streams) and all state lives
    in simulated memory. *)

type config = {
  c : int;  (** slots per processor (>= 1) *)
  min_slots : int;  (** slot-count floor, for tiny [nprocs] *)
  stickiness : int;  (** operations per slot (re)pick; 1 = repick always *)
  ins_buf : int;  (** per-slot insertion-buffer capacity; 0 = none *)
  del_buf : int;  (** per-slot deletion-buffer capacity; 0 = none *)
  pick_attempts : int;
      (** try-lock/pick rounds before falling back to a full scan
          (delete) or a blocking acquire (insert) *)
}

val default : config
(** c = 2, no stickiness, no buffers, 4 pick rounds *)

type t

val create :
  ?name:Pqsim.Mem.name ->
  Pqsim.Mem.t ->
  nprocs:int ->
  capacity:int ->
  config ->
  t
(** [capacity] bounds the queue's total simultaneous elements; each slot
    gets a proportional share (with generous slack, so random imbalance
    does not cause spurious rejections).  [?name] (default
    [Root "MultiQueue"]) labels slot [i]'s lock [name.lock<i>] and its
    heap [name.slot<i>], and the sticky per-processor words. *)

val nslots : t -> int

val rank_bound : config -> nprocs:int -> int
(** the configured worst-case rank-error bound the verification gate
    holds this variant to — a generous multiple of the slot count (the
    theory bounds the {e expected} rank error by O(slots); the gate
    checks the measured maximum stays under this deterministic bound) *)

val insert : t -> int -> bool
(** processor context; false when every slot rejected the key (full) *)

val empty : int
(** what {!delete_min} answers for an apparently empty queue:
    {!Slot.empty_top}, greater than any key *)

val delete_min : t -> int
(** processor context; {!empty} only after a full scan of every slot's
    published minimum found the queue apparently empty *)

val drain_now : Pqsim.Mem.t -> t -> int list
(** host-side: every key still in the structure *)

val check_now : Pqsim.Mem.t -> t -> (unit, string) result
(** host-side: every slot's {!Slot.check} at quiescence *)
