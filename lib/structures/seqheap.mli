(** Array-based binary min-heap living in simulated memory.

    Purely sequential: callers must provide exclusion (the SingleLock queue
    wraps it in one MCS lock).  Every probe of the array is a costed
    memory operation, so heap traversal cost scales with depth just as on
    the simulated machine. *)

type t

val create : ?name:string -> Pqsim.Mem.t -> cap:int -> t
(** [?name] labels the size word and backing array for the contention
    profiler *)

val size : t -> int
(** costed read *)

val none : int
(** [min_int]: what {!peek_min} and {!extract_min} answer for an empty
    heap, so neither allocates an option.  It is not a valid key. *)

val insert : t -> int -> bool
(** [insert t key] sifts [key] up from the last slot; false when full.
    @raise Invalid_argument if [key] is {!none} *)

val peek_min : t -> int
(** costed read of the minimum without removing it, or {!none} *)

val extract_min : t -> int
(** removes and returns the minimum, or {!none} when the heap is empty *)

val peek_list : Pqsim.Mem.t -> t -> int list
(** host-side contents (unordered), for verification *)
