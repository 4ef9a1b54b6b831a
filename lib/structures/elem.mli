(** Packing of (priority, payload) pairs into single simulated-memory words.

    Heap-based queues keep one word per element ordered primarily by
    priority; bin-based queues store only the payload (the bin index is the
    priority).  Packing both into one word keeps element movement a single
    memory operation, as in the paper's implementations. *)

val max_payload : int
(** payloads must lie in [0, max_payload): 40 bits, room for the
    workloads' payloads (pid * 100_000 + op) at any processor count the
    simulator runs *)

val pack : pri:int -> payload:int -> int
(** ordered by priority first, then payload
    @raise Invalid_argument when [payload] is negative or
    >= {!max_payload} *)

val pri : int -> int
val payload : int -> int
