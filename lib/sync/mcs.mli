(** MCS list-based queue lock (Mellor-Crummey & Scott 1991) over simulated
    memory — the lock the paper uses for its "bins" and baseline queues.

    Each acquiring processor appends a queue node with a register-to-memory
    swap on the tail word and then spins on a flag in its {e own} node, so
    under contention each waiter spins on a distinct cache line and lock
    hand-off causes a single remote write.  One queue node per processor is
    pre-allocated per lock at creation.

    {2 Probe protocol}

    Under a probe, acquire/release report the same [lock.*] metric keys
    as {!Tas} (the vocabulary is shared so contention rates compare
    across lock types): [lock.acquire], [lock.release], [lock.wait]
    (cycles from call to ownership), [lock.hold] (cycles held) and
    [lock.contend] — counted once per blocking acquire that arrived to
    a non-empty queue {e and} once per failed {!try_acquire} (whose CAS
    observed a non-empty queue).

    Each ownership transition additionally emits a
    {!Pqsim.Probe.Lock_tag} note carrying the lock's identity
    ({!id} = the declare_sync'd tail word, labelled [name.tail]):
    [acquire] after ownership (operand [b] 1 when queued behind a
    predecessor), [release] at the start of the release, [try_fail] on
    a failed {!try_acquire}.  Notes and counts are free and absent when
    unprobed; probed runs stay bit-identical. *)

type t

val create : ?name:string -> Pqsim.Mem.t -> nprocs:int -> t
(** [?name] registers symbolic labels ([name.tail], [name.nodes]) for the
    lock's words with {!Pqsim.Mem.label}, so the contention profiler and
    the lock-order analyzer can attribute them.  See the probe protocol
    above for the [lock.*] metrics and notes reported under a probe. *)

val create_array : name:string -> Pqsim.Mem.t -> nprocs:int -> int -> t array
(** [create_array ~name mem ~nprocs n] is [n] locks laid out one after
    another, as [n] calls of {!create} would lay them out.  Lock [i]'s
    words read [name[i].tail] and [name[i].nodes] in
    {!Pqsim.Mem.name_of}, exactly as if each had been created with
    [~name:(name[i])]; the names are formatted only when asked for
    ({!Pqsim.Mem.label_with}), so a run of a heap with hundreds of node
    locks builds no string. *)

val id : t -> int
(** the lock's identity in probe notes: the address of its tail word *)

val acquire : t -> unit
(** must be called from processor context; the caller's node is selected by
    its processor id *)

val try_acquire : t -> bool
(** succeeds only if the lock queue is empty (single CAS on the tail) *)

val release : t -> unit

val words : nprocs:int -> int
(** simulated words a lock occupies, for memory accounting *)
