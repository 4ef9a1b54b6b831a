(** Test-and-test-and-set spin lock with backoff, over simulated memory.

    Used as a cheap baseline lock and inside structures where queueing
    behaviour is not wanted.  Spinning is on a cached copy (via the
    engine's [Wait_change]), so waiting generates no memory traffic.

    {2 Probe protocol}

    Under a probe ({!Pqsim.Api.probing}) a lock reports the shared
    [lock.*] metric keys — the vocabulary is identical for {!Tas} and
    {!Mcs}, so contention rates compare across lock types:

    - [lock.acquire]: ownership obtained (blocking or successful try);
    - [lock.release]: ownership given up;
    - [lock.wait]: cycles from the acquire call to ownership (0 for a
      successful try);
    - [lock.hold]: cycles between acquire and release;
    - [lock.contend]: the acquisition observed a holder — counted once
      per blocking acquire that had to wait {e and} once per failed
      {!try_acquire} (whose CAS observed the word held).

    Each ownership transition additionally emits a
    {!Pqsim.Probe.Lock_tag} note carrying the lock's identity
    ({!id} = the declare_sync'd lock word): [acquire] after ownership
    (operand [b] 1 when contended), [release] at the start of the
    release, [try_fail] on a failed {!try_acquire}.  Notes and counts
    are free and absent when unprobed; probed runs stay bit-identical. *)

type t

val create : ?name:Pqsim.Mem.name -> Pqsim.Mem.t -> t
(** [?name] labels the lock word for the contention profiler and the
    lock-order analyzer.  Under a probe, the same [lock.*] metrics as
    {!Mcs} are reported (see the probe protocol above). *)

val id : t -> int
(** the lock's identity in probe notes: the address of its lock word *)

val acquire : t -> unit
val try_acquire : t -> bool
(** non-blocking; true on success *)

val release : t -> unit
val held : t -> bool
(** costed read of the lock word; mostly for assertions in tests *)
