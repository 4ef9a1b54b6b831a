(** The sequential binary min-heap behind {!Locked_heap} and each
    {!Multi_pq} slot.  Not thread-safe; callers hold a lock.

    The heap is one [int array] of packed entries: an entry holds its
    key in the bits above the low 31 and, in those 31, the index of its
    payload's slot in a slab, an ['a array] beside it.  A payload is
    written once, into a free slab slot, and never moves: a sift moves
    only entries, which are immediates, so it writes no payload and
    calls no write barrier.  Sifts compare keys alone, never the slab
    index, so every entry settles exactly where a heap of
    [(key, payload)] pairs would put its pair, and the pop order is that
    heap's.

    Only {!pop}'s result allocates.  A vacated slab slot holds, as an
    immediate, the way to the next free slot, so the free list needs no
    array of its own, and a removed payload is unreachable from the heap
    as soon as {!pop} returns it.

    {b Limits.}  The packing bounds keys to [\[0, 2^31)] ({!key_limit})
    and a heap to fewer than [2^31] entries.  {!push} does not check the
    key: its callers check their priorities against [npriorities], and
    refuse an [npriorities] above {!key_limit} when they are built. *)

type 'a t

val key_limit : int
(** [2^31]: every key must lie in [\[0, key_limit)] *)

val filler : unit -> 'a
(** what a vacated payload slot holds: an immediate, so it keeps nothing
    reachable, and not a float, so an array made with it is never a flat
    float array.  {!Bin_pq}'s bins use it too. *)

val create : unit -> 'a t
val size : 'a t -> int

val min_key : 'a t -> int
(** the least key present, or [max_int] when empty *)

val push : 'a t -> int -> 'a -> unit
(** [push h k v] adds [v] under key [k], which must lie in
    [\[0, key_limit)] *)

val pop : 'a t -> (int * 'a) option
