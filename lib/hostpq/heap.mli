(** The sequential binary min-heap behind {!Locked_heap} and each
    {!Multi_pq} slot: [int] keys in one array, payloads in a plain
    ['a array] beside it.  Not thread-safe; callers hold a lock.

    Only {!pop}'s result allocates.  A vacated payload slot holds an
    immediate filler, never the payload it held, so a removed element is
    unreachable from the heap as soon as {!pop} returns it. *)

type 'a t

val filler : unit -> 'a
(** what a vacated payload slot holds: an immediate, so it keeps nothing
    reachable, and not a float, so an array made with it is never a flat
    float array.  {!Bin_pq}'s bins use it too. *)

val create : unit -> 'a t
val size : 'a t -> int

val min_key : 'a t -> int
(** the least key present, or [max_int] when empty *)

val push : 'a t -> int -> 'a -> unit
val pop : 'a t -> (int * 'a) option
