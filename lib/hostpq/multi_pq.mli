(** The MultiQueue on real hardware: [slots] sequential binary heaps,
    each behind its own [Mutex], with pick-2 delete-min over per-slot
    published minima ([Atomic] words read without locking).

    Relaxed: [delete_min] returns {e an} small element, not necessarily
    the minimum — the same trade the simulated {!Pqrelaxed.Multiqueue}
    makes, quantified there by the rank-error oracle.  Every lock
    acquisition is optimistic with {!Retry}-style bounded backoff: a
    contended slot is abandoned for a fresh pick rather than waited on,
    and only the exhaustive fallback (needed before [insert] may grow a
    waiting budget or [delete_min] may answer [None]) blocks.

    Each domain draws its picks from its own stream ({!Local_rand}), so
    an uncontended operation writes nothing but the slot it locks, and
    allocates nothing beyond [delete_min]'s result. *)

include Host_intf.S

val create_sized : npriorities:int -> slots:int -> unit -> 'a t
(** fixed slot count, for tests; {!create} sizes the queue at twice the
    recommended domain count *)

val slots : 'a t -> int
