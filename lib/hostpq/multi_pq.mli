(** The MultiQueue on real hardware: [slots] sequential binary heaps,
    each behind its own {!Hlock}, with pick-2 delete-min over per-slot
    published minima ([Atomic] words read without locking).

    Relaxed: [delete_min] returns {e an} small element, not necessarily
    the minimum — the same trade the simulated {!Pqrelaxed.Multiqueue}
    makes, quantified there by the rank-error oracle.  Every lock
    acquisition is optimistic with {!Retry}-style bounded backoff: a
    contended slot is abandoned for a fresh pick rather than waited on,
    and only the exhaustive fallback (needed before [insert] may grow a
    waiting budget or [delete_min] may answer [None]) blocks.

    Picks are sticky: a domain keeps its insert slot for 16 inserts
    and its pick-2 pair for 16 deletes, so two domains stop meeting on
    fresh random slots every call.  It drops the choice at once when the
    chosen lock is busy, when both slots of the pair read empty, or when
    the pick proved stale.  The choice is kept per domain in
    [Domain.DLS], tagged with the queue it was drawn for (compared by
    physical equality), so a domain that calls another queue draws
    afresh and never indexes a queue by another's slot count.  Fresh
    draws come from the domain's own stream ({!Local_rand}).

    Each slot's lock state, published minimum and heap record, the words
    written on every operation, sit in {!Padded} blocks of 16 words of
    their own, so a write to one slot moves no cache line another slot's
    user reads.  The minimum is stored only when it changed.  An
    uncontended operation writes nothing but the slot it locks and the
    domain's own choice, and allocates nothing beyond [delete_min]'s
    result. *)

include Host_intf.S

val create_sized : npriorities:int -> slots:int -> unit -> 'a t
(** fixed slot count, for tests; {!create} sizes the queue at twice the
    recommended domain count *)

val slots : 'a t -> int
