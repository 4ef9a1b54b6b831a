(** The MultiQueue on real hardware: [slots] sequential binary heaps,
    each behind its own {!Hlock}, with pick-2 delete-min over per-slot
    published minima ([Atomic] words read without locking).

    Relaxed: [delete_min] returns {e an} small element, not necessarily
    the minimum — the same trade the simulated {!Pqrelaxed.Multiqueue}
    makes, quantified there by the rank-error oracle.

    Picks are sticky by swapping, as in Williams & Sanders'
    "Engineering MultiQueues".  The queue keeps a permutation of its
    slots.  On its first call on a queue a domain takes a seat by
    fetch-and-add, and seat [k] owns positions [2k] and [2k + 1] of the
    permutation (modulo the slot count).  Inserts go to the two owned
    slots in turn; a delete locks the owned slot with the smaller
    published minimum.  While the queue has two slots per domain, no two
    domains' owned slots meet.  Every 16 calls the domain swaps one
    owned position's slot with a random position's (the two positions
    in turn), so every slot keeps being drained.  A swap is two CASes
    and a store, and never loses or repeats a slot: whenever no swap is
    in flight the permutation is one ({!assignment}).  The seat is kept
    per domain in [Domain.DLS], tagged with the queue it was taken in
    (compared by physical equality), so a domain that calls another
    queue takes a seat there and never indexes a queue by another's
    positions.

    The owned slot (or pair) is an operation's first attempt; a position
    caught mid-swap reads as a random slot.  A busy lock, two empty
    slots or a stale pick move on to fresh random slots (pick-2 for
    deletes), with {!Retry}-style backoff, drawn from the domain's own
    stream ({!Local_rand}).  Only the exhaustive fallback (needed before
    [insert] may grow a waiting budget or [delete_min] may answer
    [None]) blocks.

    Each slot's lock state, published minimum and heap record, the
    words written on every operation, and each permutation entry sit in
    {!Padded} blocks of 16 words of their own, so a write to one moves
    no cache line another domain reads for another slot.  The minimum is
    stored only when it changed.  An uncontended operation writes the
    slot it locks and the domain's own seat record, and every 16th also
    writes two permutation entries; it allocates nothing beyond
    [delete_min]'s result.  [npriorities] may be at most [2^31]
    ({!Heap.key_limit}). *)

include Host_intf.S

val create_sized : npriorities:int -> slots:int -> unit -> 'a t
(** fixed slot count, for tests; {!create} sizes the queue at twice the
    recommended domain count.
    @raise Invalid_argument if [slots] is not positive, or [npriorities]
    not in [\[1, 2^31\]] *)

val slots : 'a t -> int

val assignment : 'a t -> int array
(** the slot at each position of the permutation, one entry read at a
    time; at rest a permutation of [0 .. slots - 1] *)
