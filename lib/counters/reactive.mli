(** Reactive counter in the style of Lim & Agarwal (ASPLOS 1994) — the
    {e centralized} adaptivity alternative the paper contrasts with
    combining funnels (Section 1): under low load use a simple
    lock-based counter, under high load replace the whole structure with
    a combining tree.

    A shared mode word selects the active implementation; both paths
    apply their updates to the same central counter word with
    compare-and-swap, so correctness never depends on the mode (it is a
    performance hint, flipped with hysteresis: repeated lock-acquire
    contention switches up, repeated un-combined climbs switch down).
    The funnel paper's point — which the counter shootout illustrates —
    is that this adapts per-structure rather than per-hot-spot, and the
    wholesale switch needs global agreement the funnel's local adaption
    avoids. *)

val create : Pqsim.Mem.t -> nprocs:int -> Ctr_intf.t
(** switches up as soon as one lock acquisition fails twice before it
    succeeds, and down after 8 consecutive un-combined climbs by one
    processor *)

val mode_now : Pqsim.Mem.t -> Ctr_intf.t -> int
(** 0 = lock-based, 1 = combining tree; for tests.  Only valid on
    counters made by {!create}. *)
