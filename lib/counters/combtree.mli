(** Software combining tree (Goodman, Vernon & Woest 1989; Yew, Tzeng &
    Lawrie 1987) — the static ancestor of combining funnels.

    Each processor owns a fixed leaf of a binary tree over the machine.
    Climbing toward the root, the first arrival at a node waits briefly
    for its sibling subtree's climber; if one arrives, their operations
    combine and only one continues upward, distributing results on the
    way back down.  Unlike funnels the pairing is static — a processor
    can only ever combine with its statically assigned partners — which
    is why funnels win under irregular load (paper footnote 4). *)

val create :
  ?name:Pqsim.Mem.name ->
  Pqsim.Mem.t ->
  nprocs:int ->
  ?wait:int ->
  ?central:int ->
  ?solo:int array ->
  unit ->
  Ctr_intf.t
(** [wait] is the combining window in cycles a first arrival holds a node
    open for its partner; [central] lets callers share the counter word
    with another implementation and [solo] receives per-processor counts
    of consecutive un-combined climbs (both used by {!Reactive}).
    [?name] labels the tree nodes and central word for the contention
    profiler.  Under a probe, [inc] reports [comb.ops] (calls),
    [comb.absorbed] (climbers whose deposit a partner picked up),
    [comb.central] (climbers that reached the counter word) and
    [comb.combine] (ops absorbed at a node, sample value = carry), with
    [ops = absorbed + central]. *)
