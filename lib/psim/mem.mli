(** Simulated shared memory with a ccNUMA contention and coherence model.

    Memory is a flat, growable array of words addressed by non-negative
    integers.  Every word is its own cache line.  The model captures the
    three forces that drive the paper's results:

    - {b hot-spot serialization}: writes and atomic operations occupy a
      line's home directory exclusively for a few cycles, so concurrent
      updates of one word queue up (per-line [busy_until]);
    - {b cheap cached re-reads}: each processor caches (line, version)
      pairs; reads of an unchanged line cost only [cache_hit] cycles and
      produce no memory traffic — this is what makes emptiness tests and
      local spinning cheap;
    - {b distance}: a miss pays the mesh hop distance between the processor
      and the line's home module.

    All mutating entry points are meant to be called by the engine while it
    processes the op's issue event; mutations are applied immediately (per
    line, issue order equals service order) while the returned completion
    time tells the engine when to resume the processor. *)

type t

val create : Machine.t -> t
(** [create machine] is a fresh memory: every word zero, no line cached,
    busy, queued on or written, no waiter parked.

    Its per-line tables are those of a memory the GC has found
    unreachable, when there is one, and are mapped anew otherwise.
    [create] zeroes reused tables over the lines their last user wrote.
    A memory that writes a line at or past 2{^18} gives up reuse: its
    tables are unmapped when it dies.  Reuse is not observable: a reused
    memory reads exactly as a newly mapped one. *)

val pooled : unit -> int
(** [pooled ()] is the number of reservations the next {!create}s can
    reuse: those of memories the GC has found unreachable. *)

val machine : t -> Machine.t

val set_probing : t -> bool -> unit
(** [set_probing t b] switches the per-line traffic/invalidation
    counters on or off for this memory.  Set by {!Sim.run} from its
    [?probe] argument; a per-memory field (rather than a global flag) so
    concurrent simulations in different domains don't observe each
    other's probes. *)

val set_metrics : t -> Stats.t option -> unit
(** [set_metrics t m] points the memory at the probe's metrics registry
    (set by {!Sim.run} alongside {!set_probing}).  While probing, every
    coherence transaction additionally records a ["mem.local"] or
    ["mem.remote"] sample by the socket relation between the issuing
    processor and the line's home module — the remote-traffic-share
    signal of the adaptive classifier.  Passive: recording never touches
    simulated time or scheduling. *)

(** {1 Allocation and raw access (simulation setup / inspection)} *)

val alloc : t -> int -> int
(** [alloc t n] reserves [n] fresh zero-initialised words and returns the
    address of the first.  Address 0 is never returned, so 0 can serve as a
    null pointer.

    Every word is addressable, allocated or not, up to the memory's
    reservation (2{^28} words where the host allows it).  Every access
    ({!alloc} itself, {!poke}, {!declare_sync}, {!peek}, {!watch} and
    the costed operations) raises [Invalid_argument] naming the line and
    the reservation when it reaches past that bound. *)

val peek : t -> int -> int
(** [peek t addr] reads a word without cost accounting (host-side). *)

val poke : t -> int -> int -> unit
(** [poke t addr v] writes a word without cost accounting (host-side);
    invalidates cached copies so simulated processors observe it. *)

val words_allocated : t -> int

(** {1 Symbolic labels (observability)}

    Structures register human names for the ranges they allocate so the
    contention profiler can attribute hot lines (e.g. the MCS tail word
    of SimpleTree's root counter instead of a bare address).  Labels are
    host-side metadata with no effect on simulation. *)

(** A symbolic name, kept as the steps that build it and formatted only
    when {!name_of} asks: constructing a structure formats nothing, and
    a constant root is a static value. *)
type name =
  | Root of string  (** rendered as given *)
  | Field of name * string  (** [n.f] *)
  | Index of name * int  (** [n[i]] *)
  | Numbered of name * string * int
      (** [n.fi]: a field numbered without brackets, as in [lock3] *)

val label : t -> addr:int -> len:int -> name -> unit
(** [label t ~addr ~len name] names the [len] words starting at [addr].
    A later registration overrides an earlier one where they overlap. *)

val label_records :
  t -> addr:int -> count:int -> stride:int -> len:int -> ?field:string ->
  name -> unit
(** [label_records t ~addr ~count ~stride ~len ?field name] names an
    array of [count] records of [stride] words from [addr]: the [len]
    words at the start of record [i] read [name[i]], or [name[i].field]
    with [?field], exactly as [count] calls of {!label} would name them,
    in one registration.  Overlaps resolve as for {!label}. *)

val name_of : t -> int -> string option
(** [name_of t addr] is the most recent label covering [addr], suffixed
    ["+k"] for the k-th word of a multi-word range. *)

val declare_sync : t -> addr:int -> len:int -> unit
(** [declare_sync t ~addr ~len] marks the [len] words starting at [addr]
    as {e synchronization lines}: words whose plain reads are part of an
    algorithm's synchronization protocol (lock words, version/state
    words, published heads, optimistic emptiness tests) rather than data
    transfers.  Like {!label} this is host-side metadata with no effect
    on simulation; the race sanitizer ([Pqanalysis.Races]) treats a read
    of a declared line as an acquire of the line's release clock and
    exempts the line's accesses from race reporting — the moral
    equivalent of C11 [atomic] qualification.  Declarations are made at
    structure-creation time and are expected to be sparse; every
    declared range must be justified in DESIGN.md §13. *)

val is_sync : t -> int -> bool
(** [is_sync t addr] is true iff [addr] lies in a {!declare_sync} range. *)

val degrade_node : t -> node:int -> factor:int -> unit
(** [degrade_node t ~node ~factor] makes memory module [node] serve every
    request [factor] times slower (occupancy and miss latency alike) —
    a fault-injection knob modelling a failing or thermally throttled
    node.  Lines homed on other modules are unaffected. *)

val miss_latency : t -> proc:int -> addr:int -> int
(** [miss_latency t ~proc ~addr] is the transfer latency a miss or an
    update by processor [proc] on line [addr] pays after directory
    service: the home module's node factor times
    [miss_base + Machine.hop_cost_of * Machine.hops].  It reads tables
    of mesh coordinates and sockets built by {!create}, and does no
    division. *)

(** {1 Costed operations (engine only)}

    Each operation comes in two shapes.  The [_t] variant returns only
    the completion time and parks its secondary result (value read, old
    value, CAS success as 1/0) in a slot read back with {!out} — the
    engine's hot path, which must not box a tuple per memory access.
    The tupled variant wraps it for ordinary callers and tests.  The
    [out] slot is only valid until the next costed operation. *)

val out : t -> int
(** secondary result of the most recent [_t] operation *)

val read_t : t -> proc:int -> now:int -> int -> int
(** [read_t t ~proc ~now addr] returns the completion time; the value
    read is in {!out}. *)

val read : t -> proc:int -> now:int -> int -> int * int
(** [read t ~proc ~now addr] returns [(completion_time, value)]. *)

val write : t -> proc:int -> now:int -> int -> int -> int
(** [write t ~proc ~now addr v] returns the completion time. *)

val swap_t : t -> proc:int -> now:int -> int -> int -> int
(** register-to-memory swap; completion time returned, old value in
    {!out}. *)

val swap : t -> proc:int -> now:int -> int -> int -> int * int
(** register-to-memory swap; returns [(completion_time, old_value)]. *)

val cas_t : t -> proc:int -> now:int -> int -> expected:int -> desired:int -> int
(** compare-and-swap; completion time returned, success (1/0) in
    {!out}. *)

val cas : t -> proc:int -> now:int -> int -> expected:int -> desired:int -> int * bool
(** compare-and-swap; returns [(completion_time, success)]. *)

val faa_t : t -> proc:int -> now:int -> int -> int -> int
(** fetch-and-add; completion time returned, old value in {!out}. *)

val faa : t -> proc:int -> now:int -> int -> int -> int * int
(** fetch-and-add; returns [(completion_time, old_value)]. *)

(** {1 Spin-wait assist}

    Waiters are an intrusive per-line chain of processor ids — parking
    and waking allocate nothing — delivered through a single callback
    the engine registers once per run. *)

val set_waker : t -> (int -> int -> unit) -> unit
(** [set_waker t f] registers the wake callback: [f pid change_time]
    delivers a line change to parked processor [pid].  Registered once
    per run by {!Sim.run}; the default is a no-op. *)

val watch : t -> addr:int -> pid:int -> unit
(** [watch t ~addr ~pid] parks [pid] on [addr]; the next write or atomic
    update touching [addr] wakes it through the {!set_waker} callback
    (once; the waiter re-arms if needed).  Waiters are woken in
    registration order.  A processor may be parked on at most one line
    at a time.  This models spinning on a cached copy: the spinner
    causes no traffic until the line is invalidated. *)

(** {1 Traffic counters} *)

val hits : t -> int
val misses : t -> int
val updates : t -> int
(** writes + atomics performed *)

val queue_wait : t -> int
(** total cycles ops spent queued behind busy lines — a contention measure *)

val hot_lines : t -> int -> (int * int) list
(** [hot_lines t k]: the [k] addresses with the most accumulated queueing
    delay, as [(addr, wait)], hottest first, ties by ascending address —
    a hot-spot profile of the run.  It keeps only the [k] best while it
    scans, so it allocates in proportion to [k], not to the number of
    waited lines. *)

(** {1 Per-line traffic (probe-gated)}

    Maintained only while this memory's {!set_probing} flag is set
    (i.e. under a probed {!Sim.run}), so default runs pay nothing.  Traffic counts the
    coherence transactions a line caused (read misses + writes +
    atomics); invalidations count version bumps (cached copies killed). *)

val line_traffic : t -> int -> int
val line_invalidations : t -> int -> int

val line_wait : t -> int -> int
(** accumulated queueing delay of one line (always maintained) *)

val line_profile : t -> (int * int * int * int) list
(** every line that saw traffic or queueing, as
    [(addr, wait, traffic, invalidations)], sorted hottest first
    (by wait, then traffic; address breaks ties deterministically) *)

val last_writer : t -> int -> int option
(** [last_writer t addr] is the processor whose write/atomic most recently
    touched [addr] ([None] if only host-side pokes did) — used by the
    engine's progress diagnosis to name the processor a blocked peer is
    waiting on. *)
