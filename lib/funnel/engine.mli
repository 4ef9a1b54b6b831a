(** The combining-funnel collision engine (Shavit & Zemach 1998/99).

    A funnel is a small stack of {e combining layers} — arrays in shared
    memory through which processors heading for the same central object
    locate each other.  A processor passing through a layer swaps its id
    into a random slot, reads the previous occupant's id and tries to
    {e collide} with it by locking first its own and then the partner's
    [location] word with compare-and-swap.  A successful collision either

    - {e combines} the two operations: the winner absorbs the loser's
      operation sum, adopts it as a child of its dynamically formed
      combining tree and advances to the next layer; or
    - {e eliminates} them, when the two sides carry reversing operations of
      equal tree size: both trees complete immediately without touching
      the central object.

    A processor that exhausts its collision attempts applies its combined
    operation to the central object (through the [try_central] callback)
    and then {e distributes} results down its tree.

    Trees can be kept {e homogeneous} (single operation kind, matching
    sizes — required for bounded counters, whose operations do not
    commute) or free-form (plain fetch-and-add).  Adaption narrows the
    slice of each layer a processor uses, based on its local collision
    success rate.

    This module owns the layer machinery, per-processor funnel records and
    the wait/distribute phases; the central-object semantics live in
    {!Fcounter} and {!Fstack}.

    {b Hang-proofing.}  Collisions commit in two phases: locking a
    partner's location word is tentative, and nothing of the partner's
    record is absorbed or written until a second CAS {e claims} it.  A
    waiter whose captor stalls (or crash-stops) before claiming spins
    only boundedly, then reclaims itself with a CAS on its own location
    word and resumes colliding — so a crashed peer degrades throughput
    instead of stranding its partner.  Once claimed, a waiter's result is
    owed by its captor; if that captor dies the engine watchdog (see
    {!Pqsim.Sim.run}) reports a structured progress failure.  All waiting
    loops are iteration-bounded and fail with a diagnostic rather than
    spinning silently forever. *)

type t

(** result_flag values *)

val flag_empty : int
val flag_elim : int  (** counter elimination: value is the return value *)

val flag_count : int
    (** operation applied at the central object: value is the base *)

val flag_elim_match : int
    (** stack pop matched a push: value is the partner's processor id *)

val flag_elim_done : int  (** stack push consumed by elimination *)

type config = {
  levels : int;  (** number of combining layers *)
  attempts : int;  (** collision attempts before trying the central object *)
  widths : int array;  (** slots per layer *)
  spins : int array;  (** cycles to linger at each layer after a swap *)
  adaptive : bool;  (** narrow layers under low collision success *)
}

val default_config : nprocs:int -> config
(** layer widths scale with the machine size; a 2-processor funnel
    degenerates to one narrow layer, and machines past 256 processors
    gain a fourth combining layer so per-layer fan-in stays bounded on
    the 512/1024-processor sweeps *)

val create : ?name:string -> Pqsim.Mem.t -> nprocs:int -> config:config -> t
(** [?name] labels the funnel's layers ([name.layer[d]]) and per-processor
    records ([name.rec[p]]) for the contention profiler.  Under a probe,
    [operate] reports [funnel.ops] (calls), [funnel.combine] (children
    captured), [funnel.eliminate] (pairs annihilated — each pair finishes
    two operations), [funnel.central] (applications at the central
    object), [funnel.decline] (failed collision attempts) and
    [funnel.contend] (central-object CAS contention), so
    [ops = central + combine + 2*eliminate] when every operation
    completes. *)

val config : t -> config

val max_children : t -> int
(** the most children one processor's record can hold: the bound on the
    [nkids] a client's [distribute] receives and on any child list read
    with {!read_children}.  During [distribute] the engine keeps the
    processor's own child list in the first [max_children] slots of its
    {!Pqsim.Api.scratch}; clients use the slots after them. *)

(** {1 Record accessors (processor-side, for client callbacks)} *)

val sum_of : t -> int -> int
(** [sum_of t pid] — costed read of pid's current subtree sum *)

val opval_of : t -> int -> int

val read_children : t -> int -> int array -> int -> int
(** [read_children t pid buf off] — costed reads of [pid]'s child list
    (its length, then each child in combining order) into
    [buf.(off) ..]; returns the number of children.  [buf] must have
    room for {!max_children} entries from [off]. *)

val child : t -> int -> int
(** [child t i] — the [i]th child of the calling processor's finished
    operation, as handed to its client's [distribute] (read from the
    processor's scratch; no memory traffic) *)

val set_result : t -> int -> flag:int -> value:int -> unit
(** write a waiting processor's result word (flag written last) *)

(** {1 Operations} *)

type client = {
  eliminate : me:int -> partner:int -> sign:int -> unit;
      (** invoked on the winning root of an elimination; must set
          {e both} roots' results *)
  try_central : me:int -> sign:int -> sum:int -> int;
      (** apply the combined operation of weight [sum] at the central
          object; return its result, or {!retry} under contention *)
  distribute : me:int -> sign:int -> flag:int -> value:int -> nkids:int -> int;
      (** after [me]'s own result ([flag], [value]) is known, release its
          [nkids] children ({!child}); the return value becomes
          {!operate}'s *)
}
(** The central-object semantics of one funnel object.  A client is
    built once, when its object is created, and every operation passes
    the same record, so an operation allocates nothing.  [sign] is the
    operation's own weight as passed to {!operate}; clients that serve
    two operation kinds (push/pop, inc/dec) dispatch on it. *)

val retry : int
(** [try_central]'s answer when the central object was contended
    ([min_int], never a legitimate result) *)

val operate :
  t ->
  client ->
  sign:int ->
  opval:int ->
  homogeneous:bool ->
  allow_elim:bool ->
  int
(** [operate t c ~sign ~opval ...] runs one operation of the calling
    processor through the funnel and returns [c.distribute]'s result.

    [sign] is +1/-1 weight of the operation; [opval] is an auxiliary word
    stored in the record (e.g. the node a stack push carries).  With
    [homogeneous] only same-sum trees combine; [allow_elim] enables
    elimination of opposite same-size trees, invoking [c.eliminate] on
    the winning root.  [c.try_central] applies the combined operation;
    the engine backs off and retries when it answers {!retry}.  After the
    processor's own result is known, [c.distribute] is invoked with its
    children (possibly none).  Nothing here allocates: the phases are
    first-order loops over processor-local registers, and the child list
    is read into the processor's {!Pqsim.Api.scratch}. *)
