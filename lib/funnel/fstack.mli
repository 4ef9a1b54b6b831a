(** Combining-funnel stack — the structure the paper uses for the "bins"
    of LinearFunnels and FunnelTree.

    The central object is a Treiber-style linked stack.  Combined push
    trees splice a pre-linked chain of their members' nodes with one
    compare-and-swap; combined pop trees detach a chain of nodes and hand
    sub-chains down the tree.  A push tree and a pop tree of equal size
    that meet in a funnel layer {e eliminate}: each pop takes its matched
    push's value, member by member, and neither tree touches the central
    stack.  Emptiness is a single read of the top pointer.

    Nodes are bump-allocated from per-processor pools and never reused, so
    detached chains stay immutable while being distributed; size the pool
    with [max_pushes_per_proc]. *)

type t

val create :
  ?name:Pqsim.Mem.name ->
  Pqsim.Mem.t ->
  nprocs:int ->
  ?config:Engine.config ->
  ?elim:bool ->
  ?pool:Pool.t ->
  ?max_pushes_per_proc:int ->
  unit ->
  t
(** Provide either a shared [pool] or [max_pushes_per_proc] to create a
    private one. *)

val push : t -> int -> unit
val pop : t -> int option
(** [None] when the central stack is empty (and no elimination partner
    materialised) *)

val is_empty : t -> bool
(** single costed read of the top pointer *)

val size_now : Pqsim.Mem.t -> t -> int
(** host-side element count, for verification *)

val drain_now : Pqsim.Mem.t -> t -> int list
(** host-side contents top-to-bottom, for verification *)
