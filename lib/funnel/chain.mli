(** What the funnel stack ({!Fstack}) and the funnel queue ({!Fqueue})
    share: their node layout, walks down detached node chains, and the
    funnel client both hand their engine — the push/pop elimination
    hand-off and the distribution of popped sub-chains down a combining
    tree.  Only the central object differs between the two.

    Nodes are two words, [value] then [next]; a [next] of 0 ends a
    chain.  Every walk is costed processor-side code. *)

val value_of : int -> int
val next_of : int -> int

val walk : int -> int -> int -> int
(** [walk node j k] — the [k]th node of the chain from [node], counting
    [node] as the [j]th, or the chain's last node if it is shorter *)

val advance : int -> int -> int
(** [advance chain n] — the chain [n] nodes further on, 0 once it runs
    dry *)

val cap : Engine.t -> int
(** the most members a combining tree of this funnel can have
    ([2^levels]: homogeneous trees combine only equal sizes), and at
    least one member's child list *)

val scratch : Engine.t -> cap:int -> int array
(** the calling processor's {!Pqsim.Api.scratch}, long enough for the
    engine's child list followed by [cap] node slots and [cap] staging
    slots *)

val region : Engine.t -> int
(** the first scratch slot past the engine's child list *)

val client :
  Engine.t ->
  cap:int ->
  found:bool array ->
  push:(me:int -> sum:int -> int) ->
  pop:(sum:int -> int) ->
  Engine.client
(** The client of a funnel stack or queue whose central object is
    [push]/[pop] (the [try_central] of positive and negative operations).
    A pop's [distribute] returns the element it took and sets
    [found.(me)] to whether it took one. *)
