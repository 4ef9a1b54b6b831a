(** Diffracting tree (Shavit & Zemach, TOCS 1996).

    A binary tree of balancers, each fronted by a {e prism}: an array in
    which processors entering the balancer try to pair off.  A paired
    ("diffracted") duo splits left/right without touching the balancer's
    toggle bit, so under high load most tokens never serialize; unpaired
    tokens fall back to a CAS toggle.  Leaf [i] of a depth-[d] tree
    dispenses [i], [i + 2^d], [i + 2·2^d], ...

    The paper cites diffracting trees as a scalable fetch-and-increment
    whose operations "cannot be readily transformed into the new bounded
    fetch-and-increment required for our priority queues" — this module
    exists to back that comparison with numbers. *)

val create : Pqsim.Mem.t -> nprocs:int -> Ctr_intf.t
(** a tree of depth roughly half of log2(nprocs), the sweet spot the
    diffracting-tree paper reports *)
