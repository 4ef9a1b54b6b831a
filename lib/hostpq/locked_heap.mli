(** The SingleLock baseline on real hardware: a resizable array-based
    binary min-heap behind one {!Hlock}.  Linearizable; the right choice at
    low contention. *)

include Host_intf.S
