(** SimpleLinear on real hardware: one locked bin per priority plus an
    occupancy bitmap — one atomic word per 62 bins, a bin's bit set
    exactly while the bin is non-empty — so delete-min's scan finds the
    first promising bin a word at a time and locks only that bin.
    Linearizable; excellent until the lowest bins become contended.
    [length] counts under the bin locks and is meant for quiescence. *)

include Host_intf.S
