(** SimpleLinear on real hardware: one locked bin per priority plus an
    occupancy bitmap — one atomic word per 62 bins, a bin's bit set
    exactly while the bin is non-empty — so delete-min's scan finds the
    first promising bin a word at a time and locks only that bin.
    Linearizable; excellent until the lowest bins become contended.
    [length] counts under the bin locks and is meant for quiescence.

    Each bin is a LIFO stack in an array that doubles as it fills, so
    within a priority the last element inserted is the first removed.
    An insert allocates nothing unless its bin's array is full, and a
    [delete_min] nothing but its result.  A popped slot gets an
    immediate filler, so no removed payload stays reachable from the
    queue.  A bin that drains keeps its array only if it has at most 8
    slots; a deeper one is dropped, and the bin's next insert starts
    an 8-slot array, so a moving frontier leaves no large arrays behind
    it.  Construction builds no array, and its locks format no names
    ({!Hlock.create}). *)

include Host_intf.S
