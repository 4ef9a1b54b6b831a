(** Benchmark driver for the funnel counters (paper Figure 5): latency of
    the plain combining fetch-and-add versus the bounded
    fetch-and-decrement with elimination, under a configurable mix of
    increments and decrements. *)

type mode =
  | Faa  (** plain combining fetch-and-add, heterogeneous trees *)
  | Bounded of { elim : bool }
      (** homogeneous inc / bounded-dec (floor 0), optional elimination *)

val run :
  mode:mode -> nprocs:int -> dec_percent:int -> ops_per_proc:int -> float
(** average latency in cycles per counter operation, each operation
    after 10 cycles of local work, on engine seed 42 *)
