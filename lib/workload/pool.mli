(** Domain pool for parallel experiment sweeps.

    Experiment points are independent deterministic simulations, so a
    sweep is an order-preserving parallel map: results come back in
    point order no matter which domain computed what, and [jobs = 1]
    (the default everywhere) is exactly [List.map] — same work, same
    order, same output.  Progress lines printed {e by} points may
    interleave when [jobs > 1]; anything derived from the returned list
    (tables, BENCH.json series) cannot. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] applies [f] to every item across [jobs] domains
    (the calling domain plus [jobs - 1] spawned helpers, work-stealing
    over the list) and returns the results in item order.  [jobs <= 1]
    runs [List.map f items] in the calling domain.  If any [f] raises,
    the remaining items still run and the first exception in {e item}
    order is re-raised — deterministic regardless of scheduling.

    The runtime caps the live domains (128 in OCaml 5.1).  When a spawn
    fails at the cap, [map] stops spawning and runs with the helpers it
    was granted, so any [jobs] is safe. *)

val map_with :
  spawn:((unit -> unit) -> unit -> unit) ->
  jobs:int ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** {!map} with [spawn worker] in place of [Domain.spawn]: it returns
    the join of what it started, or raises [Failure] as [Domain.spawn]
    does at the cap.  Tests substitute one that fails after a few
    calls. *)

val default_jobs : unit -> int
(** The [PQBENCH_JOBS] environment variable (a positive integer), or 1.
    CLI entry points use this as the [--jobs] default. *)
