(** Per-domain pseudo-random streams for the host queues' hot paths.

    Each domain draws from its own splitmix stream, kept in
    [Domain.DLS] and seeded once per domain from the domain's id, so a
    draw touches no cache line another domain writes and allocates
    nothing.  Quality is that of splitmix on OCaml's 63-bit [int]:
    plenty for picking slots and jittering backoff, not for anything
    that needs statistical rigour. *)

val next : unit -> int
(** the calling domain's next draw, uniform on [\[0, max_int\]] *)
