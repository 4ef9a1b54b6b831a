(** Static memory-discipline lint for simulated algorithm code.

    Algorithm code under {!default_dirs} ([lib/core], [lib/sync],
    [lib/funnel], [lib/structures], [lib/counters], [lib/relaxed] and
    [lib/adapt]) must express all shared state
    through the priced [Api]/[Mem] instruction set; host-level mutable
    state (module-scope [ref]s, [Hashtbl]/[Atomic]/[Mutex], mutable
    record fields) silently escapes the cost model and, worse, the race
    sanitizer.  This is a hand-rolled lexical scanner (no parser
    dependencies) that rejects:

    - uses of host-effect modules ([Hashtbl], [Atomic], [Mutex],
      [Domain], [Obj], [Unix], [Sys], [Random], ...), and [external]
      declarations;
    - [ref] at module scope or in type declarations (local [let r =
      ref .. in] per-operation state is fine and idiomatic);
    - [mutable] record fields and [<-] mutations whose target is not in
      the allowlist file ([.pqlint-allow] at the repository root: one
      ["path ident  # reason"] entry per line) — the allowlist is for
      host-side per-processor bookkeeping such as probe timestamps;
    - [while true do .. done] loops whose body can neither escape
      ([raise]/[failwith]/[invalid_arg]/[assert]) nor report
      [Api.progress] — spinning invisible to the progress verifier;
    - [.ml] files with no [.mli] interface (mli-coverage). *)

type violation = { file : string; line : int; rule : string; message : string }

val pp_violation : Format.formatter -> violation -> unit

val scan_string :
  ?file:string -> ?allow:(string * string) list -> string -> violation list
(** scan one compilation unit's source text (the unit-testable core);
    [allow] entries apply when their path equals [file] *)

val load_allow : string -> (string * string) list
(** parse an allowlist file; missing file means an empty allowlist *)

val default_dirs : string list

val default_extra_files : string list
(** individual engine files scanned outside the directory walk —
    currently the event queue [lib/psim/evq.ml], whose mutable slots
    must each be enumerated (with a lifetime justification) in the
    allowlist even though the rest of lib/psim is host code *)

val scan_dirs :
  ?allow:(string * string) list -> root:string -> unit -> violation list
(** walk {!default_dirs} under [root], scanning every [.ml] and checking
    mli coverage, then scan each of {!default_extra_files} the same way *)
