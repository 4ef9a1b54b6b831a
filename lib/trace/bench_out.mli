(** Machine-readable benchmark output (BENCH.json).

    The figure runner renders human tables; this module captures the
    same data points in a schema-stable JSON document so CI can archive
    them and downstream tooling can diff runs.  The contract is described
    by [schema/bench.schema.json] and enforced by {!validate} (the
    toolchain has no JSON-Schema engine, so the checks are hand-rolled
    and kept in sync with the schema file).

    Serialization is deterministic: the same figures and seed produce the
    same bytes, and every section is independent of [--jobs]. *)

val schema_version : int

type series = { name : string; points : (int * float) list }

type figure = {
  id : string;  (** stable identifier, e.g. "fig6" *)
  title : string;
  xlabel : string;
  series : series list;
}

type t = {
  seed : int;
  scale : string;  (** "quick" | "full" | "tiny" — informational *)
  figures : figure list;
  metrics : (string * Json.t) list;  (** free-form extras *)
  gates : (string * Json.t) list;
      (** [(section, json)] in document order: [Pqanalysis.Gate]'s
          [audit], [chaos] and [adapt] sections *)
}
(** one document; each gate section arrives already encoded by the
    driver that judged it *)

val sections : string list
(** the top-level keys the schema defines, in document order *)

val to_json : t -> Json.t
val to_string : t -> string

val validate : Json.t -> (unit, string) result
(** structural validation of a parsed document: required fields, types,
    non-empty figures, each with non-empty series of (x:int, y:number)
    points; an optional [audit] section (non-empty schedules, seeds
    and rows, every count a non-negative integer, each row's pass flag
    equal both to its findings being empty and to its counts of races,
    lock-order cycles, discipline findings, aborted runs and failed
    checks all being 0 with [worst_rank <= bound], and the section's
    pass flag to every row passing); an optional [chaos] section
    (non-empty cells, verdicts drawn from healthy, degraded, blocked
    and safety-violation, non-violating cells inside their recorded
    bound, safe flag consistent with the cells); an optional [adapt]
    section (non-empty phases each with best <= worst, switch regimes
    drawn from light/heavy, and — when the pass flag is set — the gate
    verdict re-derivable from the recorded per-phase means and switch
    directions; a false flag with passing numbers is accepted, since
    the gate also judges aborts and conservation failures the section
    doesn't record).  Rejects any object that repeats a key, naming its
    path, any top-level key outside {!sections}, naming it, and other
    [schema_version]s. *)

val validate_string : string -> (unit, string) result
(** parse + validate *)
