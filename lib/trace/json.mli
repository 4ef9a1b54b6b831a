(** A minimal, dependency-free JSON representation.

    The repository ships no JSON library, and the observability subsystem
    needs both directions: deterministic serialization (trace files and
    BENCH.json must be byte-identical across runs of the same seed) and
    parsing (schema validation of possibly hand-edited benchmark files).
    Serialization is canonical for a given value: object fields print in
    construction order, floats through one fixed format. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** compact (no insignificant whitespace), deterministic *)

val of_string : string -> (t, string) result
(** strict parse of a complete document; [Error] carries a message with
    the byte offset.  Unicode escapes outside ASCII are replaced by
    ['?'] — our own output never contains them. *)

val member : string -> t -> t option
(** field lookup; [None] on non-objects and missing keys *)

val to_list : t -> t list option
val to_int : t -> int option

val to_float : t -> float option
(** accepts [Int] too (JSON does not distinguish) *)

val to_str : t -> string option
