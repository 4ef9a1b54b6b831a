(** Classifying one recorded history against the paper's two
    consistency conditions (Appendix B). *)

type t = {
  lin : Pqcheck.Lincheck.verdict;  (** linearizability check result *)
  qc : bool;  (** the history is quiescently consistent *)
}

(** the strongest consistency level a set of observations supports *)
type level =
  | Linearizable  (** no linearizability violation observed *)
  | Quiescent
      (** linearizability refuted, quiescent consistency never refuted *)
  | Inconsistent  (** quiescent consistency refuted: a real ordering bug *)

val classify : ?max_states:int -> Pqcheck.History.t -> t
(** decide quiescent consistency first, then search for a linearization
    ([max_states] bounds that search) only if it holds.  Linearizability
    implies quiescent consistency, so a history that is not quiescently
    consistent reads [lin = Not_linearizable] without a search: at most
    one search runs per history. *)

val lin_violated : t -> bool
val qc_violated : t -> bool

val level : t -> level
(** level supported by this single history; a linearizability search
    that gave up counts as not-refuted (inconclusive, never a
    violation). *)

val level_to_string : level -> string
val pp_level : Format.formatter -> level -> unit
