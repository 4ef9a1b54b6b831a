open Pqcheck

type t = { lin : Lincheck.verdict; qc : bool }
type level = Linearizable | Quiescent | Inconsistent

(* linearizability implies quiescent consistency, so a history that is not
   quiescently consistent is not linearizable either: only the histories
   that pass the per-epoch decision need the search *)
let classify ?max_states h =
  let qc = Lincheck.quiescently_consistent h in
  let lin =
    if qc then Lincheck.linearizable ?max_states h
    else Lincheck.Not_linearizable
  in
  { lin; qc }

let lin_violated t = t.lin = Lincheck.Not_linearizable
let qc_violated t = not t.qc

let level t =
  if qc_violated t then Inconsistent
  else if lin_violated t then Quiescent
  else Linearizable

let level_to_string = function
  | Linearizable -> "Linearizable"
  | Quiescent -> "Quiescently consistent"
  | Inconsistent -> "INCONSISTENT"

let pp_level ppf l = Format.pp_print_string ppf (level_to_string l)
