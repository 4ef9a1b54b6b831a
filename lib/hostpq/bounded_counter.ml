type t = {
  v : int Atomic.t;
  floor : int option;
  ceil : int option;
  max_attempts : int;
}

let create ?floor ?ceil ?(max_attempts = max_int) init =
  (match (floor, ceil) with
  | Some f, Some c when f > c -> invalid_arg "Bounded_counter.create"
  | _ -> ());
  { v = Atomic.make init; floor; ceil; max_attempts }

let get t = Atomic.get t.v

(* the CAS loop of a bounded step: [delta] is 1 (no-op at or above [b])
   or -1 (no-op at or below [b]); [failed] CASes so far, [spin] the next
   wait *)
let rec step t ~op ~b ~delta failed spin =
  let old = Atomic.get t.v in
  if (if delta > 0 then old >= b else old <= b) then old
  else if Atomic.compare_and_set t.v old (old + delta) then old
  else
    let failed = failed + 1 in
    step t ~op ~b ~delta failed
      (Retry.once ~max_attempts:t.max_attempts op ~failed spin)

let inc t =
  match t.ceil with
  | None -> Atomic.fetch_and_add t.v 1
  | Some b -> step t ~op:"Bounded_counter.inc" ~b ~delta:1 0 Retry.first

let dec t =
  match t.floor with
  | None -> Atomic.fetch_and_add t.v (-1)
  | Some b -> step t ~op:"Bounded_counter.dec" ~b ~delta:(-1) 0 Retry.first

let add t d =
  if t.floor <> None || t.ceil <> None then
    invalid_arg "Bounded_counter.add: bounded counters need inc/dec";
  Atomic.fetch_and_add t.v d
