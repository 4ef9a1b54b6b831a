exception Gave_up of { op : string; attempts : int }

type t = {
  op : string;
  max_attempts : int;
  mutable attempts : int;
  mutable spin : int;
}

let base_spin = 1
let max_spin = 1 lsl 10

let start ?(max_attempts = max_int) op =
  { op; max_attempts; attempts = 0; spin = base_spin }

let once t =
  t.attempts <- t.attempts + 1;
  if t.attempts >= t.max_attempts then
    raise (Gave_up { op = t.op; attempts = t.attempts });
  for _ = 1 to t.spin do
    Domain.cpu_relax ()
  done;
  (* decorrelated jitter: the next wait is uniform on [base, 3*prev]
     (capped).  Plain doubling keeps losers of one collision in
     lockstep — they re-collide on every subsequent attempt; sampling
     each wait from a range that still grows ~1.5x per attempt in
     expectation spreads them out while keeping the backoff bounded.
     Draws come from the calling domain's own stream, so operations on
     different domains never share a sequence. *)
  let hi = min max_spin (3 * t.spin) in
  t.spin <- base_spin + (Local_rand.next () mod (hi - base_spin + 1))

let failed ?max_attempts op = function
  | Some t as r ->
      once t;
      r
  | None ->
      let t = start ?max_attempts op in
      once t;
      Some t

let attempts t = t.attempts
let spin t = t.spin
