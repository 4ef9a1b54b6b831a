exception Gave_up of { op : string; attempts : int }

let first = 1
let max_spin = 1 lsl 10

let once ~max_attempts op ~failed spin =
  if failed >= max_attempts then raise (Gave_up { op; attempts = failed });
  for _ = 1 to spin do
    Domain.cpu_relax ()
  done;
  (* decorrelated jitter: the next wait is uniform on [first, 3*spin]
     (capped).  Plain doubling keeps losers of one collision in
     lockstep — they re-collide on every subsequent attempt; sampling
     each wait from a range that still grows ~1.5x per attempt in
     expectation spreads them out while keeping the backoff bounded.
     Draws come from the calling domain's own stream, so operations on
     different domains never share a sequence. *)
  let hi = min max_spin (3 * spin) in
  first + (Local_rand.next () mod (hi - first + 1))
