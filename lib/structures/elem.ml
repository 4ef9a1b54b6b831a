(* 40 payload bits: the workloads' payloads (pid * 100_000 + op) pass
   2^24 from 168 processors on, and a priority above the payload still
   leaves 22 bits of a 63-bit word *)
let bits = 40
let max_payload = 1 lsl bits

let pack ~pri ~payload =
  if payload < 0 || payload >= max_payload then invalid_arg "Elem.pack";
  (pri lsl bits) lor payload

let pri e = e lsr bits
let payload e = e land (max_payload - 1)
