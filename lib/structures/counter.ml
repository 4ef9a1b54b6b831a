open Pqsim

type t = int

let create mem ~init =
  let a = Mem.alloc mem 1 in
  (* single word driven by FAA and read-then-CAS loops *)
  Mem.declare_sync mem ~addr:a ~len:1;
  Mem.poke mem a init;
  a

let addr t = t
let get t = Api.read t
let peek mem t = Mem.peek mem t
let fai t = Api.faa t 1
let fad t = Api.faa t (-1)

let bounded t ~stop ~delta =
  let rec go window =
    let old = Api.read t in
    if stop old then old
    else if Api.cas t ~expected:old ~desired:(old + delta) then old
    else go (Pqsync.Backoff.pause window)
  in
  go Pqsync.Backoff.first

let bfai t ~bound = bounded t ~stop:(fun v -> v >= bound) ~delta:1
let bfad t ~bound = bounded t ~stop:(fun v -> v <= bound) ~delta:(-1)
