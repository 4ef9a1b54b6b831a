open Pqsim

type t = { lock : Pqsync.Mcs.t; value : int }

let create ?name mem ~nprocs ~init =
  let lock =
    Pqsync.Mcs.create
      ?name:(Option.map (fun n -> Mem.Field (n, "lock")) name)
      mem
      ~nprocs
  in
  let value = Mem.alloc mem 1 in
  (* [get] reads the single counter word without taking the lock *)
  Mem.declare_sync mem ~addr:value ~len:1;
  Mem.poke mem value init;
  (match name with
  | Some n -> Mem.label mem ~addr:value ~len:1 (Field (n, "value"))
  | None -> ());
  { lock; value }

let get t = Api.read t.value
let peek mem t = Mem.peek mem t.value

(* [f old bound] computes the new value; passing [bound] through keeps
   every operation a static function, so a call allocates no closure *)
let apply t f bound =
  Pqsync.Mcs.acquire t.lock;
  let old = Api.read t.value in
  let v = f old bound in
  if v <> old then Api.write t.value v;
  Pqsync.Mcs.release t.lock;
  old

let up v _ = v + 1
let down v _ = v - 1
let bounded_up v bound = if v >= bound then v else v + 1
let bounded_down v bound = if v <= bound then v else v - 1
let fai t = apply t up 0
let fad t = apply t down 0
let bfai t ~bound = apply t bounded_up bound
let bfad t ~bound = apply t bounded_down bound
