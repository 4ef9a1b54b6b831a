open Pqsim

type t = { lock : Pqsync.Mcs.t; size : int; elems : int; cap : int }

let none = min_int

let create ?name mem ~nprocs ~cap =
  let lock =
    Pqsync.Mcs.create
      ?name:(Option.map (fun n -> Mem.Field (n, "lock")) name)
      mem
      ~nprocs
  in
  let size = Mem.alloc mem 1 in
  let elems = Mem.alloc mem cap in
  (match name with
  | Some n ->
      Mem.label mem ~addr:size ~len:1 (Field (n, "size"));
      Mem.label mem ~addr:elems ~len:cap (Field (n, "elems"))
  | None -> ());
  (* [size] is read by the lock-free emptiness test, so it doubles as a
     synchronization word; [elems] is plain data guarded by the lock *)
  Mem.declare_sync mem ~addr:size ~len:1;
  { lock; size; elems; cap }

let insert t e =
  if e = none then invalid_arg "Bin.insert: the element is Bin.none";
  Pqsync.Mcs.acquire t.lock;
  let sz = Api.read t.size in
  let ok = sz < t.cap in
  if ok then begin
    Api.write (t.elems + sz) e;
    Api.write t.size (sz + 1)
  end;
  Pqsync.Mcs.release t.lock;
  ok

let is_empty t = Api.read t.size = 0

let delete t =
  Pqsync.Mcs.acquire t.lock;
  let sz = Api.read t.size in
  let r =
    if sz = 0 then none
    else begin
      let e = Api.read (t.elems + sz - 1) in
      Api.write t.size (sz - 1);
      e
    end
  in
  Pqsync.Mcs.release t.lock;
  r

let size_now mem t = Mem.peek mem t.size

let drain_now mem t =
  List.init (Mem.peek mem t.size) (fun i -> Mem.peek mem (t.elems + i))
