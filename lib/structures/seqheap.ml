open Pqsim

type t = { size_a : int; data : int; cap : int }

let none = min_int

let create ?name mem ~cap =
  let size_a = Mem.alloc mem 1 in
  let data = Mem.alloc mem cap in
  (match name with
  | Some n ->
      Mem.label mem ~addr:size_a ~len:1 (Field (n, "size"));
      Mem.label mem ~addr:data ~len:cap (Field (n, "data"))
  | None -> ());
  { size_a; data; cap }

let size t = Api.read t.size_a
let slot t i = t.data + i

(* The sifts recurse at top level, with every operand an argument, so an
   insert or an extraction allocates no closure. *)

(* sift up: read parents, shift down until key's slot is found *)
let rec up t key i =
  if i = 0 then Api.write (slot t 0) key
  else
    let p = (i - 1) / 2 in
    let pv = Api.read (slot t p) in
    if pv <= key then Api.write (slot t i) key
    else begin
      Api.write (slot t i) pv;
      up t key p
    end

let insert t key =
  if key = none then invalid_arg "Seqheap.insert: the key is Seqheap.none";
  let sz = Api.read t.size_a in
  if sz >= t.cap then false
  else begin
    Api.write t.size_a (sz + 1);
    up t key sz;
    true
  end

let peek_min t =
  let sz = Api.read t.size_a in
  if sz = 0 then none else Api.read (slot t 0)

(* sift [last] down from slot [i] of a heap of [sz]; [c]/[cv] is the
   smaller child and its key *)
let rec down t sz last i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  if l >= sz then Api.write (slot t i) last
  else begin
    let lv = Api.read (slot t l) in
    if r < sz then
      let rv = Api.read (slot t r) in
      if rv < lv then down_to t sz last i r rv else down_to t sz last i l lv
    else down_to t sz last i l lv
  end

and down_to t sz last i c cv =
  if cv < last then begin
    Api.write (slot t i) cv;
    down t sz last c
  end
  else Api.write (slot t i) last

let extract_min t =
  let sz = Api.read t.size_a in
  if sz = 0 then none
  else begin
    let root = Api.read (slot t 0) in
    let last = Api.read (slot t (sz - 1)) in
    Api.write t.size_a (sz - 1);
    let sz = sz - 1 in
    if sz > 0 then down t sz last 0;
    root
  end

let peek_list mem t =
  List.init (Mem.peek mem t.size_a) (fun i -> Mem.peek mem (t.data + i))
