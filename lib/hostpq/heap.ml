(* An entry packs a key above [idx_bits] and its payload's slab index in
   the [idx_bits] below, so a sift moves one immediate per level and
   never writes the payload array. *)
let idx_bits = 31
let idx_mask = (1 lsl idx_bits) - 1
let key_limit = 1 lsl idx_bits

type 'a t = {
  mutable ents : int array;
  mutable slab : 'a array;
  mutable free : int;  (* the first free slab slot *)
  mutable size : int;
}

(* What an unused payload slot holds.  An immediate keeps nothing
   reachable, and because it is not a float, [Array.make] never builds a
   flat float array: a float payload is stored boxed, like any other, and
   every access here is a polymorphic one that checks the array's tag. *)
let filler () : 'a = Obj.magic ()

(* A free slab slot [i] holds, as an immediate, the distance [d] to the
   next free slot, [i + 1 + d].  A fresh slab is all [filler ()], which
   is 0, so it is already one free list running up through its slots and
   on to its length: a full heap's [free] is its capacity. *)
let link i next : 'a = Obj.magic (next - i - 1)
let next_free i (x : 'a) = i + 1 + (Obj.magic x : int)

let create () =
  {
    ents = Array.make 16 0;
    slab = Array.make 16 (filler ());
    free = 0;
    size = 0;
  }

let size h = h.size
let min_key h = if h.size = 0 then max_int else h.ents.(0) lsr idx_bits

let grow h =
  let cap = 2 * Array.length h.ents in
  if cap > key_limit then failwith "Heap.push: more than 2^31 entries";
  let ents = Array.make cap 0 and slab = Array.make cap (filler ()) in
  Array.blit h.ents 0 ents 0 h.size;
  Array.blit h.slab 0 slab 0 h.size;
  h.ents <- ents;
  h.slab <- slab

(* the slot where key [k] settles, moving [i]'s larger ancestors down *)
let rec sift_up ents k i =
  if i = 0 then i
  else
    let p = (i - 1) / 2 in
    let e = ents.(p) in
    if e lsr idx_bits <= k then i
    else begin
      ents.(i) <- e;
      sift_up ents k p
    end

(* the slot where key [k] settles, moving [i]'s smaller descendants up *)
let rec sift_down ents size k i =
  let l = (2 * i) + 1 in
  if l >= size then i
  else
    let r = l + 1 in
    let c =
      if r < size && ents.(r) lsr idx_bits < ents.(l) lsr idx_bits then r
      else l
    in
    let e = ents.(c) in
    if e lsr idx_bits >= k then i
    else begin
      ents.(i) <- e;
      sift_down ents size k c
    end

let push h k v =
  if h.size = Array.length h.ents then grow h;
  let j = h.free in
  h.free <- next_free j h.slab.(j);
  h.slab.(j) <- v;
  let ents = h.ents in
  let i = sift_up ents k h.size in
  h.size <- h.size + 1;
  ents.(i) <- (k lsl idx_bits) lor j

let pop h =
  if h.size = 0 then None
  else begin
    let ents = h.ents in
    let e = ents.(0) in
    let j = e land idx_mask in
    let v = h.slab.(j) in
    h.slab.(j) <- link j h.free;
    h.free <- j;
    let last = h.size - 1 in
    h.size <- last;
    if last > 0 then begin
      let le = ents.(last) in
      ents.(sift_down ents last (le lsr idx_bits) 0) <- le
    end;
    Some (e lsr idx_bits, v)
  end
