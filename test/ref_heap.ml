(* A binary min-heap that moves each payload with its key, as
   [Hostpq.Heap] did before it packed its entries.  Kept as the reference
   [test_hostpq]'s "heap-reference" property holds [Hostpq.Heap] to: both
   sift by the key alone, so the two must pop the same (key, payload)
   sequence. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable size : int;
}

(* What an unused payload slot holds.  An immediate keeps nothing
   reachable, and because it is not a float, [Array.make] never builds a
   flat float array: a float payload is stored boxed, like any other, and
   every access here is a polymorphic one that checks the array's tag. *)
let filler () : 'a = Obj.magic ()

let create () =
  { keys = Array.make 16 0; vals = Array.make 16 (filler ()); size = 0 }

let size h = h.size
let min_key h = if h.size = 0 then max_int else h.keys.(0)

let grow h =
  let cap = 2 * Array.length h.keys in
  let keys = Array.make cap 0 and vals = Array.make cap (filler ()) in
  Array.blit h.keys 0 keys 0 h.size;
  Array.blit h.vals 0 vals 0 h.size;
  h.keys <- keys;
  h.vals <- vals

(* the slot where key [k] settles, moving [i]'s larger ancestors down *)
let rec sift_up h k i =
  if i = 0 then i
  else
    let p = (i - 1) / 2 in
    if h.keys.(p) <= k then i
    else begin
      h.keys.(i) <- h.keys.(p);
      h.vals.(i) <- h.vals.(p);
      sift_up h k p
    end

(* the slot where key [k] settles, moving [i]'s smaller descendants up *)
let rec sift_down h k i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  if l >= h.size then i
  else
    let c = if r < h.size && h.keys.(r) < h.keys.(l) then r else l in
    if h.keys.(c) >= k then i
    else begin
      h.keys.(i) <- h.keys.(c);
      h.vals.(i) <- h.vals.(c);
      sift_down h k c
    end

let push h k v =
  if h.size = Array.length h.keys then grow h;
  let i = sift_up h k h.size in
  h.size <- h.size + 1;
  h.keys.(i) <- k;
  h.vals.(i) <- v

let pop h =
  if h.size = 0 then None
  else begin
    let k = h.keys.(0) and v = h.vals.(0) in
    let last = h.size - 1 in
    let lk = h.keys.(last) and lv = h.vals.(last) in
    h.vals.(last) <- filler ();
    h.size <- last;
    if last > 0 then begin
      let i = sift_down h lk 0 in
      h.keys.(i) <- lk;
      h.vals.(i) <- lv
    end;
    Some (k, v)
  end
