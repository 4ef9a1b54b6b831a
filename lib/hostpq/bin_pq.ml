let name = "bin-pq"

(* A bin is a LIFO stack in [items.(0 .. size - 1)], top at [size - 1],
   so it pops in the order a list consed on insert would.  A vacated
   slot holds [Heap.filler], so a removed payload is unreachable from the
   bin as soon as it is popped.  A bin that drains keeps its array only
   if it has at most [kept] slots; a deeper one goes back to [[||]], and
   its next insert starts a [kept]-slot array. *)
type 'a bin = { lock : Hlock.t; mutable items : 'a array; mutable size : int }

let kept = 8

(* [occupied]: bit [i mod bits] of word [i / bits] is set exactly while
   bin [i] is non-empty.  A bit changes only under its bin's lock, on
   the empty <-> non-empty transition, so adding or subtracting it never
   carries and needs no CAS loop.  62 bits a word keep the sign bit of
   OCaml's 63-bit int clear. *)
type 'a t = { bins : 'a bin array; occupied : int Atomic.t array }

let bits = 62

let create ~npriorities () =
  if npriorities <= 0 then invalid_arg "Bin_pq.create";
  {
    bins =
      Array.init npriorities (fun i ->
          {
            lock = Hlock.create ~name:"bin-pq.bin" ~index:i ();
            items = [||];
            size = 0;
          });
    occupied =
      Array.init ((npriorities + bits - 1) / bits) (fun _ -> Atomic.make 0);
  }

(* under bin [i]'s lock, as it turns non-empty ([d] = 1) or empty
   ([d] = -1) *)
let flip t i d =
  ignore (Atomic.fetch_and_add t.occupied.(i / bits) (d * (1 lsl (i mod bits))))

let grow b =
  let n = Array.length b.items in
  let items = Array.make (if n = 0 then kept else 2 * n) (Heap.filler ()) in
  Array.blit b.items 0 items 0 b.size;
  b.items <- items

let insert t ~pri v =
  if pri < 0 || pri >= Array.length t.bins then invalid_arg "Bin_pq.insert";
  let b = t.bins.(pri) in
  Hlock.lock b.lock;
  if b.size = 0 then flip t pri 1;
  if b.size = Array.length b.items then grow b;
  b.items.(b.size) <- v;
  b.size <- b.size + 1;
  Hlock.unlock b.lock

(* under [b]'s lock, [b] non-empty *)
let pop t i b =
  let top = b.size - 1 in
  let v = b.items.(top) in
  b.items.(top) <- Heap.filler ();
  b.size <- top;
  if top = 0 then begin
    flip t i (-1);
    if Array.length b.items > kept then b.items <- [||]
  end;
  v

(* the index of [x]'s lowest set bit, [x] <> 0, by binary search on the
   bit isolated *)
let ctz x =
  let x = x land (-x) in
  let n = if x land 0xFFFF_FFFF = 0 then 32 else 0 in
  let n = if (x lsr n) land 0xFFFF = 0 then n + 16 else n in
  let n = if (x lsr n) land 0xFF = 0 then n + 8 else n in
  let n = if (x lsr n) land 0xF = 0 then n + 4 else n in
  let n = if (x lsr n) land 0x3 = 0 then n + 2 else n in
  if (x lsr n) land 0x1 = 0 then n + 1 else n

(* the first occupied bin at or after [i]; a bin another domain emptied
   first sends the scan on from the next bin, so [None] means one pass
   saw every word from the cursor on zero *)
let rec scan t i =
  let w = i / bits in
  if w >= Array.length t.occupied then None
  else
    let m = Atomic.get t.occupied.(w) lsr (i mod bits) in
    if m = 0 then scan t ((w + 1) * bits)
    else
      let i = i + ctz m in
      let b = t.bins.(i) in
      Hlock.lock b.lock;
      if b.size > 0 then begin
        let v = pop t i b in
        Hlock.unlock b.lock;
        Some (i, v)
      end
      else begin
        Hlock.unlock b.lock;
        scan t (i + 1)
      end

let delete_min t = scan t 0

(* called only at quiescence *)
let length t =
  Array.fold_left
    (fun acc b ->
      Hlock.lock b.lock;
      let n = b.size in
      Hlock.unlock b.lock;
      acc + n)
    0 t.bins
