(* Ladder event queue.  The engine's event stream is overwhelmingly
   near-monotone: almost every push lands within one memory-latency
   horizon of the current clock.  A classic binary heap pays O(log n)
   per operation for that stream; this structure pays amortized O(1).

   Layout:

   - a sliding *window* of [window] time-indexed buckets covering the
     ticks [cur, cur + window).  An event at time [t] in the window
     lives in bucket [t land mask]; since the window spans exactly
     [window] ticks, a bucket holds a single time value (plus clamped
     stragglers, below).  Buckets are intrusive singly-linked lists of
     event ids kept sorted by the full (time, weight, seq) key — the
     engine's weight-0 FIFO stream always appends at the tail in O(1),
     while adversarial same-cycle weights from the schedule explorer
     fall back to an insertion walk.
   - a two-level occupancy bitmap over the buckets (32 slots per word)
     so [pop] finds the next nonempty bucket with word tests + a
     count-trailing-zeros, not a slot-by-slot scan of sparse windows.
   - a *far* binary heap (ordered by the same full key) for events
     beyond the window; whenever the cursor advances, due far events
     are drained into their buckets, so each event moves through the
     far heap at most once.

   Events live in an arena of parallel arrays indexed by event id:
   [etime], [eweight], [eseq], [epid], [ev] and the bucket/freelist
   link [enext] are int arrays, and the bucket heads and tails and the
   far heap hold ids, so scheduling an event stores only immediates —
   no pointer store, hence no GC write barrier.  The one pointer array,
   [erun], is written only when a closure event is pushed.  Ids recycle
   through the [enext] freelist the moment they pop: [pop_exn] copies
   the event into the queue's single view record, so the caller may
   read it — and push new events, which reuse the freed id — until the
   next pop.  A freed id's [erun] slot keeps its thunk until a later
   closure event reuses the slot or [reset] clears it.  The arena and
   the far heap start empty and double from [first_capacity] on demand,
   so a queue holds slots for about as many events as were ever pending
   at once (the engine keeps at most one per processor).

   A drained queue is reused rather than rebuilt: [reset] rewinds it to
   the state [create] returns, keeping its arrays.  The two 4,096-word
   bucket arrays go straight to the major heap, so a run that rebuilt
   them would leave 8,192 words of major-heap garbage behind.

   The pop order is the same strict total order (time, then weight,
   then seq; seq is unique) the old binary heap used, so any run
   driven through this queue is byte-identical to one driven through
   the heap — the golden-digest gates check exactly that.  The old
   heap survives as the QCheck reference model in test/test_psim.ml. *)

type event = {
  mutable time : int;
  mutable weight : int;
  mutable seq : int;
  mutable pid : int;
  mutable v : int;
  mutable run : unit -> unit;
}

(* window parameters: [window] must be a power of two, and [slot_words]
   32-bit occupancy words cover it *)
let window = 4096
let mask = window - 1
let slot_words = window / 32

(* the null event id: empty bucket, end of a chain or of the freelist *)
let nil = -1

let first_capacity = 8

let noop () = ()

type t = {
  (* the arena: event [id]'s fields at index [id] *)
  mutable etime : int array;
  mutable eweight : int array;
  mutable eseq : int array;
  mutable epid : int array;
  mutable ev : int array;
  mutable enext : int array;
  mutable erun : (unit -> unit) array;
  mutable fresh : int; (* ids below [fresh] have been handed out *)
  mutable free : int; (* freelist head, threaded through [enext] *)
  bhead : int array; (* bucket heads, [nil] when empty *)
  btail : int array;
  occ : int array; (* occupancy bitmap: bit (s land 31) of word (s lsr 5) *)
  occ_sum : int array; (* summary: bit w set iff occ.(w) <> 0 *)
  mutable cur : int; (* absolute-time cursor; never decreases while nonempty *)
  mutable in_window : int;
  mutable far : int array; (* binary heap of events at time >= cur + window *)
  mutable far_size : int;
  mutable size : int;
  mutable next_seq : int;
  mutable pops : int;
  view : event; (* the record [pop_exn] fills and returns *)
}

let create () =
  {
    etime = [||];
    eweight = [||];
    eseq = [||];
    epid = [||];
    ev = [||];
    enext = [||];
    erun = [||];
    fresh = 0;
    free = nil;
    bhead = Array.make window nil;
    btail = Array.make window nil;
    occ = Array.make slot_words 0;
    occ_sum = Array.make ((slot_words + 31) / 32) 0;
    cur = 0;
    in_window = 0;
    far = [||];
    far_size = 0;
    size = 0;
    next_seq = 0;
    pops = 0;
    view = { time = 0; weight = 0; seq = 0; pid = -1; v = 0; run = noop };
  }

let is_empty t = t.size = 0
let length t = t.size
let pops t = t.pops

let before t a b =
  let ta = t.etime.(a) and tb = t.etime.(b) in
  ta < tb
  || ta = tb
     &&
     let wa = t.eweight.(a) and wb = t.eweight.(b) in
     wa < wb || (wa = wb && t.eseq.(a) < t.eseq.(b))

(* count trailing zeros of a nonzero 32-bit value, by de Bruijn multiply *)
let ctz_table =
  [|
    0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23;
    21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9;
  |]

let ctz32 x = ctz_table.((((x land -x) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

let set_occ t s =
  let w = s lsr 5 in
  t.occ.(w) <- t.occ.(w) lor (1 lsl (s land 31));
  t.occ_sum.(w lsr 5) <- t.occ_sum.(w lsr 5) lor (1 lsl (w land 31))

let clear_occ t s =
  let w = s lsr 5 in
  let word = t.occ.(w) land lnot (1 lsl (s land 31)) in
  t.occ.(w) <- word;
  if word = 0 then
    t.occ_sum.(w lsr 5) <- t.occ_sum.(w lsr 5) land lnot (1 lsl (w land 31))

(* the summary-block scan of [next_occupied], from block [b] with the
   bits below the start already [masked] off; fuel bounds the scan at one
   full circle in case the nonempty-window precondition is ever violated.
   Top level, like every loop on the pop path, so a pop allocates no
   closure. *)
let rec next_block t nsum b masked fuel =
  if fuel < 0 then invalid_arg "Evq.next_occupied: empty window";
  let bits = t.occ_sum.(b) land masked land 0xFFFFFFFF in
  if bits <> 0 then begin
    let w = (b lsl 5) lor ctz32 bits in
    (w lsl 5) lor ctz32 t.occ.(w)
  end
  else
    let b' = b + 1 in
    next_block t nsum (if b' = nsum then 0 else b') (-1) (fuel - 1)

(* index of the first nonempty bucket at or after slot [s0], scanning the
   circular window; the caller guarantees the window is nonempty *)
let next_occupied t s0 =
  let w0 = s0 lsr 5 in
  let first = t.occ.(w0) land (-1 lsl (s0 land 31)) land 0xFFFFFFFF in
  if first <> 0 then (w0 lsl 5) lor ctz32 first
  else
    (* remaining words of this summary block, then whole blocks, wrapping *)
    let nsum = Array.length t.occ_sum in
    next_block t nsum (w0 lsr 5) (-1 lsl ((w0 land 31) + 1)) (nsum + 1)

let grow_array a fill =
  let b = Array.make (max first_capacity (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* double every arena array; ids keep their indices *)
let grow t =
  t.etime <- grow_array t.etime 0;
  t.eweight <- grow_array t.eweight 0;
  t.eseq <- grow_array t.eseq 0;
  t.epid <- grow_array t.epid 0;
  t.ev <- grow_array t.ev 0;
  t.enext <- grow_array t.enext nil;
  t.erun <- grow_array t.erun noop

(* a free event id with its key and payload set and its link cleared *)
let alloc t ~time ~weight ~pid ~v =
  let id = t.free in
  let id =
    if id <> nil then begin
      t.free <- t.enext.(id);
      id
    end
    else begin
      let id = t.fresh in
      if id = Array.length t.etime then grow t;
      t.fresh <- id + 1;
      id
    end
  in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.etime.(id) <- time;
  t.eweight.(id) <- weight;
  t.eseq.(id) <- seq;
  t.epid.(id) <- pid;
  t.ev.(id) <- v;
  t.enext.(id) <- nil;
  id

(* insert event [e] into its window bucket, keeping the chain sorted by
   the full key.  The hot case — the engine's monotonically-sequenced
   weight-0 stream, and far-heap drains (popped in key order) — appends
   at the tail in O(1). *)
let bucket_insert t e =
  (* events from the past (QCheck drives these; the engine never does)
     clamp into the cursor bucket, where the full-key walk still yields
     them first *)
  let time = t.etime.(e) in
  let s = (if time < t.cur then t.cur else time) land mask in
  let head = t.bhead.(s) in
  if head = nil then begin
    t.bhead.(s) <- e;
    t.btail.(s) <- e;
    set_occ t s
  end
  else begin
    let tail = t.btail.(s) in
    if before t tail e then begin
      t.enext.(tail) <- e;
      t.btail.(s) <- e
    end
    else if before t e head then begin
      t.enext.(e) <- head;
      t.bhead.(s) <- e
    end
    else begin
      (* insertion walk; terminates before the tail by the checks above *)
      let p = ref head in
      while before t t.enext.(!p) e do
        p := t.enext.(!p)
      done;
      t.enext.(e) <- t.enext.(!p);
      t.enext.(!p) <- e
    end
  end;
  t.in_window <- t.in_window + 1

(* far heap: plain binary min-heap of ids on the full key *)

let rec far_up t e i =
  if i = 0 then t.far.(0) <- e
  else
    let parent = (i - 1) / 2 in
    if before t e t.far.(parent) then begin
      t.far.(i) <- t.far.(parent);
      far_up t e parent
    end
    else t.far.(i) <- e

let far_push t e =
  if t.far_size = Array.length t.far then t.far <- grow_array t.far nil;
  t.far_size <- t.far_size + 1;
  far_up t e (t.far_size - 1)

let rec far_down t last i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.far_size && before t t.far.(l) last then smallest := l;
  if
    r < t.far_size
    && before t t.far.(r) (if !smallest = i then last else t.far.(l))
  then smallest := r;
  if !smallest = i then t.far.(i) <- last
  else begin
    t.far.(i) <- t.far.(!smallest);
    far_down t last !smallest
  end

let far_pop t =
  let top = t.far.(0) in
  t.far_size <- t.far_size - 1;
  let last = t.far.(t.far_size) in
  t.far.(t.far_size) <- nil;
  if t.far_size > 0 then far_down t last 0;
  top

let insert t e =
  let time = t.etime.(e) in
  if t.size = 0 then t.cur <- time;
  t.size <- t.size + 1;
  if time >= t.cur + window then far_push t e else bucket_insert t e

let push t ~time ?(weight = 0) run =
  let e = alloc t ~time ~weight ~pid:(-1) ~v:0 in
  t.erun.(e) <- run;
  insert t e

let push_resume t ~time ~pid ~v = insert t (alloc t ~time ~weight:0 ~pid ~v)

exception Empty

let pop_exn t =
  if t.size = 0 then raise Empty;
  if t.in_window = 0 then
    (* everything pending is in the far heap: jump the cursor there *)
    t.cur <- t.etime.(t.far.(0));
  (* slide due far events into the window they now belong to *)
  while t.far_size > 0 && t.etime.(t.far.(0)) < t.cur + window do
    bucket_insert t (far_pop t)
  done;
  let s = next_occupied t (t.cur land mask) in
  (* absolute time of slot [s] in the window starting at [cur] *)
  t.cur <- t.cur + ((s - t.cur) land mask);
  let e = t.bhead.(s) in
  let next = t.enext.(e) in
  t.bhead.(s) <- next;
  if next = nil then begin
    t.btail.(s) <- nil;
    clear_occ t s
  end;
  t.in_window <- t.in_window - 1;
  t.size <- t.size - 1;
  t.pops <- t.pops + 1;
  let view = t.view in
  let pid = t.epid.(e) in
  view.time <- t.etime.(e);
  view.weight <- t.eweight.(e);
  view.seq <- t.eseq.(e);
  view.pid <- pid;
  view.v <- t.ev.(e);
  (* the one pointer store: made for a closure event, and for a resume
     event only when a closure event's thunk must be dropped *)
  if pid < 0 then view.run <- t.erun.(e)
  else if view.run != noop then view.run <- noop;
  (* the view holds the event now: its id is free for the next push *)
  t.enext.(e) <- t.free;
  t.free <- e;
  view

let pop t = if t.size = 0 then None else Some (pop_exn t)

(* every bucket, bitmap word and far-heap slot is already [nil] or 0
   once the queue is empty; what is left is the arena's ids, the
   counters, and the thunks: a kept thunk would pin the finished run's
   continuations for as long as the queue lives *)
let reset t =
  if t.size <> 0 then invalid_arg "Evq.reset: queue not empty";
  Array.fill t.erun 0 t.fresh noop;
  t.fresh <- 0;
  t.free <- nil;
  t.cur <- 0;
  t.next_seq <- 0;
  t.pops <- 0;
  t.view.run <- noop

let drain t f =
  while t.size > 0 do
    f (pop_exn t)
  done
