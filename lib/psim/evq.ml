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
     pids kept sorted by the full (time, weight, seq) key — the
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

   The engine keeps at most one pending event per processor, so an
   event lives in its processor's slot: parallel arrays indexed by pid
   hold its key ([etime], [eweight], [eseq]), its resume value [ev],
   its [ekind] and the bucket link [enext].  The bucket heads and tails
   and the far heap hold pids, so scheduling an event stores only
   immediates — no pointer store, hence no GC write barrier.  A slot is
   pending while its [eseq] is set and free while it is [nil]: [push]
   refuses a pid whose slot is pending, and [pop_exn] frees the slot
   as it copies the event into the queue's single view record, so the
   caller may read the popped event — and push that processor's next
   one — until the next pop.  The slot arrays, and the far heap with
   them, start empty and grow (at least doubling) to cover the highest
   pid pushed, so a queue holds about as many slots as the run has
   processors.

   A drained queue is reused rather than rebuilt: [reset] rewinds it to
   the state [create] returns, keeping its arrays.  The two 4,096-word
   bucket arrays go straight to the major heap, so a run that rebuilt
   them would leave 8,192 words of major-heap garbage behind.

   The pop order is the same strict total order (time, then weight,
   then seq; seq is unique) the old binary heap used, so any run
   driven through this queue is byte-identical to one driven through
   the heap — the golden-digest gates check exactly that.  The old
   heap survives as the QCheck reference model in test/test_psim.ml. *)

type kind = Resume | Check

type event = {
  mutable time : int;
  mutable weight : int;
  mutable seq : int;
  mutable pid : int;
  mutable v : int;
  mutable kind : kind;
}

(* window parameters: [window] must be a power of two, and [slot_words]
   32-bit occupancy words cover it *)
let window = 4096
let mask = window - 1
let slot_words = window / 32

(* the null pid: empty bucket or end of a chain; as an [eseq], a free
   slot *)
let nil = -1

let first_capacity = 8

type t = {
  (* the slots: processor [pid]'s pending event at index [pid] *)
  mutable etime : int array;
  mutable eweight : int array;
  mutable eseq : int array;
  mutable ev : int array;
  mutable ekind : kind array;
  mutable enext : int array;
  bhead : int array; (* bucket heads, [nil] when empty *)
  btail : int array;
  occ : int array; (* occupancy bitmap: bit (s land 31) of word (s lsr 5) *)
  occ_sum : int array; (* summary: bit w set iff occ.(w) <> 0 *)
  mutable cur : int; (* absolute-time cursor; never decreases while nonempty *)
  mutable in_window : int;
  mutable far : int array; (* binary heap of pids with time >= cur + window *)
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
    ev = [||];
    ekind = [||];
    enext = [||];
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
    view = { time = 0; weight = 0; seq = 0; pid = nil; v = 0; kind = Resume };
  }

let is_empty t = t.size = 0
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

let grow_array a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* widen every slot array to cover [pid]; slots keep their indices.  The
   far heap grows with them: it holds at most one entry per pending
   pid. *)
let grow t pid =
  let n = max (pid + 1) (max first_capacity (2 * Array.length t.etime)) in
  t.etime <- grow_array t.etime n 0;
  t.eweight <- grow_array t.eweight n 0;
  t.eseq <- grow_array t.eseq n nil;
  t.ev <- grow_array t.ev n 0;
  t.ekind <- grow_array t.ekind n Resume;
  t.enext <- grow_array t.enext n nil;
  t.far <- grow_array t.far n nil

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

(* far heap: plain binary min-heap of pids on the full key *)

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

let push t ~kind ~time ~weight ~pid ~v =
  if pid >= Array.length t.eseq then begin
    if pid < 0 then invalid_arg "Evq.push: negative pid";
    grow t pid
  end;
  if t.eseq.(pid) <> nil then invalid_arg "Evq.push: pid has a pending event";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.etime.(pid) <- time;
  t.eweight.(pid) <- weight;
  t.eseq.(pid) <- seq;
  t.ev.(pid) <- v;
  t.ekind.(pid) <- kind;
  t.enext.(pid) <- nil;
  if t.size = 0 then t.cur <- time;
  t.size <- t.size + 1;
  if time >= t.cur + window then far_push t pid else bucket_insert t pid

let push_resume t ~time ~pid ~v = push t ~kind:Resume ~time ~weight:0 ~pid ~v

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
  view.time <- t.etime.(e);
  view.weight <- t.eweight.(e);
  view.seq <- t.eseq.(e);
  view.pid <- e;
  view.v <- t.ev.(e);
  view.kind <- t.ekind.(e);
  (* the view holds the event now: the slot is free for the next push *)
  t.eseq.(e) <- nil;
  view

(* every bucket, bitmap word, far-heap slot and processor slot is
   already [nil] or 0 once the queue is empty; what is left is the
   counters *)
let reset t =
  if t.size <> 0 then invalid_arg "Evq.reset: queue not empty";
  t.cur <- 0;
  t.next_seq <- 0;
  t.pops <- 0
