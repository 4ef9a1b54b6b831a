let name = "multiqueue"

(* one slot: a sequential binary min-heap behind an Hlock, its minimum
   published in an Atomic for lock-free pick-2 comparison.  The three
   words written on every operation (the lock's state, [top] and the
   heap's record) each sit in a padded block of their own. *)
type 'a slot = {
  lock : Hlock.t;
  top : int Atomic.t;  (* min priority present, or max_int *)
  heap : 'a Heap.t;
}

(* [perm] maps positions to slots: a permutation of the slot indices
   whenever no swap is in flight, and [vacant] at a position whose swap
   is.  [seats] counts the seats taken; it is also the queue's tag in a
   domain's seat record, compared by physical equality. *)
type 'a t = {
  slot_arr : 'a slot array;
  perm : int Atomic.t array;
  seats : int Atomic.t;
  npriorities : int;
}

let vacant = -1
let slots t = Array.length t.slot_arr
let assignment t = Array.map Atomic.get t.perm

let make_slot i =
  {
    lock = Hlock.create_padded ~name:"multiqueue.slot" ~index:i ();
    top = Padded.copy (Atomic.make max_int);
    heap = Padded.copy (Heap.create ());
  }

let create_sized ~npriorities ~slots () =
  if npriorities <= 0 || npriorities > Heap.key_limit || slots <= 0 then
    invalid_arg "Multi_pq.create_sized";
  {
    slot_arr = Array.init slots make_slot;
    perm = Array.init slots (fun i -> Padded.copy (Atomic.make i));
    seats = Atomic.make 0;
    npriorities;
  }

let create ~npriorities () =
  create_sized ~npriorities
    ~slots:(max 2 (2 * Domain.recommended_domain_count ()))
    ()

(* Swapping stickiness, after Williams & Sanders' "Engineering
   MultiQueues": on its first call on a queue a domain takes a seat, and
   seat [k] owns positions [2k] and [2k + 1] of [perm] (modulo the slot
   count).  Inserts go to the slots at the owned positions, in turn, and
   deletes take the better of their two tops, so while there are two
   positions per domain no two domains' sticky slots meet.  Every
   [stickiness] calls the domain swaps one owned position's slot with a
   random position's, so every slot keeps being drained.  The seat is
   the domain's own, in [Domain.DLS], and [owner] is the [seats] word of
   the queue it was taken in: a domain that calls another queue takes a
   seat there, so it never indexes one queue by another's positions. *)
let stickiness = 16

type seat = {
  mutable owner : int Atomic.t;
  mutable own0 : int;
  mutable own1 : int;
  mutable calls : int;
}

let seat_key =
  Domain.DLS.new_key (fun () ->
      { owner = Atomic.make 0; own0 = 0; own1 = 0; calls = 0 })

(* the calling domain's seat in [t], taken on its first call there *)
let seat t =
  let st = Domain.DLS.get seat_key in
  if st.owner != t.seats then begin
    let k = Atomic.fetch_and_add t.seats 1 and n = Array.length t.perm in
    st.owner <- t.seats;
    st.own0 <- 2 * k mod n;
    st.own1 <- ((2 * k) + 1) mod n;
    st.calls <- 0
  end;
  st

(* each domain draws from its own stream, so concurrent pickers spread
   over the slots without writing a shared word *)
let draw t = Local_rand.next () mod Array.length t.slot_arr

(* The swap of owned position [i] with a random position [j], stated
   with its lost-update argument in DESIGN.md §5 for both this queue and
   the simulated MultiQueueSticky: CAS [i] from its slot [a] to
   [vacant], CAS [j] from the slot [b] read there to [a], then store [b]
   into [i], or [a] back if [j] was marked or moved. *)
let swap t i =
  let j = draw t in
  if j <> i then begin
    let pi = t.perm.(i) and pj = t.perm.(j) in
    let a = Atomic.get pi in
    if a <> vacant && Atomic.compare_and_set pi a vacant then begin
      let b = Atomic.get pj in
      Atomic.set pi
        (if b <> vacant && Atomic.compare_and_set pj b a then b else a)
    end
  end

(* count a call; every [stickiness]th swaps one owned position, the two
   in turn *)
let tick t st =
  let c = st.calls + 1 in
  st.calls <- c;
  if c land (stickiness - 1) = 0 then
    swap t (if c land stickiness = 0 then st.own0 else st.own1)

(* sequential heap ops under [s.lock], which they release *)

(* [top] changes only under the slot's lock, so reading it first spares
   the store (and its fence) whenever the minimum stayed put *)
let publish s =
  let m = Heap.min_key s.heap in
  if Atomic.get s.top <> m then Atomic.set s.top m

let locked_insert s ~pri v =
  Heap.push s.heap pri v;
  publish s;
  Hlock.unlock s.lock

let locked_extract s =
  let r = Heap.pop s.heap in
  publish s;
  Hlock.unlock s.lock;
  r

let pick_attempts = 8

(* a failed pick backs off; [n] counts the operation's attempts, and the
   budget is unbounded *)
let backoff op n spin = Retry.once ~max_attempts:max_int op ~failed:n spin

(* the slot at position [p], or a random one while [p] is mid-swap *)
let slot_at t p =
  let k = Atomic.get t.perm.(p) in
  t.slot_arr.(if k = vacant then draw t else k)

(* attempt [n] of an insert, into [s]; [spin] is the next failure's
   wait.  A busy slot is dropped for a random one. *)
let rec insert_into t s ~pri v n spin =
  if Hlock.try_lock s.lock then locked_insert s ~pri v
  else if n >= pick_attempts then begin
    (* contended enough that waiting beats re-picking *)
    Hlock.lock s.lock;
    locked_insert s ~pri v
  end
  else
    let n = n + 1 in
    insert_into t t.slot_arr.(draw t) ~pri v n
      (backoff "Multi_pq.insert" n spin)

let insert t ~pri v =
  if pri < 0 || pri >= t.npriorities then invalid_arg "Multi_pq.insert";
  let st = seat t in
  tick t st;
  (* the owned slots in turn by bit 1 of the call count, which turns
     every other insert both when inserts come in runs and when they
     alternate with deletes *)
  let p = if st.calls land 2 = 0 then st.own0 else st.own1 in
  insert_into t (slot_at t p) ~pri v 0 Retry.first

(* exhaustive fallback: only a blocking pass over every slot may answer
   None *)
let rec scan t start i =
  let nslots = Array.length t.slot_arr in
  if i >= nslots then None
  else
    let s = t.slot_arr.((start + i) mod nslots) in
    if Atomic.get s.top = max_int then scan t start (i + 1)
    else begin
      Hlock.lock s.lock;
      match locked_extract s with
      | Some _ as r -> r
      | None -> scan t start (i + 1)
    end

(* attempt [n] of a pick-2 delete, over [a] and [b]; [spin] is the next
   failure's wait.  When both read empty, the better one is busy, or
   the pick proved stale, the next attempt draws two random slots
   (independently, so they may be one slot), and after [pick_attempts]
   the scan answers. *)
let rec pick2 t a b n spin =
  let ta = Atomic.get a.top and tb = Atomic.get b.top in
  if ta = max_int && tb = max_int then
    redraw t n (backoff "Multi_pq.delete_min" n spin)
  else
    let s = if ta <= tb then a else b in
    if Hlock.try_lock s.lock then (
      match locked_extract s with
      | Some _ as r -> r
      | None ->
          (* raced with another deleter; the pick is stale *)
          redraw t n spin)
    else redraw t n (backoff "Multi_pq.delete_min" n spin)

and redraw t n spin =
  if n >= pick_attempts then scan t (draw t) 0
  else pick2 t t.slot_arr.(draw t) t.slot_arr.(draw t) (n + 1) spin

(* the owned pair is the first attempt *)
let delete_min t =
  let st = seat t in
  tick t st;
  pick2 t (slot_at t st.own0) (slot_at t st.own1) 1 Retry.first

let length t =
  Array.fold_left
    (fun acc s ->
      Hlock.lock s.lock;
      let n = Heap.size s.heap in
      Hlock.unlock s.lock;
      acc + n)
    0 t.slot_arr
