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

(* [tag] names the queue in a domain's sticky choice: a fresh block,
   compared by physical equality *)
type 'a t = { slot_arr : 'a slot array; npriorities : int; tag : unit ref }

let slots t = Array.length t.slot_arr

let make_slot i =
  {
    lock = Hlock.create_padded ~name:"multiqueue.slot" ~index:i ();
    top = Padded.copy (Atomic.make max_int);
    heap = Padded.copy (Heap.create ());
  }

let create_sized ~npriorities ~slots () =
  if npriorities <= 0 || slots <= 0 then invalid_arg "Multi_pq.create_sized";
  { slot_arr = Array.init slots make_slot; npriorities; tag = ref () }

let create ~npriorities () =
  create_sized ~npriorities
    ~slots:(max 2 (2 * Domain.recommended_domain_count ()))
    ()

(* A domain keeps its insert slot for [stickiness] inserts and its
   pick-2 pair for [stickiness] deletes, as Williams & Sanders'
   "Engineering MultiQueues" does, so two domains stop meeting on fresh
   random slots every call.  A choice is dropped at once when its lock
   is busy, when both slots of the pair read empty, or when the pick
   proved stale.  The choice is the domain's own, in [Domain.DLS], and
   [owner] is the tag of the queue it was drawn for: a domain that calls
   another queue drops it, so it never indexes one queue by a choice
   drawn for another's slot count. *)
let stickiness = 16

type sticky = {
  mutable owner : unit ref;
  mutable ins : int;
  mutable ins_left : int;
  mutable del_a : int;
  mutable del_b : int;
  mutable del_left : int;
}

let sticky_key =
  Domain.DLS.new_key (fun () ->
      {
        owner = ref ();
        ins = 0;
        ins_left = 0;
        del_a = 0;
        del_b = 0;
        del_left = 0;
      })

(* the calling domain's choice, dropped if drawn for another queue *)
let sticky t =
  let st = Domain.DLS.get sticky_key in
  if st.owner != t.tag then begin
    st.owner <- t.tag;
    st.ins_left <- 0;
    st.del_left <- 0
  end;
  st

(* each domain draws from its own stream, so concurrent pickers spread
   over the slots without writing a shared word *)
let draw t = Local_rand.next () mod Array.length t.slot_arr

let pick_ins t st =
  if st.ins_left > 0 then st.ins_left <- st.ins_left - 1
  else begin
    st.ins <- draw t;
    st.ins_left <- stickiness - 1
  end;
  t.slot_arr.(st.ins)

(* two independent draws, which may name one slot twice.  Drawing two
   distinct slots cut the hold mix's mean rank by half but left two
   domains slower than one (EXPERIMENTS.md, stickyhost). *)
let pick_pair t st =
  if st.del_left > 0 then st.del_left <- st.del_left - 1
  else begin
    st.del_a <- draw t;
    st.del_b <- draw t;
    st.del_left <- stickiness - 1
  end

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

(* attempt [n] of an insert; [spin] is the next failure's wait *)
let rec insert_from t st ~pri v n spin =
  let s = pick_ins t st in
  if Hlock.try_lock s.lock then locked_insert s ~pri v
  else begin
    st.ins_left <- 0;
    if n >= pick_attempts then begin
      (* contended enough that waiting beats re-picking *)
      Hlock.lock s.lock;
      locked_insert s ~pri v
    end
    else
      let n = n + 1 in
      insert_from t st ~pri v n (backoff "Multi_pq.insert" n spin)
  end

let insert t ~pri v =
  if pri < 0 || pri >= t.npriorities then invalid_arg "Multi_pq.insert";
  insert_from t (sticky t) ~pri v 0 Retry.first

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

(* attempt [n] of a pick-2 delete; [spin] is the next failure's wait *)
let rec delete_from t st n spin =
  if n >= pick_attempts then scan t (draw t) 0
  else begin
    pick_pair t st;
    let a = t.slot_arr.(st.del_a) and b = t.slot_arr.(st.del_b) in
    let ta = Atomic.get a.top and tb = Atomic.get b.top in
    let n = n + 1 in
    if ta = max_int && tb = max_int then begin
      st.del_left <- 0;
      delete_from t st n (backoff "Multi_pq.delete_min" n spin)
    end
    else
      let s = if ta <= tb then a else b in
      if Hlock.try_lock s.lock then (
        match locked_extract s with
        | Some _ as r -> r
        | None ->
            (* raced with another deleter; the pick is stale *)
            st.del_left <- 0;
            delete_from t st n spin)
      else begin
        st.del_left <- 0;
        delete_from t st n (backoff "Multi_pq.delete_min" n spin)
      end
  end

let delete_min t = delete_from t (sticky t) 0 Retry.first

let length t =
  Array.fold_left
    (fun acc s ->
      Hlock.lock s.lock;
      let n = Heap.size s.heap in
      Hlock.unlock s.lock;
      acc + n)
    0 t.slot_arr
