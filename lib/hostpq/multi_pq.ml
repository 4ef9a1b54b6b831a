let name = "multiqueue"

(* one slot: a sequential binary min-heap behind an Hlock, its minimum
   published in an Atomic for lock-free pick-2 comparison *)
type 'a slot = {
  lock : Hlock.t;
  top : int Atomic.t;  (* min priority present, or max_int *)
  heap : 'a Heap.t;
}

type 'a t = { slot_arr : 'a slot array; npriorities : int }

let slots t = Array.length t.slot_arr

let make_slot i =
  {
    lock = Hlock.create ~name:"multiqueue.slot" ~index:i ();
    top = Atomic.make max_int;
    heap = Heap.create ();
  }

let create_sized ~npriorities ~slots () =
  if npriorities <= 0 || slots <= 0 then invalid_arg "Multi_pq.create_sized";
  { slot_arr = Array.init slots make_slot; npriorities }

let create ~npriorities () =
  create_sized ~npriorities
    ~slots:(max 2 (2 * Domain.recommended_domain_count ()))
    ()

(* each domain picks from its own stream, so concurrent pickers spread
   over the slots without writing a shared word *)
let pick t = t.slot_arr.(Local_rand.next () mod Array.length t.slot_arr)

(* sequential heap ops under [s.lock], which they release *)

let publish s = Atomic.set s.top (Heap.min_key s.heap)

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
let rec insert_from t ~pri v n spin =
  let s = pick t in
  if Hlock.try_lock s.lock then locked_insert s ~pri v
  else if n >= pick_attempts then begin
    (* contended enough that waiting beats re-picking *)
    Hlock.lock s.lock;
    locked_insert s ~pri v
  end
  else
    let n = n + 1 in
    insert_from t ~pri v n (backoff "Multi_pq.insert" n spin)

let insert t ~pri v =
  if pri < 0 || pri >= t.npriorities then invalid_arg "Multi_pq.insert";
  insert_from t ~pri v 0 Retry.first

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
let rec delete_from t n spin =
  if n >= pick_attempts then
    scan t (Local_rand.next () mod Array.length t.slot_arr) 0
  else
    let a = pick t and b = pick t in
    let ta = Atomic.get a.top and tb = Atomic.get b.top in
    let n = n + 1 in
    if ta = max_int && tb = max_int then
      delete_from t n (backoff "Multi_pq.delete_min" n spin)
    else
      let s = if ta <= tb then a else b in
      if Hlock.try_lock s.lock then
        match locked_extract s with
        | Some _ as r -> r
        | None ->
            (* raced with another deleter; the pick is stale *)
            delete_from t n spin
      else delete_from t n (backoff "Multi_pq.delete_min" n spin)

let delete_min t = delete_from t 0 Retry.first

let length t =
  Array.fold_left
    (fun acc s ->
      Hlock.lock s.lock;
      let n = Heap.size s.heap in
      Hlock.unlock s.lock;
      acc + n)
    0 t.slot_arr
