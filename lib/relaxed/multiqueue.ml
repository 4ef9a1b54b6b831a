open Pqsim

type config = { c : int; stickiness : int; buf : int }

let default = { c = 2; stickiness = 1; buf = 0 }

(* the slot-count floor, for tiny [nprocs], and the try-lock/pick rounds
   before a delete falls back to the full scan and an insert to a
   blocking acquire *)
let min_slots = 2
let pick_attempts = 4

type slot = { lock : Pqsync.Tas.t; pq : Slot.t }

let empty = Slot.empty_top

(* what a position of [perm] holds while a swap of it is in flight *)
let vacant = -1

type t = {
  slots : slot array;  (* host-immutable after setup *)
  nslots : int;
  stickiness : int;
  (* swapping stickiness (DESIGN.md §5), both 0 when [stickiness = 1]:
     [perm] is the addr of [nslots] words mapping positions to slots,
     [calls] of one call count per processor, touched only by it *)
  perm : int;
  calls : int;
}

let nslots t = t.nslots

let rank_bound cfg ~nprocs =
  let slots = max min_slots (cfg.c * nprocs) in
  (slots * 8 * max 1 cfg.stickiness) + 64

let create ?(name = Mem.Root "MultiQueue") mem ~nprocs ~capacity cfg =
  if cfg.c < 1 || cfg.stickiness < 1 || cfg.buf < 0 then
    invalid_arg "Multiqueue.create: bad config";
  if nprocs < 1 || capacity < 1 then invalid_arg "Multiqueue.create";
  let nslots = max min_slots (cfg.c * nprocs) in
  (* proportional share with generous slack: random imbalance must not
     cause spurious rejections at benchmark scales *)
  let per_slot =
    min capacity (((capacity * 4) / nslots) + 32 + (2 * cfg.buf))
  in
  let slots =
    Array.init nslots (fun i ->
        {
          lock = Pqsync.Tas.create ~name:(Numbered (name, "lock", i)) mem;
          pq =
            Slot.create ~name:(Numbered (name, "slot", i)) mem ~cap:per_slot
              ~buf:cfg.buf;
        })
  in
  let words label len =
    if cfg.stickiness = 1 then 0
    else begin
      let a = Mem.alloc mem len in
      Mem.label mem ~addr:a ~len (Field (name, label));
      a
    end
  in
  let perm = words "perm" nslots in
  let calls = words "calls" nprocs in
  if perm <> 0 then begin
    for p = 0 to nslots - 1 do
      Mem.poke mem (perm + p) p
    done;
    (* read optimistically and swapped by CAS, like a lock word *)
    Mem.declare_sync mem ~addr:perm ~len:nslots
  end;
  { slots; nslots; stickiness = cfg.stickiness; perm; calls }

(* ------------------------------------------------------------------ *)
(* swapping stickiness: processor [pid] owns positions [2 pid] and
   [2 pid + 1] of [perm] (mod the slot count) *)

let own t pid k = ((2 * pid) + k) mod t.nslots

(* the slot at position [p], or a random one while [p] is mid-swap *)
let slot_at t p =
  let s = Api.read (t.perm + p) in
  if s = vacant then Api.rand t.nslots else s

(* The swap of owned position [i] with a random position [j], stated
   with its lost-update argument in DESIGN.md §5 for both this queue and
   the host's Multi_pq: CAS [i] from its slot [a] to [vacant], CAS [j]
   from the slot [b] read there to [a], then store [b] into [i], or [a]
   back if [j] was marked or moved *)
let swap t i =
  let j = Api.rand t.nslots in
  if j <> i then begin
    let a = Api.read (t.perm + i) in
    if a <> vacant && Api.cas (t.perm + i) ~expected:a ~desired:vacant then begin
      let b = Api.read (t.perm + j) in
      Api.write (t.perm + i)
        (if b <> vacant && Api.cas (t.perm + j) ~expected:b ~desired:a then b
         else a)
    end
  end

(* count a call of [pid]; every [stickiness]th swaps one owned position,
   the two in turn.  The new count. *)
let tick t pid =
  let c = Api.read (t.calls + pid) + 1 in
  Api.write (t.calls + pid) c;
  if c mod t.stickiness = 0 then swap t (own t pid ((c / t.stickiness) land 1));
  c

(* every failed try-lock counts; a sticky queue's first attempt is the
   owned pick *)
let lock_fail t attempts =
  Api.count "mq.lock_fail" 1;
  if attempts = 0 && t.perm <> 0 then Api.count "mq.owned_lock_fail" 1

(* ------------------------------------------------------------------ *)
(* insert *)

(* exhaustive fallback once the picked slot rejected the key: only a
   full pass over every slot may declare the queue full *)
let rec insert_scan t key i n =
  if i >= t.nslots then begin
    Api.count "mq.insert_full" n;
    false
  end
  else begin
    let s = t.slots.((n + i) mod t.nslots) in
    Pqsync.Tas.acquire s.lock;
    let ok = Slot.insert s.pq key in
    Pqsync.Tas.release s.lock;
    if ok then true else insert_scan t key (i + 1) n
  end

(* the insert into slot [s], whose lock is held; a full slot sends the
   key to the scan *)
let locked_insert t key s =
  let ok = Slot.insert t.slots.(s).pq key in
  Pqsync.Tas.release t.slots.(s).lock;
  ok || insert_scan t key 0 (s + 1)

(* try-lock rounds from slot [s]; top level, with every operand an
   argument, so an insert allocates no closure *)
let rec insert_at t key attempts s window =
  if Pqsync.Tas.try_acquire t.slots.(s).lock then locked_insert t key s
  else begin
    lock_fail t attempts;
    if attempts >= pick_attempts then begin
      (* contended enough that waiting beats re-picking *)
      Pqsync.Tas.acquire t.slots.(s).lock;
      locked_insert t key s
    end
    else begin
      let window = Pqsync.Backoff.pause window in
      insert_at t key (attempts + 1) (Api.rand t.nslots) window
    end
  end

(* a sticky insert takes the owned slots in turn, by bit 1 of the call
   count, as the host's does *)
let insert t key =
  let s =
    if t.perm = 0 then Api.rand t.nslots
    else
      let pid = Api.self () in
      let c = tick t pid in
      slot_at t (own t pid ((c lsr 1) land 1))
  in
  insert_at t key 0 s Pqsync.Backoff.first

(* ------------------------------------------------------------------ *)
(* delete_min *)

(* after the pick rounds ran dry: one full pass over every slot's
   published minimum; only after that pass may delete_min report empty *)
let rec delete_scan t i start =
  if i >= t.nslots then begin
    Api.count "mq.scan_empty" 1;
    empty
  end
  else begin
    let s = t.slots.((start + i) mod t.nslots) in
    if Api.read (Slot.top_addr s.pq) <> Slot.empty_top then begin
      Pqsync.Tas.acquire s.lock;
      let r = Slot.extract s.pq in
      Pqsync.Tas.release s.lock;
      if r <> empty then r else delete_scan t (i + 1) start
    end
    else delete_scan t (i + 1) start
  end

(* attempt [attempts] on two fresh distinct random slots, or the scan *)
let rec delete_from t attempts window =
  if attempts >= pick_attempts then begin
    Api.count "mq.scan" 1;
    delete_scan t 0 (Api.rand t.nslots)
  end
  else begin
    let a = Api.rand t.nslots in
    let b = Api.rand (t.nslots - 1) in
    delete_pair t a (if b >= a then b + 1 else b) attempts window
  end

(* pick-2 over slots [a] and [b]: extract from the smaller published
   minimum *)
and delete_pair t a b attempts window =
  let ta = Api.read (Slot.top_addr t.slots.(a).pq) in
  let tb = Api.read (Slot.top_addr t.slots.(b).pq) in
  if ta = Slot.empty_top && tb = Slot.empty_top then
    delete_from t (attempts + 1) window
  else begin
    let s = if ta <= tb then a else b in
    if Pqsync.Tas.try_acquire t.slots.(s).lock then begin
      let r = Slot.extract t.slots.(s).pq in
      Pqsync.Tas.release t.slots.(s).lock;
      (* an empty answer: raced with another deleter; the pick is stale *)
      if r <> empty then r else delete_from t (attempts + 1) window
    end
    else begin
      lock_fail t attempts;
      delete_from t (attempts + 1) (Pqsync.Backoff.pause window)
    end
  end

(* a sticky delete's first pair is the owned pair *)
let delete_min t =
  if t.perm = 0 then delete_from t 0 Pqsync.Backoff.first
  else begin
    let pid = Api.self () in
    ignore (tick t pid);
    let a = slot_at t (own t pid 0) in
    delete_pair t a (slot_at t (own t pid 1)) 0 Pqsync.Backoff.first
  end

(* ------------------------------------------------------------------ *)
(* host-side *)

let drain_now mem t =
  Array.to_list t.slots |> List.concat_map (fun s -> Slot.peek_all mem s.pq)

(* at quiescence no swap is in flight, so [perm] is a permutation *)
let check_perm mem t =
  if t.perm = 0 then Ok ()
  else
    let held = List.init t.nslots (fun p -> Mem.peek mem (t.perm + p)) in
    if List.sort compare held = List.init t.nslots Fun.id then Ok ()
    else
      Error
        ("perm is not a permutation: "
        ^ String.concat " " (List.map string_of_int held))

let check_now mem t =
  let rec go i =
    if i >= t.nslots then check_perm mem t
    else
      match Slot.check mem t.slots.(i).pq with
      | Ok () -> go (i + 1)
      | Error e -> Error (Printf.sprintf "slot %d: %s" i e)
  in
  go 0
