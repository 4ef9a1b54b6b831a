open Pqsim

type config = {
  c : int;
  min_slots : int;
  stickiness : int;
  ins_buf : int;
  del_buf : int;
  pick_attempts : int;
}

let default =
  { c = 2; min_slots = 2; stickiness = 1; ins_buf = 0; del_buf = 0;
    pick_attempts = 4 }

type slot = { lock : Pqsync.Tas.t; pq : Slot.t }

type t = {
  slots : slot array;  (* host-immutable after setup *)
  nslots : int;
  stickiness : int;
  pick_attempts : int;
  (* per-processor stickiness state: one private word per processor, so
     only processor [pid] ever touches index [pid] *)
  ins_slot : int;  (* addr of nprocs words *)
  ins_left : int;
  del_a : int;
  del_b : int;
  del_left : int;
}

let nslots t = t.nslots

let rank_bound cfg ~nprocs =
  let slots = max cfg.min_slots (cfg.c * nprocs) in
  (slots * 8 * max 1 cfg.stickiness) + 64

let create ?(name = "MultiQueue") mem ~nprocs ~capacity cfg =
  if cfg.c < 1 || cfg.min_slots < 1 || cfg.stickiness < 1
     || cfg.pick_attempts < 1 || cfg.ins_buf < 0 || cfg.del_buf < 0
  then invalid_arg "Multiqueue.create: bad config";
  if nprocs < 1 || capacity < 1 then invalid_arg "Multiqueue.create";
  let nslots = max cfg.min_slots (cfg.c * nprocs) in
  (* proportional share with generous slack: random imbalance must not
     cause spurious rejections at benchmark scales *)
  let per_slot =
    min capacity (((capacity * 4) / nslots) + 32 + cfg.ins_buf + cfg.del_buf)
  in
  let slots =
    Array.init nslots (fun i ->
        {
          lock = Pqsync.Tas.create ~name:(Printf.sprintf "%s.lock%d" name i) mem;
          pq =
            Slot.create ~name:(Printf.sprintf "%s.slot%d" name i) mem
              ~cap:per_slot ~ins_cap:cfg.ins_buf ~del_cap:cfg.del_buf;
        })
  in
  let priv label =
    let a = Mem.alloc mem nprocs in
    Mem.label mem ~addr:a ~len:nprocs (name ^ "." ^ label);
    a
  in
  {
    slots;
    nslots;
    stickiness = cfg.stickiness;
    pick_attempts = cfg.pick_attempts;
    ins_slot = priv "sticky.ins";
    ins_left = priv "sticky.insleft";
    del_a = priv "sticky.a";
    del_b = priv "sticky.b";
    del_left = priv "sticky.left";
  }

(* ------------------------------------------------------------------ *)
(* insert *)

let pick_ins_slot t pid =
  if t.stickiness <= 1 then Api.rand t.nslots
  else begin
    let left = Api.read (t.ins_left + pid) in
    if left > 0 then begin
      Api.write (t.ins_left + pid) (left - 1);
      Api.read (t.ins_slot + pid)
    end
    else begin
      let s = Api.rand t.nslots in
      Api.write (t.ins_slot + pid) s;
      Api.write (t.ins_left + pid) (t.stickiness - 1);
      s
    end
  end

let reset_ins_sticky t pid =
  if t.stickiness > 1 then Api.write (t.ins_left + pid) 0

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

let insert t key =
  let pid = Api.self () in
  let rec go attempts s window =
    if Pqsync.Tas.try_acquire t.slots.(s).lock then begin
      let ok = Slot.insert t.slots.(s).pq key in
      Pqsync.Tas.release t.slots.(s).lock;
      if ok then true
      else begin
        reset_ins_sticky t pid;
        insert_scan t key 0 (s + 1)
      end
    end
    else begin
      reset_ins_sticky t pid;
      Api.count "mq.lock_fail" 1;
      if attempts >= t.pick_attempts then begin
        (* contended enough that waiting beats re-picking *)
        Pqsync.Tas.acquire t.slots.(s).lock;
        let ok = Slot.insert t.slots.(s).pq key in
        Pqsync.Tas.release t.slots.(s).lock;
        if ok then true else insert_scan t key 0 (s + 1)
      end
      else begin
        let window = Pqsync.Backoff.pause window in
        go (attempts + 1) (Api.rand t.nslots) window
      end
    end
  in
  go 0 (pick_ins_slot t pid) Pqsync.Backoff.first

(* ------------------------------------------------------------------ *)
(* delete_min *)

let pick_pair t pid =
  let fresh () =
    let a = Api.rand t.nslots in
    let b0 = if t.nslots < 2 then a else Api.rand (t.nslots - 1) in
    let b = if t.nslots < 2 then a else if b0 >= a then b0 + 1 else b0 in
    (a, b)
  in
  if t.stickiness <= 1 then fresh ()
  else begin
    let left = Api.read (t.del_left + pid) in
    if left > 0 then begin
      Api.write (t.del_left + pid) (left - 1);
      (Api.read (t.del_a + pid), Api.read (t.del_b + pid))
    end
    else begin
      let a, b = fresh () in
      Api.write (t.del_a + pid) a;
      Api.write (t.del_b + pid) b;
      Api.write (t.del_left + pid) (t.stickiness - 1);
      (a, b)
    end
  end

let reset_del_sticky t pid =
  if t.stickiness > 1 then Api.write (t.del_left + pid) 0

(* after the pick rounds ran dry: one full pass over every slot's
   published minimum; only after that pass may delete_min report empty *)
let rec delete_scan t i start =
  if i >= t.nslots then begin
    Api.count "mq.scan_empty" 1;
    None
  end
  else begin
    let s = t.slots.((start + i) mod t.nslots) in
    if Api.read (Slot.top_addr s.pq) <> Slot.empty_top then begin
      Pqsync.Tas.acquire s.lock;
      let r = Slot.extract s.pq in
      Pqsync.Tas.release s.lock;
      match r with
      | Some _ -> r
      | None -> delete_scan t (i + 1) start
    end
    else delete_scan t (i + 1) start
  end

let delete_min t =
  let pid = Api.self () in
  let rec go attempts window =
    if attempts >= t.pick_attempts then begin
      Api.count "mq.scan" 1;
      delete_scan t 0 (Api.rand t.nslots)
    end
    else begin
      let a, bs = pick_pair t pid in
      let ta = Api.read (Slot.top_addr t.slots.(a).pq) in
      let tb = Api.read (Slot.top_addr t.slots.(bs).pq) in
      if ta = Slot.empty_top && tb = Slot.empty_top then begin
        reset_del_sticky t pid;
        go (attempts + 1) window
      end
      else begin
        let s = if ta <= tb then a else bs in
        if Pqsync.Tas.try_acquire t.slots.(s).lock then begin
          let r = Slot.extract t.slots.(s).pq in
          Pqsync.Tas.release t.slots.(s).lock;
          match r with
          | Some _ -> r
          | None ->
              (* raced with another deleter; the pick is stale *)
              reset_del_sticky t pid;
              go (attempts + 1) window
        end
        else begin
          reset_del_sticky t pid;
          Api.count "mq.lock_fail" 1;
          go (attempts + 1) (Pqsync.Backoff.pause window)
        end
      end
    end
  in
  go 0 Pqsync.Backoff.first

(* ------------------------------------------------------------------ *)
(* host-side *)

let drain_now mem t =
  Array.to_list t.slots |> List.concat_map (fun s -> Slot.peek_all mem s.pq)

let check_now mem t =
  let rec go i =
    if i >= t.nslots then Ok ()
    else
      match Slot.check mem t.slots.(i).pq with
      | Ok () -> go (i + 1)
      | Error e -> Error (Printf.sprintf "slot %d: %s" i e)
  in
  go 0
