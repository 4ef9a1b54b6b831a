open Pqsim

(* A slot is an exact sequential priority queue: a Seqheap plus optional
   insertion/deletion buffers, all in simulated memory.  The ordering
   invariant — every key in the heap or insertion buffer >= every key in
   the deletion buffer — makes the deletion-buffer front the slot
   minimum whenever that buffer is nonempty.  [top] publishes the slot
   minimum for lock-free pick-2 comparison. *)

let empty_top = max_int

type t = {
  heap : Pqstruct.Seqheap.t;
  top : int;  (* addr: current minimum key, or [empty_top] *)
  cap : int;  (* total element bound (heap + buffers) *)
  buf : int;  (* each buffer's capacity, 0 when unbuffered *)
  ins_buf : int;  (* addr of [buf] words *)
  ins_len : int;  (* addr *)
  del_buf : int;  (* addr of [buf] words, ascending *)
  del_head : int;  (* addr: index of the buffer front *)
  del_len : int;  (* addr *)
}

let create ?name mem ~cap ~buf =
  if cap < 1 || buf < 0 then invalid_arg "Slot.create";
  let heap = Pqstruct.Seqheap.create ?name mem ~cap in
  let top = Mem.alloc mem 1 in
  Mem.poke mem top empty_top;
  (* the published minimum is an optimistic pre-check word: plain reads
     of it are synchronization, like the other queues' emptiness tests *)
  Mem.declare_sync mem ~addr:top ~len:1;
  (match name with
  | Some n -> Mem.label mem ~addr:top ~len:1 (Field (n, "top"))
  | None -> ());
  let ins_buf = if buf > 0 then Mem.alloc mem buf else 0 in
  let ins_len = if buf > 0 then Mem.alloc mem 1 else 0 in
  let del_buf = if buf > 0 then Mem.alloc mem buf else 0 in
  let del_head = if buf > 0 then Mem.alloc mem 1 else 0 in
  let del_len = if buf > 0 then Mem.alloc mem 1 else 0 in
  (match name with
  | Some n when buf > 0 ->
      Mem.label mem ~addr:ins_buf ~len:buf (Field (n, "insbuf"));
      Mem.label mem ~addr:ins_len ~len:1 (Field (n, "inslen"));
      Mem.label mem ~addr:del_buf ~len:buf (Field (n, "delbuf"));
      Mem.label mem ~addr:del_head ~len:1 (Field (n, "delhead"));
      Mem.label mem ~addr:del_len ~len:1 (Field (n, "dellen"))
  | _ -> ());
  { heap; top; cap; buf; ins_buf; ins_len; del_buf; del_head; del_len }

let top_addr t = t.top

let size t =
  Pqstruct.Seqheap.size t.heap
  + (if t.buf > 0 then Api.read t.ins_len else 0)
  + if t.buf > 0 then Api.read t.del_len else 0

(* heap capacity equals the slot capacity, so once [size t < cap] holds a
   heap insert cannot be rejected *)
let heap_insert t key =
  if not (Pqstruct.Seqheap.insert t.heap key) then
    invalid_arg "Slot: heap rejected an in-capacity insert"

let flush_ins t =
  if t.buf > 0 then begin
    let il = Api.read t.ins_len in
    if il > 0 then begin
      for k = 0 to il - 1 do
        heap_insert t (Api.read (t.ins_buf + k))
      done;
      Api.write t.ins_len 0
    end
  end

(* route a key to the insertion buffer (flushing a full one) or, when
   unbuffered, straight to the heap *)
let push_back t key =
  if t.buf > 0 then begin
    let il = Api.read t.ins_len in
    if il < t.buf then begin
      Api.write (t.ins_buf + il) key;
      Api.write t.ins_len (il + 1)
    end
    else begin
      flush_ins t;
      Api.write t.ins_buf key;
      Api.write t.ins_len 1
    end
  end
  else heap_insert t key

(* slide the deletion buffer's live block to index 0 so sorted inserts
   never run off the array end *)
let compact_del t =
  let head = Api.read t.del_head in
  if head > 0 then begin
    let dl = Api.read t.del_len in
    for k = 0 to dl - 1 do
      Api.write (t.del_buf + k) (Api.read (t.del_buf + head + k))
    done;
    Api.write t.del_head 0
  end

(* shift keys greater than [key] one place up, from index [i] down, and
   drop [key] into the gap *)
let rec shift t key i =
  if i >= 0 then begin
    let v = Api.read (t.del_buf + i) in
    if v > key then begin
      Api.write (t.del_buf + i + 1) v;
      shift t key (i - 1)
    end
    else Api.write (t.del_buf + i + 1) key
  end
  else Api.write t.del_buf key

(* sorted insert into the (compacted) deletion buffer; the largest
   element is evicted to the back queues when the buffer is full *)
let del_buf_insert t key =
  compact_del t;
  let dl = Api.read t.del_len in
  let evict = dl = t.buf in
  let stop = if evict then dl - 2 else dl - 1 in
  (if evict then
     let last = Api.read (t.del_buf + dl - 1) in
     push_back t last);
  shift t key stop;
  if not evict then Api.write t.del_len (dl + 1)

(* the least of [m] and the insertion buffer's keys from [k] to [il] *)
let rec ins_min t il k m =
  if k >= il then m else ins_min t il (k + 1) (min m (Api.read (t.ins_buf + k)))

let refresh_top t =
  let dl = if t.buf > 0 then Api.read t.del_len else 0 in
  let m =
    if dl > 0 then Api.read (t.del_buf + Api.read t.del_head)
    else begin
      let m0 =
        let v = Pqstruct.Seqheap.peek_min t.heap in
        if v = Pqstruct.Seqheap.none then empty_top else v
      in
      if t.buf > 0 then ins_min t (Api.read t.ins_len) 0 m0 else m0
    end
  in
  Api.write t.top m

let insert t key =
  if key >= empty_top then invalid_arg "Slot.insert: key out of range";
  if size t >= t.cap then false
  else begin
    (if t.buf > 0 then begin
       let dl = Api.read t.del_len in
       if dl > 0 then begin
         let head = Api.read t.del_head in
         let last = Api.read (t.del_buf + head + dl - 1) in
         if key < last then del_buf_insert t key else push_back t key
       end
       else push_back t key
     end
     else push_back t key);
    refresh_top t;
    true
  end

(* move the heap's smallest keys into the deletion buffer from index [k]
   until it is full or the heap is empty; the count moved so far *)
let rec refill t k =
  if k >= t.buf then k
  else
    let v = Pqstruct.Seqheap.extract_min t.heap in
    if v = Pqstruct.Seqheap.none then k
    else begin
      Api.write (t.del_buf + k) v;
      refill t (k + 1)
    end

let extract t =
  let r =
    if t.buf > 0 then begin
      let dl = Api.read t.del_len in
      if dl > 0 then begin
        let head = Api.read t.del_head in
        let v = Api.read (t.del_buf + head) in
        Api.write t.del_len (dl - 1);
        if dl = 1 then Api.write t.del_head 0
        else Api.write t.del_head (head + 1);
        v
      end
      else begin
        (* refill: everything buffered joins the heap, then the heap's
           [buf] smallest move into the buffer *)
        flush_ins t;
        let n = refill t 0 in
        if n = 0 then empty_top
        else begin
          let v = Api.read t.del_buf in
          Api.write t.del_head 1;
          Api.write t.del_len (n - 1);
          if n = 1 then Api.write t.del_head 0;
          v
        end
      end
    end
    else begin
      flush_ins t;
      let v = Pqstruct.Seqheap.extract_min t.heap in
      if v = Pqstruct.Seqheap.none then empty_top else v
    end
  in
  refresh_top t;
  r

(* ------------------------------------------------------------------ *)
(* host-side verification *)

let peek_all mem t =
  let heap = Pqstruct.Seqheap.peek_list mem t.heap in
  let ins =
    if t.buf > 0 then
      List.init (Mem.peek mem t.ins_len) (fun k -> Mem.peek mem (t.ins_buf + k))
    else []
  in
  let del =
    if t.buf > 0 then
      let head = Mem.peek mem t.del_head in
      List.init (Mem.peek mem t.del_len) (fun k ->
          Mem.peek mem (t.del_buf + head + k))
    else []
  in
  heap @ ins @ del

let check mem t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let heap = Array.of_list (Pqstruct.Seqheap.peek_list mem t.heap) in
  let il = if t.buf > 0 then Mem.peek mem t.ins_len else 0 in
  let dl = if t.buf > 0 then Mem.peek mem t.del_len else 0 in
  let head = if t.buf > 0 then Mem.peek mem t.del_head else 0 in
  let del = List.init dl (fun k -> Mem.peek mem (t.del_buf + head + k)) in
  let ins = List.init il (fun k -> Mem.peek mem (t.ins_buf + k)) in
  let total = Array.length heap + il + dl in
  let bad_heap =
    Array.to_seqi heap
    |> Seq.find (fun (i, v) -> i > 0 && heap.((i - 1) / 2) > v)
  in
  if total > t.cap then err "slot over capacity (%d > %d)" total t.cap
  else if il > t.buf then err "insertion buffer overflow"
  else if dl < 0 || head < 0 || head + dl > t.buf then
    err "deletion buffer indices out of range (head %d len %d)" head dl
  else
    match bad_heap with
    | Some (i, _) -> err "heap violation at %d" i
    | None ->
        if del <> List.sort compare del then err "deletion buffer unsorted"
        else begin
          let del_max =
            List.fold_left max min_int del (* min_int when empty *)
          in
          let back_min =
            List.fold_left min empty_top
              (Array.to_list heap @ ins)
          in
          if dl > 0 && back_min < del_max then
            err "ordering invariant broken (heap/ins %d < del max %d)"
              back_min del_max
          else
            let want =
              if dl > 0 then List.hd del
              else if total = 0 then empty_top
              else back_min
            in
            let top = Mem.peek mem t.top in
            if top <> want then err "published top %d, true minimum %d" top want
            else Ok ()
        end
