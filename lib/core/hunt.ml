open Pqsim

let tag_empty = 0
let tag_avail = 1
let tag_of_pid pid = pid + 2

(* Heap slots fill in bit-reversed order within each level, so the i-th
   insertion's bubble-up path is disjoint from the (i+1)-th's. *)
let bitrev_slot n =
  let rec log2 v acc = if v <= 1 then acc else log2 (v / 2) (acc + 1) in
  let k = log2 n 0 in
  let path = n - (1 lsl k) in
  let rec rev i acc b =
    if i = 0 then acc else rev (i - 1) ((acc lsl 1) lor (b land 1)) (b lsr 1)
  in
  (1 lsl k) + rev k 0 path

type h = {
  heap_lock : Pqsync.Mcs.t;
  size_a : int;
  locks : Pqsync.Mcs.t array; (* index 1..cap *)
  tags : int; (* base: tags + i *)
  items : int;
  cap : int;
}

let node_acquire h i = Pqsync.Mcs.acquire h.locks.(i)
let node_release h i = Pqsync.Mcs.release h.locks.(i)
let tag h i = h.tags + i
let item h i = h.items + i

let set_tag h i v = Api.write (tag h i) v

let make mem (p : Pq_intf.params) =
  let cap = p.capacity in
  let size_a = Mem.alloc mem 1 in
  let locks =
    Pqsync.Mcs.create_array ~name:"HuntEtAl.node_lock" mem ~nprocs:p.nprocs
      (cap + 1)
  in
  let tags = Mem.alloc mem (cap + 1) in
  let items = Mem.alloc mem (cap + 1) in
  Mem.label mem ~addr:size_a ~len:1 "HuntEtAl.size";
  Mem.label mem ~addr:tags ~len:(cap + 1) "HuntEtAl.tags";
  Mem.label mem ~addr:items ~len:(cap + 1) "HuntEtAl.items";
  {
    heap_lock = Pqsync.Mcs.create ~name:"HuntEtAl.heap_lock" mem ~nprocs:p.nprocs;
    size_a;
    locks;
    tags;
    items;
    cap;
  }

let insert h key =
  let my = tag_of_pid (Api.self ()) in
  Pqsync.Mcs.acquire h.heap_lock;
  let sz = Api.read h.size_a in
  if sz >= h.cap then begin
    Pqsync.Mcs.release h.heap_lock;
    false
  end
  else begin
    let i0 = bitrev_slot (sz + 1) in
    Api.write h.size_a (sz + 1);
    node_acquire h i0;
    Pqsync.Mcs.release h.heap_lock;
    Api.write (item h i0) key;
    set_tag h i0 my;
    node_release h i0;
    (* bubble up, chasing the item by tag if a sift-down moved it *)
    let i = ref i0 in
    while !i > 1 do
      let parent = !i / 2 in
      node_acquire h parent;
      node_acquire h !i;
      let tp = Api.read (tag h parent) and ti = Api.read (tag h !i) in
      let next =
        if tp = tag_avail && ti = my then begin
          if Api.read (item h !i) < Api.read (item h parent) then begin
            (* swap items and tags: our item climbs *)
            let ip = Api.read (item h parent) and ii = Api.read (item h !i) in
            Api.write (item h parent) ii;
            Api.write (item h !i) ip;
            set_tag h parent my;
            set_tag h !i tp;
            parent
          end
          else begin
            set_tag h !i tag_avail;
            0
          end
        end
        else if tp = tag_empty then 0 (* our item was consumed by a delete *)
        else if ti <> my then parent (* a sift-down carried our item up *)
        else !i (* parent is another in-flight insert: wait and retry *)
      in
      node_release h !i;
      node_release h parent;
      i := next
    done;
    if !i = 1 then begin
      node_acquire h 1;
      if Api.read (tag h 1) = my then set_tag h 1 tag_avail;
      node_release h 1
    end;
    true
  end

(* what [delete_min] answers for an empty heap: items are Elem-packed,
   so never negative *)
let none = -1

(* Sift down from node [j], whose lock the caller holds, and release the
   lock of the node the item settles in.  The three steps recurse at top
   level with every operand an argument, so a sift allocates nothing:
   [right] and [settle] carry the candidate child [c] (0 when there is
   none) and its item [ci]. *)
let rec sift_down h j =
  let l = 2 * j in
  if l > h.cap then node_release h j
  else begin
    node_acquire h l;
    if Api.read (tag h l) = tag_empty then begin
      node_release h l;
      right h j 0 0
    end
    else right h j l (Api.read (item h l))
  end

and right h j c ci =
  let r = (2 * j) + 1 in
  if r > h.cap then settle h j c ci
  else begin
    node_acquire h r;
    if Api.read (tag h r) = tag_empty then begin
      node_release h r;
      settle h j c ci
    end
    else begin
      let ri = Api.read (item h r) in
      if c <> 0 && ci <= ri then begin
        node_release h r;
        settle h j c ci
      end
      else begin
        (* with no candidate, the left child's lock was already dropped
           when its tag read empty; releasing it again would unlock a
           later holder's acquisition and strand their successor *)
        if c <> 0 then node_release h c;
        settle h j r ri
      end
    end
  end

and settle h j c ci =
  if c = 0 then node_release h j
  else if Api.read (item h j) <= ci then begin
    node_release h c;
    node_release h j
  end
  else begin
    (* our (available) item moves down; c's item and tag climb *)
    let jt = Api.read (tag h j) and ji = Api.read (item h j) in
    Api.write (item h j) ci;
    set_tag h j (Api.read (tag h c));
    Api.write (item h c) ji;
    set_tag h c jt;
    node_release h j;
    sift_down h c
  end

let delete_min h =
  Pqsync.Mcs.acquire h.heap_lock;
  let sz = Api.read h.size_a in
  if sz = 0 then begin
    Pqsync.Mcs.release h.heap_lock;
    none
  end
  else begin
    Api.write h.size_a (sz - 1);
    node_acquire h 1;
    let save = Api.read (item h 1) in
    if sz = 1 then begin
      set_tag h 1 tag_empty;
      node_release h 1;
      Pqsync.Mcs.release h.heap_lock;
      save
    end
    else begin
      let last = bitrev_slot sz in
      node_acquire h last;
      Api.write (item h 1) (Api.read (item h last));
      set_tag h 1 tag_avail;
      set_tag h last tag_empty;
      node_release h last;
      Pqsync.Mcs.release h.heap_lock;
      sift_down h 1;
      save
    end
  end

let create mem (p : Pq_intf.params) =
  let h = make mem p in
  let insert ~pri ~payload = insert h (Pqstruct.Elem.pack ~pri ~payload) in
  let delete_min () =
    let e = delete_min h in
    if e = none then None
    else Some (Pqstruct.Elem.pri e, Pqstruct.Elem.payload e)
  in
  let drain_now mem =
    let out = ref [] in
    for i = 1 to h.cap do
      if Mem.peek mem (tag h i) <> tag_empty then begin
        let e = Mem.peek mem (item h i) in
        out := (Pqstruct.Elem.pri e, Pqstruct.Elem.payload e) :: !out
      end
    done;
    !out
  in
  let check_now mem =
    (* at quiescence: no processor tags remain; element count matches the
       size word; the heap property holds between non-empty neighbours *)
    let err = ref (Ok ()) in
    let count = ref 0 in
    for i = 1 to h.cap do
      let t = Mem.peek mem (tag h i) in
      if t <> tag_empty then incr count;
      if t >= 2 then err := Error (Printf.sprintf "leftover pid tag at %d" i);
      if i > 1 && t <> tag_empty then begin
        let parent = i / 2 in
        if
          Mem.peek mem (tag h parent) <> tag_empty
          && Mem.peek mem (item h parent) > Mem.peek mem (item h i)
        then err := Error (Printf.sprintf "heap violation at %d" i)
      end
    done;
    if !count <> Mem.peek mem h.size_a then
      err := Error "size word does not match element count";
    !err
  in
  {
    Pq_intf.name = "HuntEtAl";
    npriorities = p.npriorities;
    insert;
    delete_min;
    drain_now;
    check_now;
  }

module For_tests = struct
  let bitrev_slot = bitrev_slot
end
