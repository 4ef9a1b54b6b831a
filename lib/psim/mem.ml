(* Flat memory model over demand-zero pages.  Addresses are small dense
   integers handed out by [alloc]; every per-line side table (data,
   directory busy-until, reader set, queueing delay, last writer,
   spin-waiter chain) is a flat table indexed by line.  The hot paths
   (read hit test, invalidation, directory service, last-writer
   tracking) are plain loads and stores.

   Side tables are mmap-backed bigarrays of a large fixed virtual
   reservation (private mappings of /dev/zero) rather than OCaml arrays:
   simulated structures preallocate generously — a tree of bins sized
   for the worst case puts hundreds of millions of words behind one
   1024-processor run — and with eager arrays such runs used to spend
   most of their wall clock zero-filling and re-zero-filling side tables
   across capacity doublings.  In a demand-zero reservation untouched
   lines cost no host memory: the kernel materializes a zeroed page the
   first time a line's entry is written, there is no growth copy, and
   integer stores into bigarrays skip the GC write barrier.

   Reservations are reused.  Mapping seven tables and faulting their
   pages in again costs a short run more than it simulates, and the
   paper's figures are sweeps of short runs.  So [create] takes the
   reservation of a memory the GC has found dead before it maps a new
   one, and zeroes that reservation's tables over [0, extent): the
   reservation's {e extent} is one past the highest line any access path
   has written (allocating a line does not write it).  Every path that
   writes a table goes through [touch] or [extend], which grow the
   extent or raise past the reservation, so no line beyond the extent is
   ever non-zero and a reused table reads zero wherever a fresh one
   would.  A memory whose extent passes [pool_max_extent] lines leaves
   the registry at once, so its reservation goes back to the kernel when
   the memory dies: a structure sized for scale-1k keeps its demand-zero
   behaviour, and no reuse zeroes more than 2 MiB per table.

   The registry pairs each reservation with a weak pointer to a block
   only the memory using it points to; a cleared pointer marks the
   reservation free.  The GC clears the pointer without running any
   code, so nothing is added to the run that happens to be in progress
   when a memory dies, and the registry is touched only by [create] and
   [extend], under one lock, on any domain.  (A [Gc.finalise_last]
   callback costs two minor words per call in OCaml 5.1, which broke
   test_alloc's exact per-effect rows; [Gc.finalise] would also keep
   every finished run reachable, through [waker]'s closure, for one more
   major cycle.)  The registry never holds more dead reservations than
   there were live memories at once, so it keeps no more host memory
   than the runs before it used.

   Two further footprint tricks:

   - {b adaptive reader tracking}: a line's current-copy set is one word
     — empty, a single processor inline, or an index into a pool of
     bitmask blocks (ceil(nprocs/63) words each) for lines with several
     concurrent sharers.  Blocks are recycled at invalidation, so the
     pool stays proportional to the number of concurrently multi-read
     lines, not to memory size or processor count.  Observably identical
     to a full per-line bitmask: a processor hits iff it has read the
     line since the last invalidation.

   - {b probe-gated side tables stay unmapped until probed}: the
     per-line traffic and invalidation counters are only consulted under
     a probe, so their reservations materialize on [set_probing true]
     and default runs never pay the virtual mappings.  Once mapped they
     stay with the reservation, and are zeroed with it.

   Spin-waiters are an intrusive per-line chain of processor ids
   (one word per line plus one link word per processor — a processor
   waits on at most one line), woken through a single engine-registered
   callback: parking and waking allocate nothing. *)

type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

module W = Bigarray.Array1

(* One virtual reservation size for every per-line table: 2^28 words
   (2 GiB of address space each, nothing resident until touched) bounds
   [words_allocated] at ~268M lines — comfortably above the largest
   1024-processor worst-case-sized structure in the tree.  Halved
   candidates keep restricted address spaces working. *)
let reserve_candidates = [ 1 lsl 28; 1 lsl 26; 1 lsl 24; 1 lsl 21 ]

(* one byte per line *)
type flags = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) W.t

let map kind n =
  let fd = Unix.openfile "/dev/zero" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Bigarray.array1_of_genarray
        (Unix.map_file fd kind Bigarray.c_layout false [| n |]))

let map_words n : words = map Bigarray.Int n

let rec first_reserve = function
  | [ n ] -> (n, map_words n)
  | n :: rest -> (
      try (n, map_words n) with Unix.Unix_error _ -> first_reserve rest)
  | [] -> invalid_arg "Mem: no viable reservation size"

(* One memory's tables, kept apart from the memory so they can outlive
   it in the registry.  The probe-gated tables are mutable: a probed run
   maps them, and the reservation keeps them.  The sync-line flags are a
   mapped table too, not an OCaml string, so a kept reservation holds no
   words in the OCaml heap however high its structures declared. *)
type reservation = {
  size : int; (* virtual words per table: the hard address bound *)
  r_data : words;
  r_busy : words;
  r_readers : words;
  r_wait : words;
  r_writer : words;
  r_watchers : words;
  mutable r_traffic : words; (* dimension 0 until a probed run maps it *)
  mutable r_inval : words;
  r_sync : flags;
  mutable r_extent : int; (* every line at or past it is zero in every table *)
}

(* 2^18 lines: 2 MiB per word table.  The largest benchmark run
   allocates 180,307 words (SimpleTree at P=256), so every benchmark run
   reuses its reservation. *)
let pool_max_extent = 1 lsl 18

let no_words : words = W.create Bigarray.Int Bigarray.c_layout 0

let reserve () =
  let size, r_data = first_reserve reserve_candidates in
  {
    size;
    r_data;
    r_busy = map_words size;
    r_readers = map_words size;
    r_wait = map_words size;
    r_writer = map_words size;
    r_watchers = map_words size;
    r_traffic = no_words;
    r_inval = no_words;
    r_sync = map Bigarray.Char size;
    r_extent = 0;
  }

let zero (a : words) n = if W.dim a > 0 then W.fill (W.sub a 0 n) 0

let scrub r =
  let n = r.r_extent in
  if n > 0 then begin
    List.iter
      (fun a -> zero a n)
      [
        r.r_data; r.r_busy; r.r_readers; r.r_wait; r.r_writer; r.r_watchers;
        r.r_traffic; r.r_inval;
      ];
    W.fill (W.sub r.r_sync 0 n) '\000';
    r.r_extent <- 0
  end

type name =
  | Root of string
  | Field of name * string
  | Index of name * int
  | Numbered of name * string * int

(* Label registrations, most recent first.  Each is its own list cell
   and holds its name unformatted: registering a label allocates one
   block, whatever the name.  [Records] names [count] records of
   [stride] words in one registration, record [i]'s first [len] words
   reading [name[i]] (or [name[i].field]). *)
type labels =
  | No_label
  | Range of { addr : int; len : int; name : name; next : labels }
  | Records of {
      addr : int;
      count : int;
      stride : int;
      len : int;
      field : string option;
      name : name;
      next : labels;
    }

(* [t] copies the reservation's tables it reads on every access, so the
   hot paths pay no extra indirection *)
type t = {
  machine : Machine.t;
  mask_words : int; (* words of reader-mask per block: ceil (nprocs / 63) *)
  res : reservation;
  reserve : int; (* [res.size], the hard address bound *)
  mutable extent : int; (* [res.r_extent], read on every access *)
  alive : unit ref;
      (* a block nothing else points to: the registry's weak pointer
         watches it rather than the memory, because a minor collection
         promotes a young block a weak pointer names, and the memory
         reaches the whole run through [waker] *)
  mutable probing : bool; (* per-run copy of the probe flag (set by Sim) *)
  mutable metrics : Stats.t option; (* probe metrics registry (set by Sim) *)
  data : words;
  busy : words;
  readers : words;
      (* current-copy set per line: 0 = none, [p+1] = only processor
         [p], [-(b+1)] = bitmask block [b] in [blocks] *)
  mutable blocks : int array; (* block pool: [mask_words] words each *)
  mutable free_blocks : int array; (* stack of recycled block indices *)
  mutable free_top : int;
  mutable next_block : int; (* blocks handed out so far *)
  wait_by_line : words;
  writer_by_line : words; (* 0 = no simulated writer yet, else pid + 1 *)
  mutable traffic_by_line : words; (* unmapped (dim 0) until probing *)
  mutable inval_by_line : words; (* unmapped (dim 0) until probing *)
  watchers : words;
      (* spin-waiter chain head per line: 0 = none, else [pid + 1] *)
  wnext : int array; (* per-processor chain link: 0 = end, else [pid + 1] *)
  mutable waker : int -> int -> unit;
      (* [waker pid change_time]: deliver a line change to a parked
         processor; registered once per run by the engine *)
  mutable next_free : int;
  mutable hits : int;
  mutable misses : int;
  mutable updates : int;
  mutable queue_wait : int;
  mutable out : int;
      (* secondary result of the last [_t] operation: the value read /
         the old value swapped out / 1-or-0 for a CAS.  The [_t]
         variants return only the completion time and park the payload
         here so the engine's hot path never boxes a tuple per access. *)
  node_factor : int array; (* per memory module service-time multiplier *)
  home_mask : int; (* [mem_modules - 1] when a power of two, else -1 *)
  proc_loc : int array; (* per processor: packed mesh x, y and socket *)
  module_loc : int array; (* per memory module: the same *)
  (* observability: symbolic names for allocated ranges (host-side
     metadata) *)
  mutable labels : labels;
}

(* A location word packs a mesh node's x and y (21 bits each) and its
   socket (the bits above), as [Machine.hops] and [Machine.socket_of]
   place processor or module [i]: computed once per run, so a miss
   prices its hops and hop cost with no division. *)
let loc_bits = 21
let loc_mask = (1 lsl loc_bits) - 1
let loc_socket l = l lsr (2 * loc_bits)

let locations m n =
  let w = m.Machine.mesh_width in
  Array.init n (fun i ->
      let c = i mod (w * w) in
      (c mod w)
      lor ((c / w) lsl loc_bits)
      lor (Machine.socket_of m i lsl (2 * loc_bits)))

let make machine res =
  let nprocs = machine.Machine.nprocs in
  {
    machine;
    mask_words = (nprocs + 62) / 63;
    res;
    reserve = res.size;
    extent = 0;
    alive = ref ();
    probing = false;
    metrics = None;
    data = res.r_data;
    busy = res.r_busy;
    readers = res.r_readers;
    blocks = [||];
    free_blocks = [||];
    free_top = 0;
    next_block = 0;
    wait_by_line = res.r_wait;
    writer_by_line = res.r_writer;
    traffic_by_line = no_words;
    inval_by_line = no_words;
    watchers = res.r_watchers;
    wnext = Array.make nprocs 0;
    waker = (fun _ _ -> ());
    next_free = 1 (* address 0 reserved as null *);
    hits = 0;
    misses = 0;
    updates = 0;
    queue_wait = 0;
    out = 0;
    node_factor = Array.make machine.Machine.mem_modules 1;
    home_mask =
      (let m = machine.Machine.mem_modules in
       if m land (m - 1) = 0 then m - 1 else -1);
    proc_loc = locations machine nprocs;
    module_loc = locations machine machine.Machine.mem_modules;
    labels = No_label;
  }

(* The registry: every reservation a live memory uses, and every free
   one. *)
type entry = { tables : reservation; owner : unit ref Weak.t }

let registry = ref []
let registry_lock = Mutex.create ()

let free e = not (Weak.check e.owner 0)

let create machine =
  let claimed =
    Mutex.protect registry_lock (fun () ->
        match List.find_opt free !registry with
        | Some e ->
            let t = make machine e.tables in
            Weak.set e.owner 0 (Some t.alive);
            Some t
        | None -> None)
  in
  match claimed with
  | Some t ->
      scrub t.res;
      t
  | None ->
      let t = make machine (reserve ()) in
      let owner = Weak.create 1 in
      Weak.set owner 0 (Some t.alive);
      Mutex.protect registry_lock (fun () ->
          registry := { tables = t.res; owner } :: !registry);
      t

let pooled () =
  Mutex.protect registry_lock (fun () -> List.length (List.filter free !registry))

let machine t = t.machine

let set_probing t b =
  t.probing <- b;
  if b && W.dim t.traffic_by_line = 0 then begin
    let r = t.res in
    if W.dim r.r_traffic = 0 then begin
      r.r_traffic <- map_words t.reserve;
      r.r_inval <- map_words t.reserve
    end;
    t.traffic_by_line <- r.r_traffic;
    t.inval_by_line <- r.r_inval
  end

let set_metrics t m = t.metrics <- m
let set_waker t w = t.waker <- w

(* probe-gated: classify a coherence transaction as intra- or
   inter-socket for the metrics registry (the adaptive classifier's
   remote-traffic-share signal).  Flat-socket machines report all
   traffic local. *)
let count_locality t ~proc ~home =
  match t.metrics with
  | None -> ()
  | Some s ->
      Stats.record s
        (if loc_socket t.proc_loc.(proc) = loc_socket t.module_loc.(home) then
           "mem.local"
         else "mem.remote")
        1

let past_reservation t n =
  invalid_arg
    (Printf.sprintf "Mem: line %d is past the %d-word reservation" (n - 1)
       t.reserve)

(* [extend t n]: lines below [n] may be written from now on *)
let extend t n =
  if n > t.extent then begin
    if n > t.reserve then past_reservation t n;
    if n > pool_max_extent && t.extent <= pool_max_extent then
      Mutex.protect registry_lock (fun () ->
          registry := List.filter (fun e -> e.tables != t.res) !registry);
    t.extent <- n;
    t.res.r_extent <- n
  end

(* every costed access goes through here before it writes a table *)
let touch t addr = if addr >= t.extent then extend t (addr + 1)

(* allocating writes nothing, so it leaves the extent alone: a reuse
   zeroes only the lines a run wrote, not every line it allocated *)
let alloc t n =
  if n < 0 then invalid_arg "Mem.alloc: negative size";
  let addr = t.next_free in
  if addr + n > t.reserve then past_reservation t (addr + n);
  t.next_free <- addr + n;
  addr

let words_allocated t = t.next_free

let rec add_name b = function
  | Root s -> Buffer.add_string b s
  | Field (n, f) ->
      add_name b n;
      Buffer.add_char b '.';
      Buffer.add_string b f
  | Index (n, i) ->
      add_name b n;
      Buffer.add_char b '[';
      Buffer.add_string b (Int.to_string i);
      Buffer.add_char b ']'
  | Numbered (n, f, i) ->
      add_name b n;
      Buffer.add_char b '.';
      Buffer.add_string b f;
      Buffer.add_string b (Int.to_string i)

(* [name], suffixed "+k" for the k-th word of its range *)
let render_at name k =
  let b = Buffer.create 32 in
  add_name b name;
  if k > 0 then begin
    Buffer.add_char b '+';
    Buffer.add_string b (Int.to_string k)
  end;
  Buffer.contents b

let label t ~addr ~len name =
  if len <= 0 then invalid_arg "Mem.label: len must be positive";
  t.labels <- Range { addr; len; name; next = t.labels }

let label_records t ~addr ~count ~stride ~len ?field name =
  if len <= 0 || stride < len then
    invalid_arg "Mem.label_records: need 0 < len <= stride";
  if count > 0 then
    t.labels <-
      Records { addr; count; stride; len; field; name; next = t.labels }

let name_of t addr =
  (* most recent registration wins, so a structure may refine a name a
     lower layer gave its words *)
  let rec find = function
    | No_label -> None
    | Range r ->
        let k = addr - r.addr in
        if k >= 0 && k < r.len then Some (render_at r.name k) else find r.next
    | Records r ->
        let off = addr - r.addr in
        let k = off mod r.stride in
        if off >= 0 && off < r.count * r.stride && k < r.len then
          let n = Index (r.name, off / r.stride) in
          let n = match r.field with Some f -> Field (n, f) | None -> n in
          Some (render_at n k)
        else find r.next
  in
  find t.labels

let declare_sync t ~addr ~len =
  if len <= 0 then invalid_arg "Mem.declare_sync: len must be positive";
  extend t (addr + len);
  for a = addr to addr + len - 1 do
    W.set t.res.r_sync a '\001'
  done

let is_sync t addr =
  addr >= 0 && addr < t.extent && W.get t.res.r_sync addr <> '\000'

(* reader-set primitives: processor [proc] is in line [addr]'s set iff
   its cached copy is current *)

let alloc_block t =
  if t.free_top > 0 then begin
    t.free_top <- t.free_top - 1;
    t.free_blocks.(t.free_top)
  end
  else begin
    let b = t.next_block in
    t.next_block <- b + 1;
    if (b + 1) * t.mask_words > Array.length t.blocks then begin
      let cap = max (8 * t.mask_words) (2 * Array.length t.blocks) in
      let blocks = Array.make cap 0 in
      Array.blit t.blocks 0 blocks 0 (Array.length t.blocks);
      t.blocks <- blocks
    end;
    b
  end

let free_block t b =
  let base = b * t.mask_words in
  Array.fill t.blocks base t.mask_words 0;
  if t.free_top >= Array.length t.free_blocks then begin
    let cap = max 8 (2 * Array.length t.free_blocks) in
    let fb = Array.make cap 0 in
    Array.blit t.free_blocks 0 fb 0 (Array.length t.free_blocks);
    t.free_blocks <- fb
  end;
  t.free_blocks.(t.free_top) <- b;
  t.free_top <- t.free_top + 1

let cached t ~proc addr =
  let r = W.get t.readers addr in
  if r >= 0 then r = proc + 1
  else
    let base = ((-1 - r) * t.mask_words) + (proc / 63) in
    t.blocks.(base) land (1 lsl (proc mod 63)) <> 0

let set_cached t ~proc addr =
  let r = W.get t.readers addr in
  if r = 0 then W.set t.readers addr (proc + 1)
  else if r > 0 then begin
    if r <> proc + 1 then begin
      (* second concurrent sharer: spill to a pool block *)
      let b = alloc_block t in
      let base = b * t.mask_words in
      let q = r - 1 in
      t.blocks.(base + (q / 63)) <-
        t.blocks.(base + (q / 63)) lor (1 lsl (q mod 63));
      t.blocks.(base + (proc / 63)) <-
        t.blocks.(base + (proc / 63)) lor (1 lsl (proc mod 63));
      W.set t.readers addr (-1 - b)
    end
  end
  else
    let base = ((-1 - r) * t.mask_words) + (proc / 63) in
    t.blocks.(base) <- t.blocks.(base) lor (1 lsl (proc mod 63))

(* a read writes nothing: past the extent it reads a never-written zero,
   and only the reservation bound is checked *)
let peek t addr =
  if addr >= t.reserve then past_reservation t (addr + 1);
  W.get t.data addr

let invalidate t addr =
  let r = W.get t.readers addr in
  if r <> 0 then begin
    if r < 0 then free_block t (-1 - r);
    W.set t.readers addr 0
  end;
  if t.probing then W.set t.inval_by_line addr (W.get t.inval_by_line addr + 1)

(* the waiter chain is prepended to (a processor parks at most once at a
   time), so wake in registration order by reversing it in place first —
   all link surgery in [wnext], nothing allocated *)
let rec rev_chain t acc cur =
  if cur = 0 then acc
  else begin
    let p = cur - 1 in
    let nxt = t.wnext.(p) in
    t.wnext.(p) <- acc;
    rev_chain t (p + 1) nxt
  end

let rec wake_chain t cur change_time =
  if cur <> 0 then begin
    let p = cur - 1 in
    let nxt = t.wnext.(p) in
    t.wnext.(p) <- 0;
    t.waker p change_time;
    wake_chain t nxt change_time
  end

let notify t addr ~change_time =
  let h = W.get t.watchers addr in
  if h <> 0 then begin
    (* clear before waking: a waiter re-parking during the walk chains
       onto the fresh head and is only woken by the next change *)
    W.set t.watchers addr 0;
    wake_chain t (rev_chain t 0 h) change_time
  end

let poke t addr v =
  touch t addr;
  W.set t.data addr v;
  invalidate t addr;
  notify t addr ~change_time:0

let watch t ~addr ~pid =
  touch t addr;
  t.wnext.(pid) <- W.get t.watchers addr;
  W.set t.watchers addr (pid + 1)

let degrade_node t ~node ~factor =
  if factor < 1 then invalid_arg "Mem.degrade_node: factor must be >= 1";
  t.node_factor.(node mod Array.length t.node_factor) <- factor

(* [Machine.home_module], found once per access and passed down *)
let home_of t addr =
  if t.home_mask >= 0 then addr land t.home_mask
  else addr mod Array.length t.module_loc

let latency t ~proc ~home =
  let m = t.machine and a = t.proc_loc.(proc) and b = t.module_loc.(home) in
  let dx = (a land loc_mask) - (b land loc_mask)
  and dy = ((a lsr loc_bits) land loc_mask) - ((b lsr loc_bits) land loc_mask) in
  let hops = (if dx < 0 then -dx else dx) + if dy < 0 then -dy else dy in
  let hop_cost =
    if loc_socket a = loc_socket b then m.Machine.hop_cost
    else m.Machine.remote_hop_cost
  in
  t.node_factor.(home) * (m.Machine.miss_base + (hop_cost * hops))

let miss_latency t ~proc ~addr = latency t ~proc ~home:(home_of t addr)

(* Begin service of an op needing the line's directory: queue behind any
   in-flight exclusive service, then occupy it for [occ] cycles.  Returns the
   time service ends. *)
let serve t ~now ~addr ~home ~occ =
  let occ = occ * t.node_factor.(home) in
  let b = W.get t.busy addr in
  let start = if b > now then b else now in
  let waited = start - now in
  if waited > 0 then begin
    t.queue_wait <- t.queue_wait + waited;
    W.set t.wait_by_line addr (W.get t.wait_by_line addr + waited)
  end;
  W.set t.busy addr (start + occ);
  start + occ

let out t = t.out

let read_t t ~proc ~now addr =
  touch t addr;
  if cached t ~proc addr then begin
    t.hits <- t.hits + 1;
    t.out <- W.get t.data addr;
    now + t.machine.Machine.cache_hit
  end
  else begin
    t.misses <- t.misses + 1;
    let home = home_of t addr in
    if t.probing then begin
      W.set t.traffic_by_line addr (W.get t.traffic_by_line addr + 1);
      count_locality t ~proc ~home
    end;
    let served =
      serve t ~now ~addr ~home ~occ:t.machine.Machine.read_occupancy
    in
    set_cached t ~proc addr;
    t.out <- W.get t.data addr;
    served + latency t ~proc ~home
  end

let read t ~proc ~now addr =
  let completion = read_t t ~proc ~now addr in
  (completion, t.out)

(* every read-modify-write splits into [rmw_begin] (count, serve the
   line's directory) and [rmw_commit] (store the new value, park the old
   one in [out], return the completion time) with the new value computed
   inline in between — no update closure per access *)
let rmw_begin t ~proc ~now ~addr ~home ~occ =
  t.updates <- t.updates + 1;
  if t.probing then begin
    W.set t.traffic_by_line addr (W.get t.traffic_by_line addr + 1);
    count_locality t ~proc ~home
  end;
  W.set t.writer_by_line addr (proc + 1);
  serve t ~now ~addr ~home ~occ

let rmw_commit t ~proc ~addr ~home ~served ~old v =
  if v <> old then begin
    W.set t.data addr v;
    invalidate t addr
  end;
  (* even a same-value store serializes and re-triggers spinners' checks *)
  notify t addr ~change_time:served;
  set_cached t ~proc addr;
  t.out <- old;
  served + latency t ~proc ~home

let write t ~proc ~now addr v =
  touch t addr;
  let occ = t.machine.Machine.write_occupancy in
  let home = home_of t addr in
  let served = rmw_begin t ~proc ~now ~addr ~home ~occ in
  let old = W.get t.data addr in
  rmw_commit t ~proc ~addr ~home ~served ~old v

let swap_t t ~proc ~now addr v =
  touch t addr;
  let occ = t.machine.Machine.atomic_occupancy in
  let home = home_of t addr in
  let served = rmw_begin t ~proc ~now ~addr ~home ~occ in
  let old = W.get t.data addr in
  rmw_commit t ~proc ~addr ~home ~served ~old v

let swap t ~proc ~now addr v =
  let completion = swap_t t ~proc ~now addr v in
  (completion, t.out)

let cas_t t ~proc ~now addr ~expected ~desired =
  touch t addr;
  let occ = t.machine.Machine.atomic_occupancy in
  let home = home_of t addr in
  let served = rmw_begin t ~proc ~now ~addr ~home ~occ in
  let old = W.get t.data addr in
  let v = if old = expected then desired else old in
  let completion = rmw_commit t ~proc ~addr ~home ~served ~old v in
  t.out <- (if old = expected then 1 else 0);
  completion

let cas t ~proc ~now addr ~expected ~desired =
  let completion = cas_t t ~proc ~now addr ~expected ~desired in
  (completion, t.out <> 0)

let faa_t t ~proc ~now addr delta =
  touch t addr;
  let occ = t.machine.Machine.atomic_occupancy in
  let home = home_of t addr in
  let served = rmw_begin t ~proc ~now ~addr ~home ~occ in
  let old = W.get t.data addr in
  rmw_commit t ~proc ~addr ~home ~served ~old (old + delta)

let faa t ~proc ~now addr delta =
  let completion = faa_t t ~proc ~now addr delta in
  (completion, t.out)

let last_writer t addr =
  let w = W.get t.writer_by_line addr in
  if w = 0 then None else Some (w - 1)

let hits t = t.hits
let misses t = t.misses
let updates t = t.updates
let queue_wait t = t.queue_wait

(* A bounded top-k: [addrs]/[waits] hold the [n] hottest lines seen so
   far, hottest first.  Lines are scanned by ascending address and a line
   goes in only ahead of strictly cooler ones, so equal waits keep
   ascending address order, as a stable sort by wait would. *)
let hot_lines t k =
  let k = min k t.next_free in
  if k <= 0 then []
  else begin
    let addrs = Array.make k 0 and waits = Array.make k 0 in
    let n = ref 0 in
    for addr = 0 to t.next_free - 1 do
      let w = W.get t.wait_by_line addr in
      if w > 0 && (!n < k || w > waits.(k - 1)) then begin
        let i = ref (if !n < k then !n else k - 1) in
        while !i > 0 && waits.(!i - 1) < w do
          addrs.(!i) <- addrs.(!i - 1);
          waits.(!i) <- waits.(!i - 1);
          decr i
        done;
        addrs.(!i) <- addr;
        waits.(!i) <- w;
        if !n < k then incr n
      end
    done;
    List.init !n (fun i -> (addrs.(i), waits.(i)))
  end

let line_traffic t addr =
  if addr < W.dim t.traffic_by_line then W.get t.traffic_by_line addr else 0

let line_invalidations t addr =
  if addr < W.dim t.inval_by_line then W.get t.inval_by_line addr else 0

let line_wait t addr = W.get t.wait_by_line addr

let line_profile t =
  let acc = ref [] in
  for addr = t.next_free - 1 downto 0 do
    let w = W.get t.wait_by_line addr and tr = line_traffic t addr in
    if w > 0 || tr > 0 then acc := (addr, w, tr, line_invalidations t addr) :: !acc
  done;
  List.sort
    (fun (a1, w1, t1, _) (a2, w2, t2, _) ->
      compare (w2, t2, a1) (w1, t1, a2))
    !acc
