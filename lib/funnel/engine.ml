open Pqsim

let flag_empty = 0
let flag_elim = 1
let flag_count = 2
let flag_elim_match = 3
let flag_elim_done = 4

(* internal: an incompatible collision released the partner; it must
   resume its collision phase instead of completing *)
let flag_retry = 5

(* internal pseudo-flag (never stored in memory): the waiter abandoned a
   captor that stalled before committing and reclaimed itself *)
let flag_reclaimed = 6

(* location word states; values >= 0 mean "collidable at that layer".
   [locked] is tentative: the captor has not yet committed to the pairing
   and the lockee may still reclaim itself (see [operate]).  [claimed] is
   the commit point: a claimed record belongs to its captor until a
   result flag is delivered.  [self_locked] marks a processor holding its
   OWN record (capturing a partner, or attempting the central object); it
   must be distinct from [locked] or a reclaim sets up an ABA: lockee
   times out, reclaims (locked -> layer), then self-locks for the central
   phase — with a shared sentinel the abandoned captor's stale claim CAS
   (locked -> claimed) lands on the self-lock, and the operation is both
   combined into the captor's tree and applied centrally by its owner. *)
let idle = -2
let locked = -1
let claimed = -3
let self_locked = -4

type config = {
  levels : int;
  attempts : int;
  widths : int array;
  spins : int array;
  adaptive : bool;
}

let default_config ~nprocs =
  (* a fourth combining layer past 256 processors: at 512/1024 the
     three-layer funnel's top layer still fans hundreds of processors
     into [nprocs/8] slots, so collision chains lengthen and the tree
     root reheats; one more halving keeps the per-layer fan-in at scale.
     Configs at [nprocs <= 256] are unchanged (golden digests cover
     those sweeps). *)
  let levels =
    if nprocs <= 2 then 1
    else if nprocs <= 16 then 2
    else if nprocs <= 256 then 3
    else 4
  in
  let widths =
    Array.init levels (fun d -> max 1 (nprocs / (2 * (1 lsl d))))
  in
  let spins = Array.init levels (fun d -> 16 + (8 * d)) in
  { levels; attempts = 2; widths; spins; adaptive = true }

(* per-processor record layout *)
let off_sum = 0
let off_loc = 1
let off_flag = 2
let off_rval = 3
let off_opval = 4
let off_nkids = 5
let off_kids = 6

type t = {
  nprocs : int;
  cfg : config;
  layers : int array; (* base address per level *)
  recs : int; (* base address of per-processor records *)
  rec_size : int;
  max_kids : int;
  adapt : float array; (* host-side, processor-local adaption factor *)
  window : int array; (* host-side, processor-local backoff window *)
}

type client = {
  eliminate : me:int -> partner:int -> sign:int -> unit;
  try_central : me:int -> sign:int -> sum:int -> int;
  distribute : me:int -> sign:int -> flag:int -> value:int -> nkids:int -> int;
}

let retry = min_int

let create ?name mem ~nprocs ~config =
  let max_kids = config.levels + 2 in
  let rec_size = off_kids + max_kids in
  let layers =
    Array.mapi
      (fun d w ->
        let a = Mem.alloc mem w in
        for i = 0 to w - 1 do
          Mem.poke mem (a + i) (-1) (* NOBODY *)
        done;
        (match name with
        | Some n -> Mem.label mem ~addr:a ~len:w (Index (Field (n, "layer"), d))
        | None -> ());
        Mem.declare_sync mem ~addr:a ~len:w;
        a)
      config.widths
  in
  let recs = Mem.alloc mem (nprocs * rec_size) in
  for p = 0 to nprocs - 1 do
    Mem.poke mem (recs + (p * rec_size) + off_loc) idle;
    (* the location and flag words carry the collision/result handshakes
       (lock, claim, release-through-result); the rest of the record —
       sum, rval, opval, children — is plain data ordered by them *)
    Mem.declare_sync mem ~addr:(recs + (p * rec_size) + off_loc) ~len:1;
    Mem.declare_sync mem ~addr:(recs + (p * rec_size) + off_flag) ~len:1
  done;
  (match name with
  | Some n ->
      Mem.label_records mem ~addr:recs ~count:nprocs ~stride:rec_size
        ~len:rec_size (Field (n, "rec"))
  | None -> ());
  (* adaption starts narrow: a lightly loaded funnel behaves like its
     central object alone, and central contention widens it within a few
     operations *)
  {
    nprocs;
    cfg = config;
    layers;
    recs;
    rec_size;
    max_kids;
    adapt = Array.make nprocs 0.05;
    window = Array.make nprocs Pqsync.Backoff.first;
  }

let config t = t.cfg
let max_children t = t.max_kids
let rec_base t pid = t.recs + (pid * t.rec_size)
let loc_addr t pid = rec_base t pid + off_loc
let sum_addr t pid = rec_base t pid + off_sum
let flag_addr t pid = rec_base t pid + off_flag
let rval_addr t pid = rec_base t pid + off_rval
let sum_of t pid = Api.read (sum_addr t pid)
let opval_of t pid = Api.read (rec_base t pid + off_opval)

let read_children t pid buf off =
  let base = rec_base t pid in
  let n = Api.read (base + off_nkids) in
  for i = 0 to n - 1 do
    buf.(off + i) <- Api.read (base + off_kids + i)
  done;
  n

(* the finished operation's child list sits in the first [max_kids] slots
   of the processor's scratch while its client distributes *)
let child t i = (Api.scratch t.max_kids).(i)

let set_result t pid ~flag ~value =
  Api.write (rval_addr t pid) value;
  Api.write (flag_addr t pid) flag

let append_child t pid child =
  let base = rec_base t pid in
  let n = Api.read (base + off_nkids) in
  assert (n < t.rec_size - off_kids);
  Api.write (base + off_kids + n) child;
  Api.write (base + off_nkids) (n + 1)

(* the adaption factor stays within [0.05, 1.0], never NaN, so plain
   comparisons clamp it exactly as [Float.min]/[Float.max] would, without
   boxing *)
let note_success t pid =
  if t.cfg.adaptive then begin
    let a = t.adapt.(pid) *. 1.5 in
    t.adapt.(pid) <- (if a > 1.0 then 1.0 else a)
  end

let note_failure t pid =
  Api.count "funnel.decline" 1;
  if t.cfg.adaptive then begin
    let a = t.adapt.(pid) *. 0.9 in
    t.adapt.(pid) <- (if a < 0.05 then 0.05 else a)
  end

(* contention at the central object is the strongest signal that combining
   is worth paying for *)
let note_contention t pid =
  Api.count "funnel.contend" 1;
  if t.cfg.adaptive then begin
    let a = t.adapt.(pid) *. 2.0 in
    t.adapt.(pid) <- (if a > 1.0 then 1.0 else a)
  end

(* Under persistently low load a processor skips the collision phase and
   goes straight to the central object — the paper's "simply apply the
   operation and be done". *)
let skip_collisions t pid = t.cfg.adaptive && t.adapt.(pid) <= 0.1

let effective_width t pid d =
  let w = t.cfg.widths.(d) in
  if not t.cfg.adaptive then w
  else max 1 (int_of_float (t.adapt.(pid) *. float_of_int w))

(* attempts already used when a collision phase starts *)
let first_attempt t me = if skip_collisions t me then t.cfg.attempts else 0

(* The collision phase (paper Fig. 10, lines 5-37) as three mutually
   tail-recursive functions over the current layer [d] and attempt count
   [n].  Each returns the layer it stopped at, once the operation is done
   (eliminated, or applied at the central object) or caught by a
   captor. *)
let rec collide t c me sign homogeneous allow_elim d n =
  if n < t.cfg.attempts && d < t.cfg.levels then begin
    let n = n + 1 in
    let width = effective_width t me d in
    let slot = t.layers.(d) + Api.rand width in
    let q = Api.swap slot me in
    if q >= 0 && q <> me then begin
      if Api.cas (loc_addr t me) ~expected:d ~desired:self_locked then begin
        if Api.cas (loc_addr t q) ~expected:d ~desired:locked then begin
          (* Commit point: a lockee that timed out of its wait may have
             reclaimed itself (locked -> layer), so nothing of [q]'s
             record may be read, absorbed or written until this claim
             lands — a reclaimed [q] is free to rewrite it.  Keeping the
             tentative window to the bare two CASes is also what lets
             waiters spin boundedly instead of forever. *)
          if not (Api.cas (loc_addr t q) ~expected:locked ~desired:claimed)
          then begin
            Api.write (loc_addr t me) d;
            note_failure t me;
            linger t c me sign homogeneous allow_elim d n
          end
          else
            (* the claim freezes [q]'s record until we deliver a flag, and
               hands us everything [q] wrote before entering the funnel,
               so the sums are read race-free here *)
            let qsum = Api.read (sum_addr t q) in
            let mysum = Api.read (sum_addr t me) in
            if allow_elim && qsum + mysum = 0 then begin
              (* reversing operations of equal size: both trees finish
                 without touching the central object.  Our own result now
                 rides on the elimination partner, so mark ourselves
                 committed first: the bounded waiting loop must not
                 reclaim a record the partner will consume. *)
              Api.write (loc_addr t me) claimed;
              note_success t me;
              Api.count "funnel.eliminate" 1;
              Api.mark "funnel.eliminate" q;
              c.eliminate ~me ~partner:q ~sign;
              d
            end
            else if (not homogeneous) || qsum = mysum then begin
              note_success t me;
              Api.count "funnel.combine" 1;
              Api.mark "funnel.combine" q;
              Api.write (sum_addr t me) (mysum + qsum);
              append_child t me q;
              let d = d + 1 in
              Api.write (loc_addr t me) d;
              linger t c me sign homogeneous allow_elim d 0
            end
            else begin
              (* Homogeneity forbids this pairing.  [q] may already have
                 concluded it was caught, so release it through the result
                 channel: it resumes its collision phase. *)
              set_result t q ~flag:flag_retry ~value:0;
              Api.write (loc_addr t me) d;
              note_failure t me;
              linger t c me sign homogeneous allow_elim d n
            end
        end
        else begin
          Api.write (loc_addr t me) d;
          note_failure t me;
          linger t c me sign homogeneous allow_elim d n
        end
      end
      else d (* caught *)
    end
    else begin
      note_failure t me;
      linger t c me sign homogeneous allow_elim d n
    end
  end
  else central t c me sign homogeneous allow_elim d

(* linger, hoping somebody collides with us *)
and linger t c me sign homogeneous allow_elim d n =
  if d < t.cfg.levels then begin
    Api.work t.cfg.spins.(d);
    if Api.read (loc_addr t me) <> d then d (* caught *)
    else collide t c me sign homogeneous allow_elim d n
  end
  else collide t c me sign homogeneous allow_elim d n

(* central phase (lines 28-37) *)
and central t c me sign homogeneous allow_elim d =
  if Api.cas (loc_addr t me) ~expected:d ~desired:self_locked then begin
    let v = c.try_central ~me ~sign ~sum:(Api.read (sum_addr t me)) in
    if v <> retry then begin
      Api.count "funnel.central" 1;
      set_result t me ~flag:flag_count ~value:v;
      d
    end
    else begin
      note_contention t me;
      Api.write (loc_addr t me) d;
      t.window.(me) <- Pqsync.Backoff.pause t.window.(me);
      collide t c me sign homogeneous allow_elim d (first_attempt t me)
    end
  end
  else d (* caught *)

(* Wait for the result with bounded patience.  A captor that locked us
   but stalls (or crash-stops) before committing is abandoned: we take
   ourselves back with a CAS on our own location word and resume
   colliding — the graceful-degradation path under faults.  Once a captor
   commits (claims us) the result is guaranteed unless the captor itself
   dies, so after a failed reclaim we fall back to the frugal watch-based
   wait and leave a dead captor to the engine's watchdog, which reports it
   as a structured progress failure. *)
let wait_patience = 4
let wait_poll_gap = 32
let has_result v = v <> flag_empty

let rec wait_result t me d n =
  let v = Api.read (flag_addr t me) in
  if v <> flag_empty then v
  else if n >= wait_patience then
    if Api.cas (loc_addr t me) ~expected:locked ~desired:d then flag_reclaimed
    else Api.await (flag_addr t me) ~until:has_result
  else begin
    Api.work wait_poll_gap;
    wait_result t me d (n + 1)
  end

(* Hand values down the combining tree (lines 39-47).  The client's
   [distribute] must read everything it needs from a subtree member before
   setting its flag.  A [flag_retry] result means an incompatible
   collision bounced us back into the funnel; [flag_reclaimed] that we
   abandoned a non-committing captor.  Rounds are bounded so an engine bug
   surfaces as a diagnostic failure, never a silent infinite loop. *)
let max_rounds = 100_000

let rec complete t c me sign homogeneous allow_elim d rounds =
  if rounds > max_rounds then
    failwith
      (Printf.sprintf
         "Funnel.operate: p%d still unresolved after %d collision rounds \
          (loc=%d flag=%d)"
         me rounds
         (Api.read (loc_addr t me))
         (Api.read (flag_addr t me)));
  let d =
    collide t c me sign homogeneous allow_elim d (first_attempt t me)
  in
  let flag = wait_result t me d 0 in
  if flag = flag_reclaimed then
    complete t c me sign homogeneous allow_elim d (rounds + 1)
  else if flag = flag_retry then begin
    Api.write (flag_addr t me) flag_empty;
    Api.write (loc_addr t me) d;
    complete t c me sign homogeneous allow_elim d (rounds + 1)
  end
  else begin
    let value = Api.read (rval_addr t me) in
    let nkids = read_children t me (Api.scratch t.max_kids) 0 in
    let result = c.distribute ~me ~sign ~flag ~value ~nkids in
    Api.write (loc_addr t me) idle;
    result
  end

let operate t c ~sign ~opval ~homogeneous ~allow_elim =
  let me = Api.self () in
  Api.count "funnel.ops" 1;
  let base = rec_base t me in
  Api.write (base + off_sum) sign;
  Api.write (base + off_nkids) 0;
  Api.write (base + off_flag) flag_empty;
  Api.write (base + off_opval) opval;
  Api.write (base + off_loc) 0;
  t.window.(me) <- Pqsync.Backoff.first;
  complete t c me sign homogeneous allow_elim 0 0
