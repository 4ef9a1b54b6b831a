(* Streaming invariant monitors over the probe note channel.

   The rank monitor is an online reformulation of the paper's
   quiescence-aware rank oracle (Appendix B; the post-hoc reference
   model lives in the test suite), engineered to use memory bounded by
   O(npriorities + live elements) instead of O(ops):

   - Quiescent points are detected by in-flight counting: when a new
     invocation arrives at time [s] with nothing in flight and
     [s > last_response + 1], a whole idle cycle separated the merged
     busy intervals — exactly the oracle's merge rule [s' <= e + 1].

   - An element becomes a rank candidate ("settles") at the first
     quiescent point after its insert response; candidates live in a
     per-priority count array plus a (pri, payload) -> counts table.

   - A delete's rank cannot be known at its response (a removal later
     in the same busy segment still disqualifies candidates), so
     deletes pend until the segment's quiescent point — but only as a
     per-priority COUNT: every pending delete returning priority [p]
     finalizes to the same rank, the prefix sum of settled-unclaimed
     counts below [p].  Pending state is O(npriorities) even in a
     segment that never quiesces until the end of the run.

   - Claims (delete responses) debit the settled copy first and erase
     empty entries, so the live table never outgrows the population.

   Equivalence with the post-hoc oracle on complete histories is
   asserted by the test suite (same deletes/empties/max/mean/hist).
   Incomplete histories (crash faults leave dangling invocations)
   permanently suppress further quiescent points, so the streaming
   monitor under-measures — conservatively: strict queues still read
   0, and the driver widens relaxed bounds by the dangling-op count. *)

module Tag = struct
  let ins_invoke = 1
  let ins_ok = 2
  let ins_reject = 3
  let del_invoke = 4
  let del_some = 5
  let del_none = 6
  let settle = 7
end

type stream_stats = {
  mutable n : int;
  mutable sum : int;
  mutable mx : int;
  hist : int array;  (* pow2 buckets: 0 -> v<=0, k -> 2^(k-1) <= v < 2^k *)
}

let stats_create () = { n = 0; sum = 0; mx = 0; hist = Array.make 63 0 }

let bucket_index v =
  if v <= 0 then 0
  else
    let rec go k lo = if 2 * lo > v then k else go (k + 1) (2 * lo) in
    go 1 1

let stats_record_n st ~v ~n =
  st.n <- st.n + n;
  st.sum <- st.sum + (v * n);
  if v > st.mx then st.mx <- v;
  let b = bucket_index v in
  st.hist.(b) <- st.hist.(b) + n

let stats_mean st = if st.n = 0 then 0.0 else float_of_int st.sum /. float_of_int st.n

let stats_hist st =
  let out = ref [] in
  for b = Array.length st.hist - 1 downto 0 do
    if st.hist.(b) > 0 then
      out := ((if b = 0 then 0 else 1 lsl (b - 1)), st.hist.(b)) :: !out
  done;
  !out

type pair_state = {
  mutable settled : int;
  mutable unsettled : int;
  mutable snaps : int list;
      (* per settled unit: suffix count of finalized larger-priority
         deletes at its settle point, for the delay (overtake) metric *)
}

type t = {
  npriorities : int;
  nprocs : int;
  live : (int * int, pair_state) Hashtbl.t;
  settled_unclaimed : int array;
  mutable settled_total : int;
  pending : int array;
  mutable pending_empty : int;
  mutable pending_n : int;
  cum_del : int array;
  suffix_del : int array;
  open_op : int array;  (* per-proc open invocation tag; 0 = none *)
  mutable inflight : int;
  mutable last_end : int;
  mutable started : bool;
  mutable quiescent_points : int;
  mutable phantoms : int;
  rank_st : stream_stats;
  delay_st : stream_stats;
  mutable deletes : int;
  mutable empties : int;
  mutable inserts : int;
  mutable rejects : int;
  mutable unfinalized : int;
  mutable settles : int;
  mutable max_settled_dist : int;
  mutable inversions : int;
  mutable live_hw : int;
  mutable pending_hw : int;
  mutable notes_seen : int;
}

let create ~npriorities ~nprocs =
  {
    npriorities;
    nprocs;
    live = Hashtbl.create 64;
    settled_unclaimed = Array.make npriorities 0;
    settled_total = 0;
    pending = Array.make npriorities 0;
    pending_empty = 0;
    pending_n = 0;
    cum_del = Array.make npriorities 0;
    suffix_del = Array.make (npriorities + 1) 0;
    open_op = Array.make nprocs 0;
    inflight = 0;
    last_end = 0;
    started = false;
    quiescent_points = 0;
    phantoms = 0;
    rank_st = stats_create ();
    delay_st = stats_create ();
    deletes = 0;
    empties = 0;
    inserts = 0;
    rejects = 0;
    unfinalized = 0;
    settles = 0;
    max_settled_dist = 0;
    inversions = 0;
    live_hw = 0;
    pending_hw = 0;
    notes_seen = 0;
  }

(* a quiescent point: finalize the segment's pending deletes against
   the pre-segment candidate set, then settle the segment's births *)
let quiesce t =
  let prefix = ref 0 in
  for p = 0 to t.npriorities - 1 do
    let c = t.pending.(p) in
    if c > 0 then begin
      stats_record_n t.rank_st ~v:!prefix ~n:c;
      t.cum_del.(p) <- t.cum_del.(p) + c;
      t.pending.(p) <- 0
    end;
    prefix := !prefix + t.settled_unclaimed.(p)
  done;
  if t.pending_empty > 0 then begin
    stats_record_n t.rank_st ~v:t.settled_total ~n:t.pending_empty;
    t.pending_empty <- 0
  end;
  t.pending_n <- 0;
  let suf = ref 0 in
  for p = t.npriorities - 1 downto 0 do
    suf := !suf + t.cum_del.(p);
    t.suffix_del.(p) <- !suf
  done;
  Hashtbl.iter
    (fun (pri, _) st ->
      if st.unsettled > 0 then begin
        let snap = if pri + 1 < t.npriorities then t.suffix_del.(pri + 1) else 0 in
        for _ = 1 to st.unsettled do
          st.snaps <- st.snaps @ [ snap ]
        done;
        t.settled_unclaimed.(pri) <- t.settled_unclaimed.(pri) + st.unsettled;
        t.settled_total <- t.settled_total + st.unsettled;
        st.settled <- st.settled + st.unsettled;
        st.unsettled <- 0
      end)
    t.live;
  t.quiescent_points <- t.quiescent_points + 1

(* registered at the insert's INVOCATION, not its response: a concurrent
   delete may return the element before the inserter's response note
   (the insert linearizes mid-operation).  No quiescent point can occur
   while the insert is in flight, so a provisional birth can never
   settle early, and a capacity reject can always undo it. *)
let birth t ~pri ~payload =
  let st =
    match Hashtbl.find_opt t.live (pri, payload) with
    | Some st -> st
    | None ->
        let st = { settled = 0; unsettled = 0; snaps = [] } in
        Hashtbl.add t.live (pri, payload) st;
        st
  in
  st.unsettled <- st.unsettled + 1;
  let n = Hashtbl.length t.live in
  if n > t.live_hw then t.live_hw <- n

let claim t ~pri ~payload =
  match Hashtbl.find_opt t.live (pri, payload) with
  | None -> t.phantoms <- t.phantoms + 1
  | Some st ->
      let suffix_now =
        if pri + 1 < t.npriorities then t.suffix_del.(pri + 1) else 0
      in
      (if st.settled > 0 then begin
         let snap, rest =
           match st.snaps with x :: r -> (x, r) | [] -> (suffix_now, [])
         in
         st.snaps <- rest;
         st.settled <- st.settled - 1;
         t.settled_unclaimed.(pri) <- t.settled_unclaimed.(pri) - 1;
         t.settled_total <- t.settled_total - 1;
         stats_record_n t.delay_st ~v:(suffix_now - snap) ~n:1
       end
       else begin
         (* born and removed inside one busy segment: never settled, so
            nothing can have overtaken it in quiescent order *)
         st.unsettled <- st.unsettled - 1;
         stats_record_n t.delay_st ~v:0 ~n:1
       end);
      if st.settled = 0 && st.unsettled = 0 then Hashtbl.remove t.live (pri, payload)

let on_invoke t ~proc ~time ~tag =
  if t.inflight = 0 && t.started && time > t.last_end + 1 then quiesce t;
  t.started <- true;
  if t.open_op.(proc) = 0 then begin
    t.open_op.(proc) <- tag;
    t.inflight <- t.inflight + 1
  end

let on_response t ~proc ~time =
  if t.open_op.(proc) <> 0 then begin
    t.open_op.(proc) <- 0;
    t.inflight <- t.inflight - 1
  end;
  if time > t.last_end then t.last_end <- time

let note t ~proc ~time ~tag ~a ~b =
  t.notes_seen <- t.notes_seen + 1;
  if tag = Tag.ins_invoke then begin
    on_invoke t ~proc ~time ~tag;
    birth t ~pri:a ~payload:b
  end
  else if tag = Tag.del_invoke then on_invoke t ~proc ~time ~tag
  else if tag = Tag.ins_ok then begin
    on_response t ~proc ~time;
    t.inserts <- t.inserts + 1
  end
  else if tag = Tag.ins_reject then begin
    on_response t ~proc ~time;
    t.rejects <- t.rejects + 1;
    (* undo the provisional birth: the element never existed.  Still
       unsettled (the op was in flight the whole time) and unclaimed
       (counts make a same-key claim in the window harmless). *)
    match Hashtbl.find_opt t.live (a, b) with
    | Some st ->
        st.unsettled <- st.unsettled - 1;
        if st.settled = 0 && st.unsettled = 0 then Hashtbl.remove t.live (a, b)
    | None -> ()
  end
  else if tag = Tag.del_some then begin
    on_response t ~proc ~time;
    t.deletes <- t.deletes + 1;
    claim t ~pri:a ~payload:b;
    t.pending.(a) <- t.pending.(a) + 1;
    t.pending_n <- t.pending_n + 1;
    if t.pending_n > t.pending_hw then t.pending_hw <- t.pending_n
  end
  else if tag = Tag.del_none then begin
    on_response t ~proc ~time;
    t.deletes <- t.deletes + 1;
    t.empties <- t.empties + 1;
    t.pending_empty <- t.pending_empty + 1;
    t.pending_n <- t.pending_n + 1;
    if t.pending_n > t.pending_hw then t.pending_hw <- t.pending_n
  end
  else if tag = Tag.settle then begin
    t.settles <- t.settles + 1;
    if b < t.max_settled_dist then t.inversions <- t.inversions + 1
    else t.max_settled_dist <- b
  end

let notes t : Pqsim.Probe.note =
  { Pqsim.Probe.note = (fun ~proc ~time ~tag ~a ~b -> note t ~proc ~time ~tag ~a ~b) }

type rank_stats = {
  deletes : int;
  empties : int;
  max_rank : int;
  mean_rank : float;
  rank_hist : (int * int) list;
  max_delay : int;
  mean_delay : float;
  delay_hist : (int * int) list;
}

type report = {
  rank : rank_stats;
  conservation : (unit, string) result;
  phantoms : int;
  dangling : int;
  dangling_inserts : int;
  dangling_deletes : int;
  unfinalized : int;
  inserts : int;
  rejects : int;
  quiescent_points : int;
  settles : int;
  inversions : int;
  live_high_water : int;
  pending_high_water : int;
  notes_seen : int;
}

let finalize ?(slack_per_dangling = 1) t ~leftover =
  let dangling = ref 0 and dangling_ins = ref 0 and dangling_del = ref 0 in
  Array.iter
    (fun tag ->
      if tag <> 0 then begin
        incr dangling;
        if tag = Tag.ins_invoke then incr dangling_ins else incr dangling_del
      end)
    t.open_op;
  if t.inflight = 0 then quiesce t else t.unfinalized <- t.pending_n;
  (* conservation: the live multiset must equal the drained leftover up
     to one element per dangling operation (an op applied in simulated
     memory whose response note was lost to a crash) *)
  let counts = Hashtbl.create 64 in
  Hashtbl.iter
    (fun pv st ->
      let c = st.settled + st.unsettled in
      if c > 0 then Hashtbl.replace counts pv c)
    t.live;
  let extra = ref 0 in
  List.iter
    (fun pv ->
      match Hashtbl.find_opt counts pv with
      | Some c when c > 1 -> Hashtbl.replace counts pv (c - 1)
      | Some _ -> Hashtbl.remove counts pv
      | None -> incr extra)
    leftover;
  let missing = Hashtbl.fold (fun _ c acc -> acc + c) counts 0 in
  (* births are registered at invocation, so crash losses show up as
     missing elements: a dangling delete removed one whose claim note
     was lost, a dangling insert never applied its provisional birth,
     and an op interrupted mid-flush strands its whole in-hand batch —
     [slack_per_dangling] is the queue's in-hand bound (1 plus any
     insertion/deletion buffering).  The drain walking a structure
     frozen mid-mutation can also see one element twice per interrupted
     op ([extra <= dangling]).  A phantom delete (an element never even
     invoked) is never explainable — always a violation. *)
  let slack = slack_per_dangling * !dangling in
  let conservation =
    if missing <= slack && !extra <= !dangling && t.phantoms = 0 then Ok ()
    else
      Error
        (Printf.sprintf
           "conservation: %d unaccounted live, %d unexpected leftover, %d \
            phantom deletes (slack %d)"
           missing !extra t.phantoms slack)
  in
  {
    rank =
      {
        deletes = t.deletes;
        empties = t.empties;
        max_rank = t.rank_st.mx;
        mean_rank = stats_mean t.rank_st;
        rank_hist = stats_hist t.rank_st;
        max_delay = t.delay_st.mx;
        mean_delay = stats_mean t.delay_st;
        delay_hist = stats_hist t.delay_st;
      };
    conservation;
    phantoms = t.phantoms;
    dangling = !dangling;
    dangling_inserts = !dangling_ins;
    dangling_deletes = !dangling_del;
    unfinalized = t.unfinalized;
    inserts = t.inserts;
    rejects = t.rejects;
    quiescent_points = t.quiescent_points;
    settles = t.settles;
    inversions = t.inversions;
    live_high_water = t.live_hw;
    pending_high_water = t.pending_hw;
    notes_seen = t.notes_seen;
  }

(* a recorded history as the note stream its run would have emitted:
   an invoke note at t0, a response note at t1, in cycle order with
   responses first at equal cycles (an op may respond and its
   processor invoke the next in one cycle) *)
let of_history (h : History.t) =
  let npriorities, nprocs =
    List.fold_left
      (fun (np, nc) (e : History.event) ->
        let np =
          match e.op with
          | History.Insert { pri; _ } | History.Delete_min (Some (pri, _)) ->
              max np (pri + 1)
          | History.Delete_min None -> np
        in
        (np, max nc (e.proc + 1)))
      (1, 1) h
  in
  let notes =
    List.concat_map
      (fun (e : History.event) ->
        let invoke, response =
          match e.op with
          | History.Insert { pri; payload; accepted } ->
              let ok = if accepted then Tag.ins_ok else Tag.ins_reject in
              ((Tag.ins_invoke, pri, payload), (ok, pri, payload))
          | History.Delete_min (Some (pri, payload)) ->
              ((Tag.del_invoke, 0, 0), (Tag.del_some, pri, payload))
          | History.Delete_min None ->
              ((Tag.del_invoke, 0, 0), (Tag.del_none, 0, 0))
        in
        [ (e.t0, 1, e.proc, invoke); (e.t1, 0, e.proc, response) ])
      h
    |> List.stable_sort (fun (t, k, _, _) (t', k', _, _) ->
           compare (t, k) (t', k'))
  in
  let m = create ~npriorities ~nprocs in
  List.iter
    (fun (time, _, proc, (tag, a, b)) -> note m ~proc ~time ~tag ~a ~b)
    notes;
  (finalize m ~leftover:[]).rank
