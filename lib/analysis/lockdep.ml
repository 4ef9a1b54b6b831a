open Pqsim

(* Lock-order inference and lock-discipline checking over the probe
   note stream.  See DESIGN.md §18 for the model; the short version:

   - the Pqsync locks (and the hostpq Hlock wrapper) emit one
     [Probe.Lock_tag] note per ownership transition: [acquire] after
     ownership, [release] at the start of the release, [try_fail] on a
     failed non-blocking attempt (never ownership);
   - the analyzer folds the stream into per-processor locksets and a
     lock-order graph: acquiring B while holding A adds the edge A→B
     with a witness (who, when, under which schedule);
   - a cycle in the graph is a *potential* deadlock: two processors
     following the witnessed orders in opposite interleavings can
     block forever, even if no schedule explored so far hung;
   - lockset bookkeeping doubles as a discipline check: releasing a
     lock not held is a double release when the processor released it
     before (the PR 5 HuntEtAl bug class), otherwise a release without
     hold; locks still held when the stream ends are leaks.

   Everything here is offline and allocation-happy; the probed run
   itself only appends fixed-size tuples to the observation buffer. *)

(* ------------------------------------------------------------------ *)
(* Event capture: a passive, buffering note consumer.                  *)

type lock_ev = Acquire of bool (* contended *) | Release | Try_fail

type obs = {
  mutable events : (int * int * int * lock_ev) array;
      (* proc, time, lock addr, event *)
  mutable len : int;
}

let observer () = { events = Array.make 256 (0, 0, 0, Release); len = 0 }

(* The note channel multiplexes protocols (workload op tags, lock
   tags); consume the lock vocabulary, ignore everything else. *)
let feed obs ~proc ~time ~tag ~a ~b =
  let ev =
    if tag = Probe.Lock_tag.acquire then Some (Acquire (b <> 0))
    else if tag = Probe.Lock_tag.release then Some Release
    else if tag = Probe.Lock_tag.try_fail then Some Try_fail
    else None
  in
  match ev with
  | None -> ()
  | Some ev ->
      if obs.len = Array.length obs.events then begin
        let bigger = Array.make (2 * obs.len) (0, 0, 0, Release) in
        Array.blit obs.events 0 bigger 0 obs.len;
        obs.events <- bigger
      end;
      obs.events.(obs.len) <- (proc, time, a, ev);
      obs.len <- obs.len + 1

let probe ?metrics obs =
  let note ~proc ~time ~tag ~a ~b = feed obs ~proc ~time ~tag ~a ~b in
  Probe.make ~notes:{ Probe.note } ?metrics ()

let events obs = obs.len

(* ------------------------------------------------------------------ *)
(* The analyzer.                                                       *)

type witness = { proc : int; held_since : int; time : int; sched : string }

type edge = { src : string; dst : string; count : int; witness : witness }

type disc_kind = Release_without_hold | Double_release | Held_at_quiescence

type disc = {
  kind : disc_kind;
  proc : int;
  lock : string;
  time : int;  (** first occurrence *)
  occurrences : int;
}

type analysis = {
  events_seen : int;
  try_fails : int;
  locks : string list;
  edges : edge list;
  disc : disc list;
}

let empty =
  { events_seen = 0; try_fails = 0; locks = []; edges = []; disc = [] }

let edge_compare a b = compare (a.src, a.dst) (b.src, b.dst)

let disc_compare a b =
  compare (a.kind, a.lock, a.proc, a.time) (b.kind, b.lock, b.proc, b.time)

let analyze ?(sched = "default") ?label ?(quiescent = true) obs =
  (* memoized: labels resolve by a scan of every registration
     (Mem.name_of), and every acquire keys each lock already held *)
  let keys = Hashtbl.create 64 in
  let key addr =
    match Hashtbl.find_opt keys addr with
    | Some k -> k
    | None ->
        let k =
          match Option.bind label (fun f -> f addr) with
          | Some l -> l
          | None -> Printf.sprintf "addr:%d" addr
        in
        Hashtbl.add keys addr k;
        k
  in
  let nprocs =
    let m = ref 0 in
    for i = 0 to obs.len - 1 do
      let p, _, _, _ = obs.events.(i) in
      if p >= !m then m := p + 1
    done;
    !m
  in
  (* per-processor lockset: lock addr -> acquisition time *)
  let held : (int, int) Hashtbl.t array =
    Array.init nprocs (fun _ -> Hashtbl.create 4)
  in
  (* per (proc, lock) release history, for the double-release split *)
  let released : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let locks : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let edges : (string * string, edge) Hashtbl.t = Hashtbl.create 16 in
  let discs : (disc_kind * int * int, disc) Hashtbl.t = Hashtbl.create 4 in
  let report kind proc lock time =
    let k = (kind, proc, lock) in
    match Hashtbl.find_opt discs k with
    | Some d -> Hashtbl.replace discs k { d with occurrences = d.occurrences + 1 }
    | None ->
        Hashtbl.add discs k
          { kind; proc; lock = key lock; time; occurrences = 1 }
  in
  let try_fails = ref 0 in
  for i = 0 to obs.len - 1 do
    let p, time, lock, ev = obs.events.(i) in
    match ev with
    | Acquire _ ->
        Hashtbl.replace locks lock ();
        (* order edge h → lock for every lock already held *)
        Hashtbl.iter
          (fun h since ->
            if h <> lock then begin
              let k = (key h, key lock) in
              match Hashtbl.find_opt edges k with
              | Some e -> Hashtbl.replace edges k { e with count = e.count + 1 }
              | None ->
                  let src, dst = k in
                  Hashtbl.add edges k
                    {
                      src;
                      dst;
                      count = 1;
                      witness = { proc = p; held_since = since; time; sched };
                    }
            end)
          held.(p);
        Hashtbl.replace held.(p) lock time
    | Release ->
        Hashtbl.replace locks lock ();
        if Hashtbl.mem held.(p) lock then begin
          Hashtbl.remove held.(p) lock;
          Hashtbl.replace released (p, lock) ()
        end
        else if Hashtbl.mem released (p, lock) then
          report Double_release p lock time
        else report Release_without_hold p lock time
    | Try_fail ->
        (* a failed attempt never implies ownership: no lockset change,
           no order edge — only the attempt count *)
        Hashtbl.replace locks lock ();
        incr try_fails
  done;
  if quiescent then
    Array.iteri
      (fun p tbl ->
        Hashtbl.iter (fun lock since -> report Held_at_quiescence p lock since) tbl)
      held;
  {
    events_seen = obs.len;
    try_fails = !try_fails;
    locks =
      Hashtbl.fold (fun l () acc -> key l :: acc) locks []
      |> List.sort_uniq compare;
    edges =
      Hashtbl.fold (fun _ e acc -> e :: acc) edges [] |> List.sort edge_compare;
    disc =
      Hashtbl.fold (fun _ d acc -> d :: acc) discs [] |> List.sort disc_compare;
  }

let merge analyses =
  (* lock identities are symbolic by this point: runs merge by label,
     so per-seed address drift (there is none today) cannot split a
     node.  First witness in run order wins; counts accumulate. *)
  let edges : (string * string, edge) Hashtbl.t = Hashtbl.create 16 in
  let discs : (disc_kind * string * int, disc) Hashtbl.t = Hashtbl.create 4 in
  let events_seen = ref 0 and try_fails = ref 0 and locks = ref [] in
  List.iter
    (fun a ->
      events_seen := !events_seen + a.events_seen;
      try_fails := !try_fails + a.try_fails;
      locks := a.locks @ !locks;
      List.iter
        (fun e ->
          let k = (e.src, e.dst) in
          match Hashtbl.find_opt edges k with
          | Some e0 -> Hashtbl.replace edges k { e0 with count = e0.count + e.count }
          | None -> Hashtbl.add edges k e)
        a.edges;
      List.iter
        (fun d ->
          let k = (d.kind, d.lock, d.proc) in
          match Hashtbl.find_opt discs k with
          | Some d0 ->
              Hashtbl.replace discs k
                { d0 with occurrences = d0.occurrences + d.occurrences }
          | None -> Hashtbl.add discs k d)
        a.disc)
    analyses;
  {
    events_seen = !events_seen;
    try_fails = !try_fails;
    locks = List.sort_uniq compare !locks;
    edges =
      Hashtbl.fold (fun _ e acc -> e :: acc) edges [] |> List.sort edge_compare;
    disc =
      Hashtbl.fold (fun _ d acc -> d :: acc) discs [] |> List.sort disc_compare;
  }

(* ------------------------------------------------------------------ *)
(* Cycle detection: Tarjan SCC over the lock-order graph.  A strongly
   connected component of two or more locks — or a self-loop, which the
   edge builder cannot produce but a merged host trace could — is a
   potential deadlock: each edge is witnessed by a real acquisition
   history, so schedules interleaving those histories in opposite
   orders can block forever, whether or not any explored schedule
   hung. *)

let cycles analysis =
  let nodes = Array.of_list analysis.locks in
  let n = Array.length nodes in
  let index_of = Hashtbl.create n in
  Array.iteri (fun i l -> Hashtbl.add index_of l i) nodes;
  let succs = Array.make n [] in
  let self_loop = Array.make n false in
  List.iter
    (fun e ->
      let s = Hashtbl.find index_of e.src and d = Hashtbl.find index_of e.dst in
      if s = d then self_loop.(s) <- true
      else succs.(s) <- d :: succs.(s))
    analysis.edges;
  Array.iteri (fun i l -> succs.(i) <- List.rev l) succs;
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] and next = ref 0 and sccs = ref [] in
  let rec strongconnect v =
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          if low.(w) < low.(v) then low.(v) <- low.(w)
        end
        else if on_stack.(w) && index.(w) < low.(v) then low.(v) <- index.(w))
      succs.(v);
    if low.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      let scc = pop [] in
      if List.length scc > 1 || (match scc with [ v ] -> self_loop.(v) | _ -> false)
      then sccs := scc :: !sccs
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  !sccs
  |> List.map (fun scc -> List.map (fun i -> nodes.(i)) scc |> List.sort compare)
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Findings and signatures.                                           *)

type finding = Cycle of string list | Discipline of disc

let disc_kind_name = function
  | Release_without_hold -> "release-without-hold"
  | Double_release -> "double-release"
  | Held_at_quiescence -> "held-at-quiescence"

let signature = function
  | Cycle locks -> "cycle: " ^ String.concat " -> " locks
  | Discipline d -> Printf.sprintf "%s p%d %s" (disc_kind_name d.kind) d.proc d.lock

(* ------------------------------------------------------------------ *)
(* Reporting.                                                          *)

let pp_edge ppf e =
  Format.fprintf ppf "%s -> %s (%d acq%s; first p%d @@%d holding since @@%d, %s)"
    e.src e.dst e.count
    (if e.count = 1 then "" else "s")
    e.witness.proc e.witness.time e.witness.held_since e.witness.sched
