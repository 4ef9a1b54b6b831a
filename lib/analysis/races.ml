open Pqsim

(* Vector-clock happens-before race detection over the probe event
   stream.  See DESIGN.md §13 for the model; the short version:

   - every costed memory operation of processor [p] is an event; [p]'s
     vector clock ticks after each one;
   - read-modify-write operations (swap, both CAS outcomes, FAA) are
     synchronization operations: they acquire the line's release clock,
     and the successful ones release the processor's clock into it;
   - plain writes release into the line's clock (they are what a later
     waiter or RMW synchronizes with) but do not acquire;
   - plain reads of a line declared with [Mem.declare_sync] acquire the
     line's release clock — under the simulator's sequentially
     consistent memory a read really does observe every release that
     reached the line, so the edge is sound;
   - a completed [Wait_change] ([Probe.Wake], emitted whether or not the
     waiter parked) acquires the watched line's release clock;
   - accesses to undeclared (data) lines are checked: two accesses to
     the same line from different processors, at least one a write,
     neither ordered by the above edges, and not both synchronization
     operations, constitute a race. *)

type dir = R | W

type access = {
  proc : int;
  kind : Probe.mem_kind;
  time : int;
  sync : bool;  (** a synchronization access (RMW, or on a declared line) *)
}

type race = {
  addr : int;
  label : string option;
  first : access;
  second : access;
  second_clock : int array;
      (** the second (detecting) processor's vector clock at the moment
          of the race; entry [first.proc] < the first access's epoch is
          what makes the pair concurrent *)
  first_epoch : int;
  count : int;  (** occurrences of this (line, direction) signature *)
}

let dir_of = function
  | Probe.Read | Probe.Cas_fail -> R
  | Probe.Write | Probe.Swap | Probe.Cas_ok | Probe.Faa -> W

let dir_name = function R -> "read" | W -> "write"

(* ------------------------------------------------------------------ *)
(* Event capture: a passive, buffering probe sink.                     *)

type obs = {
  mutable events : (int * int * Probe.ev) array;
  mutable len : int;
}

let observer () = { events = Array.make 1024 (0, 0, Probe.Crash); len = 0 }

let sink obs =
  let emit ~proc ~time ev =
    if obs.len = Array.length obs.events then begin
      let bigger = Array.make (2 * obs.len) (0, 0, Probe.Crash) in
      Array.blit obs.events 0 bigger 0 obs.len;
      obs.events <- bigger
    end;
    obs.events.(obs.len) <- (proc, time, ev);
    obs.len <- obs.len + 1
  in
  { Probe.emit }

let probe ?metrics obs = Probe.make ~sink:(sink obs) ?metrics ()

let events obs = obs.len

(* ------------------------------------------------------------------ *)
(* The detector.                                                       *)

type line = {
  mutable lc : int array option;  (* release clock, lazily allocated *)
  mutable last_write : (access * int) option;  (* access, epoch *)
  reads : (access * int) option array;  (* per proc *)
}

let join ~into src =
  for i = 0 to Array.length src - 1 do
    if src.(i) > into.(i) then into.(i) <- src.(i)
  done

let analyze ~mem obs =
  let nprocs =
    let m = ref 0 in
    for i = 0 to obs.len - 1 do
      let p, _, _ = obs.events.(i) in
      if p >= !m then m := p + 1
    done;
    !m
  in
  if nprocs = 0 then []
  else begin
    (* each processor's own entry starts at 1: an event's epoch is the
       entry's value at the event (so the first event has epoch 1, and a
       release covers the releasing event itself), and entry q of another
       processor's clock is 0 until it synchronizes with q — making
       [hb]'s [epoch <= vc.(p).(q)] false for unsynchronized accesses *)
    let vc = Array.init nprocs (fun p -> Array.init nprocs (fun q -> if p = q then 1 else 0)) in
    let lines : (int, line) Hashtbl.t = Hashtbl.create 1024 in
    let line_of addr =
      match Hashtbl.find_opt lines addr with
      | Some l -> l
      | None ->
          let l =
            { lc = None; last_write = None; reads = Array.make nprocs None }
          in
          Hashtbl.add lines addr l;
          l
    in
    let acquire p l =
      match l.lc with Some c -> join ~into:vc.(p) c | None -> ()
    in
    let release p l =
      match l.lc with
      | Some c -> join ~into:c vc.(p)
      | None -> l.lc <- Some (Array.copy vc.(p))
    in
    (* deduplicate by line and access-direction signature *)
    let found : (int * dir * dir, race) Hashtbl.t = Hashtbl.create 64 in
    let report addr (h, he) cur =
      let key = (addr, dir_of h.kind, dir_of cur.kind) in
      match Hashtbl.find_opt found key with
      | Some r -> Hashtbl.replace found key { r with count = r.count + 1 }
      | None ->
          Hashtbl.add found key
            {
              addr;
              label = Mem.name_of mem addr;
              first = h;
              second = cur;
              second_clock = Array.copy vc.(cur.proc);
              first_epoch = he;
              count = 1;
            }
    in
    let hb (h, epoch) p = h.proc = p || epoch <= vc.(p).(h.proc) in
    for i = 0 to obs.len - 1 do
      let p, time, ev = obs.events.(i) in
      match ev with
      | Probe.Mem_op { kind; addr; _ } ->
          let l = line_of addr in
          let on_sync_line = Mem.is_sync mem addr in
          let rmw =
            match kind with
            | Probe.Swap | Probe.Cas_ok | Probe.Cas_fail | Probe.Faa -> true
            | Probe.Read | Probe.Write -> false
          in
          let sync = on_sync_line || rmw in
          let write_like = dir_of kind = W in
          (* acquire: RMWs always; plain reads on declared lines *)
          if rmw || (on_sync_line && kind = Probe.Read) then acquire p l;
          (* race check against unordered prior accesses *)
          let cur = { proc = p; kind; time; sync } in
          let check h =
            let a, _ = h in
            if a.proc <> p && (not (a.sync && sync)) && not (hb h p) then
              report addr h cur
          in
          (match l.last_write with Some h -> check h | None -> ());
          if write_like then
            Array.iter (function Some h -> check h | None -> ()) l.reads;
          (* record and release *)
          let epoch = vc.(p).(p) in
          if write_like then begin
            l.last_write <- Some (cur, epoch);
            release p l
          end
          else l.reads.(p) <- Some (cur, epoch);
          vc.(p).(p) <- epoch + 1
      | Probe.Wake { addr } -> acquire p (line_of addr)
      | Probe.Park _ | Probe.Stall _ | Probe.Crash | Probe.Mark _
      | Probe.Span _ ->
          ()
    done;
    Hashtbl.fold (fun _ r acc -> r :: acc) found []
    |> List.sort (fun a b ->
           compare (a.addr, a.first.time, a.second.time)
             (b.addr, b.first.time, b.second.time))
  end

(* ------------------------------------------------------------------ *)
(* Reporting.                                                          *)

let pp_access ppf a =
  Format.fprintf ppf "p%d %s @@%d%s" a.proc
    (Probe.mem_kind_name a.kind)
    a.time
    (if a.sync then " (sync)" else "")

let pp_clock ppf c =
  Format.fprintf ppf "[%s]"
    (String.concat ";" (Array.to_list (Array.map string_of_int c)))

let pp_race ppf r =
  Format.fprintf ppf "@[<v2>%s (addr %d), %d occurrence%s:@,first  %a@,second %a@,second's clock %a, first's epoch %d@]"
    (match r.label with Some l -> l | None -> "<unlabelled>")
    r.addr r.count
    (if r.count = 1 then "" else "s")
    pp_access r.first pp_access r.second pp_clock r.second_clock r.first_epoch
