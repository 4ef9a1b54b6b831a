open Pqsim

type spec = {
  queue : string;
  nprocs : int;
  npriorities : int;
  ops_per_proc : int;
  local_work : int;
  insert_bias : int;
  seed : int;
  adaptive : bool;
  cutoff : int;
  machine : Pqsim.Machine.t option;
  prefill : int;  (* elements inserted (untimed) before measuring *)
}

let spec ~queue ~nprocs ~npriorities =
  {
    queue;
    nprocs;
    npriorities;
    ops_per_proc = 40;
    local_work = 20;
    insert_bias = 50;
    seed = 42;
    adaptive = true;
    cutoff = 4;
    machine = None;
    prefill = 0;
  }

type result = {
  latency_all : float;
  latency_insert : float;
  latency_delete : float;
  inserts : int;
  deletes : int;
  empty_deletes : int;
  cycles : int;
  queue_wait : int;
  mem : Pqsim.Mem.t;  (* final memory: labels and per-line profiles *)
}

exception Verification_failure of string

let params_of (s : spec) : Pqcore.Pq_intf.params =
  let total_ops = (s.nprocs * s.ops_per_proc) + s.prefill in
  let config =
    if s.adaptive then None
    else
      Some
        {
          (Pqfunnel.Engine.default_config ~nprocs:s.nprocs) with
          adaptive = false;
        }
  in
  {
    nprocs = s.nprocs;
    npriorities = s.npriorities;
    capacity = total_ops + 1;
    seed = s.seed lxor 0x51ee9;
    ops_per_proc = s.ops_per_proc + (s.prefill / s.nprocs) + 2;
    funnel_config = config;
    funnel_cutoff = s.cutoff;
  }

module Ledger = struct
  (* Processor [pid]'s [j]-th insert carries payload [pid * 100_000 + j],
     [1 <= j <= stride].  The insert log is indexed by that payload:
     [inserted.(pid).(j)] is [pri + 1] while the element is unaccounted
     for, 0 otherwise.  Deleted elements go to per-processor arrays.

     A reused ledger keeps its arrays, which may be larger than its
     current [nprocs] and [stride]: every access stays within those two,
     and its insert log is all zero when it is handed back. *)
  type t = {
    mutable nprocs : int;
    mutable stride : int;
    inserted : int array array;
    deleted_pri : int array array;
    deleted_payload : int array array;
    deleted : int array; (* per-processor count *)
    mutable inserts : int;
    mutable balanced : bool; (* the last [balances] answered true *)
  }

  let per_pid = 100_000
  let payload ~pid ~j = (pid * per_pid) + j

  let create ~nprocs ~stride =
    let logs n = Array.init nprocs (fun _ -> Array.make n 0) in
    {
      nprocs;
      stride;
      inserted = logs (stride + 1);
      deleted_pri = logs stride;
      deleted_payload = logs stride;
      deleted = Array.make nprocs 0;
      inserts = 0;
      balanced = false;
    }

  (* the domain's spare: a ledger whose last run balanced *)
  let spare = Domain.DLS.new_key (fun () -> ref None)

  let take ~nprocs ~stride =
    let slot = Domain.DLS.get spare in
    match !slot with
    | Some t
      when Array.length t.inserted >= nprocs
           && Array.for_all (fun log -> Array.length log > stride) t.inserted
      ->
        slot := None;
        t.nprocs <- nprocs;
        t.stride <- stride;
        Array.fill t.deleted 0 (Array.length t.deleted) 0;
        t.inserts <- 0;
        t.balanced <- false;
        t
    | _ ->
        slot := None;
        create ~nprocs ~stride

  let give_back t = if t.balanced then Domain.DLS.get spare := Some t

  let insert t ~pid ~j ~pri =
    if pid >= t.nprocs || j > t.stride then
      invalid_arg "Workload.Ledger.insert: past nprocs or stride";
    t.inserted.(pid).(j) <- pri + 1;
    t.inserts <- t.inserts + 1

  let delete t ~pid ~pri ~payload =
    let k = t.deleted.(pid) in
    (* a processor returns at most [stride] elements unless its queue
       duplicates or invents some: double its arrays then *)
    if k = Array.length t.deleted_pri.(pid) then begin
      let grow a = Array.append a (Array.make (max 1 k) 0) in
      t.deleted_pri.(pid) <- grow t.deleted_pri.(pid);
      t.deleted_payload.(pid) <- grow t.deleted_payload.(pid)
    end;
    t.deleted_pri.(pid).(k) <- pri;
    t.deleted_payload.(pid).(k) <- payload;
    t.deleted.(pid) <- k + 1

  let inserts t = t.inserts
  let deletes t = Array.fold_left ( + ) 0 t.deleted

  (* take (pri, payload) out of the insert log, trying processor [pid]
     and then lower ones: once [stride] reaches [per_pid] a payload names
     several (pid, j) *)
  let rec remove t ~pri ~payload pid =
    let j = payload - (pid * per_pid) in
    pid >= 0 && j <= t.stride
    && ((pid < t.nprocs && j >= 1
        && t.inserted.(pid).(j) = pri + 1
        && begin
             t.inserted.(pid).(j) <- 0;
             true
           end)
       || remove t ~pri ~payload (pid - 1))

  (* no entry of the insert log is left from processor [pid]'s [j]-th on *)
  let rec log_empty t pid j =
    pid = t.nprocs
    || (j > t.stride && log_empty t (pid + 1) 0)
    || (j <= t.stride && t.inserted.(pid).(j) = 0 && log_empty t pid (j + 1))

  (* Every deleted or remaining (pri, payload) takes its entry out of the
     insert log — failing if none is there (a duplicated or invented
     element) — and the log must end empty (no element lost).  O(n); it
     consumes the log. *)
  let balances t ~remaining =
    let ok = ref true in
    let take_out ~pri ~payload =
      if not (remove t ~pri ~payload (payload / per_pid)) then ok := false
    in
    for pid = 0 to t.nprocs - 1 do
      for k = 0 to t.deleted.(pid) - 1 do
        take_out ~pri:t.deleted_pri.(pid).(k)
          ~payload:t.deleted_payload.(pid).(k)
      done
    done;
    List.iter (fun (pri, payload) -> take_out ~pri ~payload) remaining;
    t.balanced <- !ok && log_empty t 0 0;
    t.balanced
end

let run ?ops_per_proc ?probe ?policy ?watchdog (s : spec) =
  let s =
    match ops_per_proc with Some o -> { s with ops_per_proc = o } | None -> s
  in
  let per = s.prefill / s.nprocs in
  let ledger = Ledger.take ~nprocs:s.nprocs ~stride:(s.ops_per_proc + per) in
  let empty_deletes = ref 0 in
  let (q, _), result =
    Sim.run ?machine:s.machine ?probe ?policy ?watchdog ~nprocs:s.nprocs
      ~seed:s.seed
      ~setup:(fun mem ->
        let q = Pqcore.Registry.create s.queue mem (params_of s) in
        let barrier = Pqsync.Barrier.create mem ~nprocs:s.nprocs in
        (q, barrier))
      ~program:(fun (q, barrier) pid ->
        (* untimed prefill phase, ended by a barrier (quiescent point) *)
        for k = 1 to per do
          let pri = Api.rand s.npriorities in
          let j = s.ops_per_proc + k in
          if q.Pqcore.Pq_intf.insert ~pri ~payload:(Ledger.payload ~pid ~j)
          then Ledger.insert ledger ~pid ~j ~pri
        done;
        if s.prefill > 0 then Pqsync.Barrier.wait barrier;
        for op = 1 to s.ops_per_proc do
          Api.work s.local_work;
          if Api.rand 100 < s.insert_bias then begin
            let pri = Api.rand s.npriorities in
            let payload = Ledger.payload ~pid ~j:op in
            let t0 = Api.now () in
            let ok = q.Pqcore.Pq_intf.insert ~pri ~payload in
            Api.timed_since "insert" t0;
            if ok then Ledger.insert ledger ~pid ~j:op ~pri
          end
          else begin
            let t0 = Api.now () in
            let got = q.Pqcore.Pq_intf.delete_min () in
            Api.timed_since "delete" t0;
            match got with
            | Some (pri, payload) -> Ledger.delete ledger ~pid ~pri ~payload
            | None -> incr empty_deletes
          end
        done)
      ()
  in
  (* conservation + invariants: a benchmark of a broken queue is worthless *)
  let inserts = Ledger.inserts ledger and deletes = Ledger.deletes ledger in
  let remaining = q.Pqcore.Pq_intf.drain_now result.Sim.mem in
  if not (Ledger.balances ledger ~remaining) then
    raise
      (Verification_failure
         (Printf.sprintf "%s: conservation violated (%d in, %d out, %d left)"
            s.queue inserts deletes (List.length remaining)));
  (match q.Pqcore.Pq_intf.check_now result.Sim.mem with
  | Ok () -> ()
  | Error e ->
      raise (Verification_failure (Printf.sprintf "%s: %s" s.queue e)));
  (* only a run that verified hands its ledger on, its insert log empty *)
  Ledger.give_back ledger;
  let stats = result.Sim.stats in
  {
    latency_all = Stats.merge_mean stats [ "insert"; "delete" ];
    latency_insert = Stats.mean stats "insert";
    latency_delete = Stats.mean stats "delete";
    inserts;
    deletes;
    empty_deletes = !empty_deletes;
    cycles = result.Sim.cycles;
    queue_wait = result.Sim.queue_wait;
    mem = result.Sim.mem;
  }
