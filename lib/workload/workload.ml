open Pqsim

type spec = {
  queue : string;
  nprocs : int;
  npriorities : int;
  ops_per_proc : int;
  local_work : int;
  insert_bias : int;
  seed : int;
  elim : bool;
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
    elim = true;
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
  hot_lines : (int * int) list;
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
    bin_capacity = total_ops + 1;
    seed = s.seed lxor 0x51ee9;
    ops_per_proc = s.ops_per_proc + (s.prefill / s.nprocs) + 2;
    funnel_config = config;
    funnel_elim = s.elim;
    funnel_cutoff = s.cutoff;
  }

let run ?ops_per_proc ?probe ?policy ?watchdog (s : spec) =
  let s =
    match ops_per_proc with Some o -> { s with ops_per_proc = o } | None -> s
  in
  let inserted = Array.make s.nprocs [] in
  let deleted = Array.make s.nprocs [] in
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
        let per = s.prefill / s.nprocs in
        for k = 1 to per do
          let pri = Api.rand s.npriorities in
          let payload = (pid * 100_000) + s.ops_per_proc + k in
          if q.Pqcore.Pq_intf.insert ~pri ~payload then
            inserted.(pid) <- (pri, payload) :: inserted.(pid)
        done;
        if s.prefill > 0 then Pqsync.Barrier.wait barrier;
        for op = 1 to s.ops_per_proc do
          Api.work s.local_work;
          if Api.rand 100 < s.insert_bias then begin
            let pri = Api.rand s.npriorities in
            let payload = (pid * 100_000) + op in
            let t0 = Api.now () in
            let ok = q.Pqcore.Pq_intf.insert ~pri ~payload in
            Api.timed_since "insert" t0;
            if ok then inserted.(pid) <- (pri, payload) :: inserted.(pid)
          end
          else begin
            let t0 = Api.now () in
            let got = q.Pqcore.Pq_intf.delete_min () in
            Api.timed_since "delete" t0;
            match got with
            | Some entry -> deleted.(pid) <- entry :: deleted.(pid)
            | None -> incr empty_deletes
          end
        done)
      ()
  in
  (* conservation + invariants: a benchmark of a broken queue is worthless *)
  let sorted l = List.sort compare l in
  let all_inserted = sorted (Array.to_list inserted |> List.concat) in
  let all_deleted = Array.to_list deleted |> List.concat in
  let remaining = q.Pqcore.Pq_intf.drain_now result.Sim.mem in
  if all_inserted <> sorted (all_deleted @ remaining) then
    raise
      (Verification_failure
         (Printf.sprintf "%s: conservation violated (%d in, %d out, %d left)"
            s.queue
            (List.length all_inserted)
            (List.length all_deleted)
            (List.length remaining)));
  (match q.Pqcore.Pq_intf.check_now result.Sim.mem with
  | Ok () -> ()
  | Error e ->
      raise (Verification_failure (Printf.sprintf "%s: %s" s.queue e)));
  let stats = result.Sim.stats in
  {
    latency_all = Stats.merge_mean stats [ "insert"; "delete" ];
    latency_insert = Stats.mean stats "insert";
    latency_delete = Stats.mean stats "delete";
    inserts = List.length all_inserted;
    deletes = List.length all_deleted;
    empty_deletes = !empty_deletes;
    cycles = result.Sim.cycles;
    queue_wait = result.Sim.queue_wait;
    hot_lines = Mem.hot_lines result.Sim.mem 5;
    mem = result.Sim.mem;
  }
