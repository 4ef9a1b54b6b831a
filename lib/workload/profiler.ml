(* Probed benchmark drivers: the bridge between the workload driver and
   the pqtrace observability subsystem.  Each run attaches a passive
   probe, so the numbers it reports are exactly those of the unprobed
   benchmark — plus the metrics and per-line traffic the probe collects. *)

type report = {
  queue : string;
  nprocs : int;
  latency : float; (* cycles per access *)
  cycles : int;
  derived : Pqtrace.Metrics.derived;
  hottest : Pqtrace.Profile.row list;
}

let spec_of ?(npriorities = 16) ?seed ~queue ~nprocs () =
  let s = Workload.spec ~queue ~nprocs ~npriorities in
  match seed with Some seed -> { s with Workload.seed } | None -> s

let profile_queue ?npriorities ?seed ?ops_per_proc ?(top = 10) ~queue ~nprocs
    () =
  let s = spec_of ?npriorities ?seed ~queue ~nprocs () in
  let metrics = Pqsim.Stats.create () in
  let probe = Pqsim.Probe.make ~metrics () in
  let r = Workload.run ?ops_per_proc ~probe s in
  {
    queue;
    nprocs;
    latency = r.Workload.latency_all;
    cycles = r.Workload.cycles;
    derived = Pqtrace.Metrics.derive metrics;
    hottest = Pqtrace.Profile.of_mem ~top r.Workload.mem;
  }

let trace_queue ?npriorities ?seed ?ops_per_proc ?limit ~queue ~nprocs () =
  let s = spec_of ?npriorities ?seed ~queue ~nprocs () in
  let recorder = Pqtrace.Recorder.create ?limit () in
  let r = Workload.run ?ops_per_proc ~probe:(Pqtrace.Recorder.probe recorder) s in
  (recorder, r)

let pp_report ppf r =
  Format.fprintf ppf "@[<v>== %s, P=%d ==@,latency %.0f cycles/op, makespan %d cycles@,%a@,hottest cache lines:@,%a@]"
    r.queue r.nprocs r.latency r.cycles Pqtrace.Metrics.pp r.derived
    Pqtrace.Profile.pp r.hottest
