(* The adapt gate: run the phase-shifted workload (uniform-heavy →
   skewed-low → uniform-heavy) over the adaptive meta-queue and both of
   its backends run statically, then check that the meta-queue (a)
   switched at least once in each direction and (b) lands within
   [factor] of the best static backend's per-phase mean latency while
   strictly beating the worst. *)

module Stats = Pqsim.Stats
module Probe = Pqsim.Probe
module Scenario = Pqbenchlib.Scenario
module Pool = Pqbenchlib.Pool
module Json = Pqtrace.Json

type config = {
  nprocs : int;
  npriorities : int;
  phase_ops : int;  (** per-processor ops in each of the three phases *)
  seed : int;
  factor : float;  (** allowed ratio to the best static backend *)
  meta : Meta.config;
}

(* Rate thresholds scale with the processor count: the classifier sees
   the global completion rate, and both regimes' per-processor service
   times are roughly machine constants (heavy ≈ access-dominated,
   light ≈ gap-dominated).  Tuned on the default machine; see
   DESIGN.md §17. *)
let classifier_for ~nprocs =
  {
    Classifier.default with
    heavy_rate = 0.32 *. float nprocs;
    light_rate = 0.22 *. float nprocs;
    lock_wait_heavy = 200. *. float nprocs;
  }

let default =
  let nprocs = 16 in
  {
    nprocs;
    npriorities = 256;
    phase_ops = 150;
    seed = 42;
    factor = 1.5;
    meta =
      {
        Meta.default with
        classifier = classifier_for ~nprocs;
        initial = Classifier.Heavy;
      };
  }

let quick = { default with phase_ops = 100 }

let nphases = 3
let phase_names = [| "uniform-heavy"; "skewed-low"; "uniform-heavy'" |]

(* the skewed-low phase's extra local work per access and Zipf
   exponent, and both phases' insert percentage *)
let gap = 6000
let skew = 1.2
let bias = 40

let workload =
  Scenario.phased ~name:"adapt-shift"
    ~descr:"uniform-heavy -> skewed-low -> uniform-heavy"
    (fun ~nprocs:_ ~pid:_ ~ops_per_proc ->
      [
        Scenario.Mixed { ops = ops_per_proc; bias };
        Scenario.Trickle { ops = ops_per_proc; bias; skew; gap };
        Scenario.Mixed { ops = ops_per_proc; bias };
      ])

type phase_stat = { ph_mean : float; ph_count : int }

type run = {
  r_queue : string;
  r_cycles : int;
  r_phases : phase_stat array;
  r_check : (unit, string) result;
  r_aborted : string option;
}

type report = {
  cfg : config;
  adaptive : run;
  statics : run list;  (** [light; heavy], run statically *)
  switches : Meta.switch list;
  to_heavy : int;
  to_light : int;
  windows : int;
  errors : string list;  (** gate verdicts; [] is a pass *)
}

let phases_of (o : Scenario.outcome) =
  Array.init nphases (fun i ->
      match Stats.summary o.stats (Scenario.phase_key i) with
      | Some s -> { ph_mean = s.mean; ph_count = s.count }
      | None -> { ph_mean = 0.; ph_count = 0 })

let mk_run label (o : Scenario.outcome) =
  {
    r_queue = label;
    r_cycles = o.cycles;
    r_phases = phases_of o;
    r_check = o.check;
    r_aborted = Option.map Printexc.to_string o.aborted;
  }

let run_sim_with c ?probe ?create ~queue () =
  Scenario.run_sim ?probe ?create ~phase_timing:true ~queue ~nprocs:c.nprocs
    ~npriorities:c.npriorities ~ops_per_proc:c.phase_ops ~seed:c.seed
    workload

let run_adaptive c =
  let metrics = Stats.create () in
  let probe = Probe.make ~metrics () in
  let st = ref None in
  let create mem params =
    let q, s = Meta.create ~metrics c.meta mem params in
    st := Some s;
    q
  in
  let o = run_sim_with c ~probe ~create ~queue:"Adaptive" () in
  (mk_run "Adaptive" o, !st)

let run_static c name = mk_run name (run_sim_with c ~queue:name ())

(* The gate proper, separated so tests can re-judge a report. *)
let judge (r : report) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let all_runs = r.adaptive :: r.statics in
  List.iter
    (fun run ->
      (match run.r_aborted with
      | Some e -> err "%s: aborted: %s" run.r_queue e
      | None -> ());
      match run.r_check with
      | Error e -> err "%s: check failed: %s" run.r_queue e
      | Ok () -> ())
    all_runs;
  if r.to_heavy < 1 then err "no light->heavy switch";
  if r.to_light < 1 then err "no heavy->light switch";
  for i = 0 to nphases - 1 do
    let a = r.adaptive.r_phases.(i) in
    if a.ph_count = 0 then err "phase %d: no adaptive samples" i
    else begin
      let means =
        List.map (fun s -> (s.r_queue, s.r_phases.(i).ph_mean)) r.statics
      in
      let by_mean = List.sort (fun (_, x) (_, y) -> compare x y) means in
      match (by_mean, List.rev by_mean) with
      | (bq, best) :: _, (wq, worst) :: _ ->
          if a.ph_mean > r.cfg.factor *. best then
            err "phase %d: adaptive %.1f > %.2fx best static (%s %.1f)" i
              a.ph_mean r.cfg.factor bq best;
          if a.ph_mean >= worst then
            err "phase %d: adaptive %.1f not better than worst static (%s %.1f)"
              i a.ph_mean wq worst
      | _ -> err "phase %d: no static runs" i
    end
  done;
  List.rev !errs

let run ?(jobs = 1) c =
  Meta.validate c.meta;
  let tasks = `Adaptive :: List.map (fun n -> `Static n) (Meta.backends c.meta) in
  let results =
    Pool.map ~jobs
      (function
        | `Adaptive ->
            let r, st = run_adaptive c in
            (r, st)
        | `Static n -> (run_static c n, None))
      tasks
  in
  let adaptive, st, statics =
    match results with
    | (a, st) :: rest -> (a, st, List.map fst rest)
    | [] -> assert false
  in
  let switches = match st with Some s -> Meta.switches s | None -> [] in
  let dir r = List.length (List.filter (fun s -> s.Meta.sw_regime = r) switches) in
  let report =
    {
      cfg = c;
      adaptive;
      statics;
      switches;
      to_heavy = dir "heavy";
      to_light = dir "light";
      windows = (match st with Some s -> Meta.windows s | None -> 0);
      errors = [];
    }
  in
  { report with errors = judge report }

(* the BENCH.json section: same numbers the gate judged, in the
   schema-stable shape Bench_out validates *)
let to_json (r : report) =
  let open Json in
  let phase i =
    let by_mean =
      List.map (fun s -> (s.r_queue, s.r_phases.(i).ph_mean)) r.statics
      |> List.sort (fun (_, x) (_, y) -> compare x y)
    in
    let bq, best = match by_mean with b :: _ -> b | [] -> ("none", 0.) in
    let wq, worst =
      match List.rev by_mean with w :: _ -> w | [] -> ("none", 0.)
    in
    Json.Obj
      [
        ("phase", String phase_names.(i));
        ("adaptive", Float r.adaptive.r_phases.(i).ph_mean);
        ("best_queue", String bq);
        ("best", Float best);
        ("worst_queue", String wq);
        ("worst", Float worst);
      ]
  in
  let switch (s : Meta.switch) =
    Json.Obj
      [
        ("cycle", Int s.sw_at);
        ("from", String s.sw_from);
        ("to", String s.sw_to);
        ("regime", String s.sw_regime);
        ("moved", Int s.sw_moved);
      ]
  in
  Json.Obj
    [
      ("nprocs", Int r.cfg.nprocs);
      ("npriorities", Int r.cfg.npriorities);
      ("ops_per_phase", Int r.cfg.phase_ops);
      ("factor", Float r.cfg.factor);
      ("light", String r.cfg.meta.Meta.light);
      ("heavy", String r.cfg.meta.Meta.heavy);
      ("windows", Int r.windows);
      ("pass", Bool (r.errors = []));
      ("phases", List (List.init nphases phase));
      ("switches", List (List.map switch r.switches));
    ]

let pp_report ppf (r : report) =
  let open Format in
  fprintf ppf "adapt gate: %s vs static {%s}@," r.adaptive.r_queue
    (String.concat ", " (List.map (fun s -> s.r_queue) r.statics));
  fprintf ppf
    "config: procs %d, priorities %d, %d ops/proc/phase, seed %d, gap %d, \
     skew %.2f, factor %.2fx@,"
    r.cfg.nprocs r.cfg.npriorities r.cfg.phase_ops r.cfg.seed gap skew
    r.cfg.factor;
  fprintf ppf "@,%-28s" "phase";
  fprintf ppf "%16s" r.adaptive.r_queue;
  List.iter (fun s -> fprintf ppf "%16s" s.r_queue) r.statics;
  fprintf ppf "@,";
  for i = 0 to nphases - 1 do
    fprintf ppf "%d %-26s" i phase_names.(i);
    fprintf ppf "%16.1f" r.adaptive.r_phases.(i).ph_mean;
    List.iter (fun s -> fprintf ppf "%16.1f" s.r_phases.(i).ph_mean) r.statics;
    fprintf ppf "@,"
  done;
  fprintf ppf "@,switches (%d, %d decision windows):@," (List.length r.switches)
    r.windows;
  if r.switches = [] then fprintf ppf "  (none)@,"
  else
    List.iter
      (fun s ->
        fprintf ppf "  cycle %7d  proc %2d  %s -> %s  (%s, %d elements moved)@,"
          s.Meta.sw_at s.Meta.sw_proc s.Meta.sw_from s.Meta.sw_to
          s.Meta.sw_regime s.Meta.sw_moved)
      r.switches;
  fprintf ppf "@,";
  match r.errors with
  | [] -> fprintf ppf "PASS: within %.2fx of best static on every phase@," r.cfg.factor
  | errs ->
      fprintf ppf "FAIL:@,";
      List.iter (fun e -> fprintf ppf "  %s@," e) errs

let report_to_string r =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "@[<v>%a@]@." pp_report r;
  Buffer.contents buf
