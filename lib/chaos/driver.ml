(* The chaos driver: the cross product of scenarios x fault plans x
   schedule policies, each cell one monitored soak, classified into the
   graceful-degradation taxonomy.

   Every (queue, scenario, seed) group first runs its fault-free
   default-schedule cell — the baseline.  Probes are passive (the
   monitor changes no simulated result), so the baseline's cycle count
   is valid as the degradation yardstick for the group's other cells,
   and their watchdog budgets scale from it (see [watchdog_for]).

   Verdict policy:
   - a safety violation (conservation broken, phantom elements, rank
     above the widened bound, a failed scenario check) is always a gate
     error;
   - blocking under a finite fault — or under no fault at all — is a
     gate error: every algorithm must survive a pause or a slow module;
   - blocking under a crash fault is recorded, not gated: the paper's
     blocking algorithms are *expected* to die when a lock holder dies;
   - slowdown beyond 5/4 of the baseline is reported as degraded, with
     its ratio, never an error.
   [judge] is this verdict, for the audit's cells too. *)

module Scenario = Pqbenchlib.Scenario
module Policy = Pqexplore.Policy

type verdict =
  | Healthy
  | Degraded of { ratio : float }
  | Blocked of string
  | Safety_violation of string

let severity = function
  | Healthy -> 0
  | Degraded _ -> 1
  | Blocked _ -> 2
  | Safety_violation _ -> 3

let verdict_label = function
  | Healthy -> "healthy"
  | Degraded _ -> "degraded"
  | Blocked _ -> "blocked"
  | Safety_violation _ -> "safety-violation"

let verdict_detail = function
  | Healthy -> ""
  | Degraded { ratio } -> Printf.sprintf "%.2fx baseline" ratio
  | Blocked reason -> reason
  | Safety_violation reason -> reason

type cell = {
  queue : string;
  scenario : string;
  plan : string;  (* "none" or a Plan.name *)
  sched : string;
  seed : int;
  verdict : verdict;
  cycles : int;
  ops : int;
  worst_rank : int;
  bound : int;
  live_high_water : int;
  dangling : int;
}

type config = {
  queues : string list;
  scenarios : string list;
  plans : Plan.t option list;  (* [None] is the fault-free arm *)
  scheds : Policy.name list;
  seeds : int list;
  nprocs : int;
  npriorities : int;
  ops_per_proc : int;
  soak : int;  (* multiplies ops_per_proc and the SSSP graph size *)
  sssp_nodes : int;
  host : bool;  (* the chaos command's report options; [run] ignores them *)
  verbose : bool;
}

let default_queues =
  Pqcore.Registry.names_paper @ Pqcore.Registry.names_relaxed

let plan_names = "none" :: List.map Plan.name Plan.all
let plan_name = function Some p -> Plan.name p | None -> "none"

let plan_of_string s =
  if s = "none" then Ok None
  else
    match Plan.of_string s with
    | Ok p -> Ok (Some p)
    | Error _ ->
        (* re-word the error so the fault-free arm is in the valid set *)
        Error
          (Printf.sprintf "unknown fault plan %S (known: %s)" s
             (String.concat ", " (List.sort compare plan_names)))

let default =
  {
    queues = default_queues;
    scenarios = Scenario.names;
    plans = None :: List.map Option.some Plan.all;
    scheds = [ Policy.Default; Policy.Pct ];
    seeds = [ 42; 1; 7 ];
    nprocs = 4;
    npriorities = 16;
    ops_per_proc = 30;
    soak = 1;
    sssp_nodes = 24;
    host = false;
    verbose = false;
  }

let quick = { default with ops_per_proc = 12; sssp_nodes = 16 }

let scenario_of cfg name =
  if name = "sssp" then
    Scenario.sssp ~nodes:(min 96 (cfg.sssp_nodes * cfg.soak)) ()
  else Scenario.of_string name

(* a completed cell is degraded beyond 5/4 of its baseline's cycles *)
let degraded ~baseline cycles = baseline > 0 && 4 * cycles > 5 * baseline

(* idle-progress budget: generous multiples of the fault-free run, plus
   the fault's own dead time (a pause stalls the victim outright; a slow
   module stretches every access it serves) *)
let watchdog_for ~plan ~baseline =
  let extra =
    match plan with
    | Some (Plan.Pause_resume { pause }) -> pause
    | Some (Plan.Slow_node { factor; _ }) -> factor * baseline
    | _ -> 0
  in
  (4 * baseline) + 100_000 + extra

let abort_reason = function
  | Pqsim.Sim.Progress_failure _ -> "watchdog: no progress"
  | Pqsim.Sim.Deadlock _ -> "deadlock"
  | Pqsim.Sim.Cycle_limit _ -> "cycle limit"
  | Pqsim.Sim.Spin_limit _ -> "spin limit"
  | Failure msg -> msg
  | e -> Printexc.to_string e

(* fault verdicts dominate: a crashed/paused processor stays down no
   matter what the exploration schedule would have preferred *)
let compose fault sched : Pqsim.Sched.t =
 fun info ->
  match fault info with
  | (Pqsim.Sched.Stall_forever | Pqsim.Sched.Pause _) as v -> v
  | Pqsim.Sched.Run _ -> sched info

(* the queue's rank bound, widened by one per op a crash left dangling *)
let bound cfg queue (m : Pqcheck.Monitor.report) =
  Option.value ~default:0
    (Pqcore.Multi_queue.rank_bound_for queue ~nprocs:cfg.nprocs)
  + m.dangling

let judge cfg ~queue ~baseline (o : Scenario.outcome) =
  let max_rank = o.monitor.rank.max_rank
  and bound = bound cfg queue o.monitor
  and baseline = Option.value baseline ~default:o.cycles in
  match (o.aborted, o.check) with
  | Some e, _ -> Blocked (abort_reason e)
  | None, Error msg -> Safety_violation msg
  | None, Ok () when max_rank > bound ->
      Safety_violation
        (Printf.sprintf "rank error %d exceeds bound %d" max_rank bound)
  | None, Ok () when degraded ~baseline o.cycles ->
      Degraded { ratio = float_of_int o.cycles /. float_of_int baseline }
  | None, Ok () -> Healthy

let run_cell ?probe cfg ~queue ~scenario ~plan ~sched ~seed ~baseline =
  let nprocs = cfg.nprocs in
  let armed = Option.map (fun p -> Plan.arm p ~seed ~nprocs) plan in
  let policy =
    match (armed, Policy.named sched ~seed ~nprocs) with
    | None, None -> None
    | Some a, None -> Some a.Plan.policy
    | None, Some s -> Some s
    | Some a, Some s -> Some (compose a.Plan.policy s)
  in
  let watchdog =
    (* none for a baseline cell itself: fault-free, terminating *)
    Option.map (fun b -> watchdog_for ~plan ~baseline:b) baseline
  in
  let degrade =
    match plan with Some p -> Plan.degrade p | None -> fun _ -> ()
  in
  let create =
    (* the meta-queue is not in the registry: build it over the run's
       memory, label unchanged *)
    if queue = "Adaptive" then
      Some
        (fun mem params ->
          fst (Pqadapt.Meta.create Pqadapt.Meta.default mem params))
    else None
  in
  let o =
    Scenario.run_sim ?probe ?policy ?watchdog ~degrade ?create ~queue ~nprocs
      ~npriorities:cfg.npriorities
      ~ops_per_proc:(cfg.ops_per_proc * cfg.soak)
      ~seed (scenario_of cfg scenario)
  in
  let m = o.monitor in
  ( {
      queue;
      scenario;
      plan = plan_name plan;
      sched = Policy.string_of_name sched;
      seed;
      verdict = judge cfg ~queue ~baseline o;
      cycles = o.cycles;
      ops = m.inserts + m.rejects + m.rank.deletes + m.rank.empties;
      worst_rank = m.rank.max_rank;
      bound = bound cfg queue m;
      live_high_water = m.live_high_water;
      dangling = m.dangling;
    },
    o )

(* one (queue, scenario, seed) group: baseline first, then every other
   (plan, sched) cell against its cycle count, each under a fresh probe
   from [observer] when there is one.  A stuck baseline means the
   fault-free run itself is broken; the group's remaining cells are
   marked blocked rather than run without a degradation yardstick. *)
let run_group cfg observer (queue, scenario, seed) =
  let cell ~plan ~sched ~baseline =
    let probed = Option.map (fun make -> make ()) observer in
    let c, o =
      run_cell ?probe:(Option.map fst probed) cfg ~queue ~scenario ~plan
        ~sched ~seed ~baseline
    in
    (c, Option.map (fun (_, finish) -> finish c o) probed)
  in
  let (base, _) as first =
    cell ~plan:None ~sched:Policy.Default ~baseline:None
  in
  let rest =
    List.concat_map
      (fun plan ->
        List.filter_map
          (fun sched ->
            if plan = None && sched = Policy.Default then None
            else if base.verdict = Healthy then
              Some (cell ~plan ~sched ~baseline:(Some base.cycles))
            else
              Some
                ( {
                    base with
                    plan = plan_name plan;
                    sched = Policy.string_of_name sched;
                    verdict = Blocked "baseline cell unhealthy";
                    cycles = 0;
                  },
                  None ))
          cfg.scheds)
      cfg.plans
  in
  first :: rest

exception Invalid_config of { field : string; reason : string }

(* reject a matrix that could pass vacuously (no cell, or cells with no
   operation) or that the engine cannot build *)
let validate cfg =
  let check ok field reason =
    if not ok then raise (Invalid_config { field; reason })
  in
  check (cfg.queues <> []) "queues" "no queue given";
  check (cfg.scenarios <> []) "scenarios" "no scenario given";
  check (cfg.seeds <> []) "seeds" "no seed given";
  check (cfg.nprocs >= 1) "nprocs" "must be at least 1";
  check (cfg.npriorities >= 1) "npriorities" "must be at least 1";
  check (cfg.ops_per_proc >= 1) "ops_per_proc" "must be at least 1";
  check (cfg.soak >= 1) "soak" "must be at least 1"

let cells ?(jobs = 1) cfg observer =
  validate cfg;
  let groups =
    List.concat_map
      (fun queue ->
        List.concat_map
          (fun scn -> List.map (fun seed -> (queue, scn, seed)) cfg.seeds)
          cfg.scenarios)
      cfg.queues
  in
  List.concat (Pqbenchlib.Pool.map ~jobs (run_group cfg observer) groups)

let run ?jobs cfg = List.map fst (cells ?jobs cfg None)
let observe ?jobs cfg make = cells ?jobs cfg (Some make)

let plan_is_finite = function
  | "none" -> true
  | s -> ( match Plan.of_string s with Ok p -> Plan.finite p | Error _ -> true)

(* gate errors: safety violations anywhere; blockage wherever survival
   is required (no fault, or a finite fault).  A queue that claims
   non-blocking progress must also gate its blockage under a crash here. *)
let gate cells =
  List.filter_map
    (fun c ->
      let where =
        Printf.sprintf "%s/%s/%s/%s seed %d" c.queue c.scenario c.plan c.sched
          c.seed
      in
      match c.verdict with
      | Safety_violation msg -> Some (where ^ ": SAFETY: " ^ msg)
      | Blocked reason when plan_is_finite c.plan ->
          Some (where ^ ": blocked: " ^ reason)
      | Blocked _ | Degraded _ | Healthy -> None)
    cells

let worst cells =
  List.fold_left
    (fun acc c -> if severity c.verdict > severity acc then c.verdict else acc)
    Healthy cells

(* scenario x plan -> worst verdict label across queues, seeds and
   schedules: the EXPERIMENTS.md degradation matrix *)
let summary_matrix cells =
  let scenarios =
    List.sort_uniq compare (List.map (fun c -> c.scenario) cells)
  in
  let plans = List.sort_uniq compare (List.map (fun c -> c.plan) cells) in
  List.map
    (fun scn ->
      ( scn,
        List.map
          (fun plan ->
            let sub =
              List.filter (fun c -> c.scenario = scn && c.plan = plan) cells
            in
            (plan, verdict_label (worst sub)))
          plans ))
    scenarios

let to_json cfg cells =
  let open Pqtrace.Json in
  let cell c =
    Obj
      [
        ("queue", String c.queue);
        ("scenario", String c.scenario);
        ("plan", String c.plan);
        ("sched", String c.sched);
        ("seed", Int c.seed);
        ("verdict", String (verdict_label c.verdict));
        ("cycles", Int c.cycles);
        ("ops", Int c.ops);
        ("worst_rank", Int c.worst_rank);
        ("bound", Int c.bound);
        ("dangling", Int c.dangling);
      ]
  in
  let unsafe c =
    match c.verdict with Safety_violation _ -> true | _ -> false
  in
  Obj
    [
      ("nprocs", Int cfg.nprocs);
      ("npriorities", Int cfg.npriorities);
      ("ops_per_proc", Int cfg.ops_per_proc);
      ("safe", Bool (not (List.exists unsafe cells)));
      ("cells", List (List.map cell cells));
    ]

let pp_cells ppf cells =
  Format.fprintf ppf
    "%-16s %-9s %-10s %-8s %5s  %-16s %9s %6s %5s %5s %5s %4s  %s@."
    "queue" "scenario" "plan" "sched" "seed" "verdict" "cycles" "ops"
    "rank" "bound" "liveh" "dang" "detail";
  List.iter
    (fun c ->
      Format.fprintf ppf
        "%-16s %-9s %-10s %-8s %5d  %-16s %9d %6d %5d %5d %5d %4d  %s@."
        c.queue c.scenario c.plan c.sched c.seed
        (verdict_label c.verdict)
        c.cycles c.ops c.worst_rank c.bound c.live_high_water c.dangling
        (verdict_detail c.verdict))
    cells

let pp_summary ppf cells =
  let matrix = summary_matrix cells in
  let plans = List.sort_uniq compare (List.map (fun c -> c.plan) cells) in
  Format.fprintf ppf "%-10s" "scenario";
  List.iter (fun p -> Format.fprintf ppf " %-16s" p) plans;
  Format.fprintf ppf "@.";
  List.iter
    (fun (scn, row) ->
      Format.fprintf ppf "%-10s" scn;
      List.iter (fun (_, v) -> Format.fprintf ppf " %-16s" v) row;
      Format.fprintf ppf "@.")
    matrix

let pp ~verbose ppf cells =
  if verbose then Format.fprintf ppf "%a@." pp_cells cells;
  Format.fprintf ppf "%a@." pp_summary cells
