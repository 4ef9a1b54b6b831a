(* The gate commands' one interface: each gate's configs, settable
   fields, report and verdict, written once for the CLI, the BENCH.json
   sections and the golden digests. *)

module Driver = Pqchaos.Driver
module Adapt = Pqadapt.Driver
module Policy = Pqexplore.Policy
module Scenario = Pqbenchlib.Scenario

type 'c arg =
  | Flag of ('c -> 'c)
  | Value of {
      docv : string;
      print : 'c -> string;
      set : string -> 'c -> ('c, string) result;
    }

type 'c field = { names : string list; doc : string; arg : 'c arg }

type outcome = {
  report : string;
  summary : string;
  errors : string list;
  json : Pqtrace.Json.t;
}

type 'c spec = {
  name : string;
  doc : string;
  title : string;
  default : 'c;
  quick : 'c option;
  bench : 'c;
  fields : 'c field list;
  run : jobs:int -> 'c -> outcome;
}

type t = Gate : 'c spec -> t

let sprintf = Printf.sprintf

let number what of_string s =
  Option.to_result ~none:(sprintf "expected %s, got %S" what s) (of_string s)

let positive =
  number "a positive integer" (fun s ->
      Option.bind (int_of_string_opt s) (fun n -> if n >= 1 then Some n else None))

(* a field whose value [parse]s into what [put] stores *)
let value names ~docv ~doc print parse put =
  let set s c = Result.map (put c) (parse s) in
  { names; doc; arg = Value { docv; print; set } }

let switch names doc set = { names; doc; arg = Flag set }

let count names ~docv ~doc get put =
  value names ~docv ~doc (fun c -> string_of_int (get c)) positive put

let member what known s =
  if List.mem s known then Ok s
  else
    Error (sprintf "unknown %s %S (known: %s)" what s (String.concat ", " known))

let bold_list names = String.concat ", " (List.map (sprintf "$(b,%s)") names)

(* a non-empty comma-separated list, each item through [of_string] (the
   first error wins); "all" is [all], which the doc lists unless given *)
let items names ~docv ~what ?all ?doc ~to_string ~of_string get put =
  let print c =
    if Some (get c) = all then "all"
    else String.concat "," (List.map to_string (get c))
  in
  let cons x acc =
    Result.bind (of_string x) (fun x -> Result.map (List.cons x) acc)
  in
  let parse s =
    let xs = List.map String.trim (String.split_on_char ',' s) in
    match (all, List.filter (( <> ) "") xs) with
    | Some all, [ "all" ] -> Ok all
    | _, [] -> Error (sprintf "no %s given" what)
    | _, xs -> List.fold_right cons xs (Ok [])
  in
  let listed all =
    sprintf "Comma-separated %ss (%s) or $(b,all)." what
      (bold_list (List.map to_string all))
  in
  let doc = Option.value doc ~default:(Option.fold ~none:"" ~some:listed all) in
  value names ~docv ~doc print parse put

let outcome ?summary report errors json =
  let pass_fail = if errors = [] then "pass" else "FAIL" in
  { report; summary = Option.value summary ~default:pass_fail; errors; json }

(* ------------------------------------------------------------------ *)
(* audit *)

let run_audit ~jobs cfg =
  let reports = Audit.run ~jobs cfg in
  let failing = List.filter (fun r -> Audit.findings r <> []) reports in
  let queues = String.concat ", " (List.map (fun r -> r.Audit.queue) failing) in
  outcome
    (Format.asprintf "%a" Audit.pp reports)
    (if failing = [] then [] else [ "audit findings in: " ^ queues ])
    (Audit.to_json cfg reports)

let audit =
  {
    name = "audit";
    doc =
      "Audit every registry queue plus Adaptive under the default, random \
       and PCT schedules x seeds 42, 1, 7 (coin-flip scenario, 16 \
       processors, 40 ops each), running each cell once with one probe \
       that feeds the race detector, the lock-order analyzer and the \
       streaming rank/conservation monitor.  Any data race, lock-order \
       cycle, discipline finding, aborted run, failed check or rank error \
       over the queue's bound fails the command.";
    title = "Analyzer audit (races, lock order, rank)";
    default = Audit.config;
    quick = None;
    bench = Audit.config;
    fields = [];
    run = run_audit;
  }

(* ------------------------------------------------------------------ *)
(* chaos *)

let chaos_fields =
  [
    items [ "queue" ] ~docv:"NAME" ~what:"queue" ~all:Driver.default_queues
      ~doc:
        "Comma-separated queues, or $(b,all) for the paper's seven plus \
         every MultiQueue variant."
      ~to_string:Fun.id ~of_string:(member "queue" Pqcore.Registry.names)
      (fun c -> c.Driver.queues) (fun c queues -> { c with queues });
    items [ "scenarios" ] ~docv:"S1,S2,.." ~what:"scenario" ~all:Scenario.names
      ~to_string:Fun.id ~of_string:(member "scenario" Scenario.names)
      (fun c -> c.Driver.scenarios) (fun c scenarios -> { c with scenarios });
    items [ "plans" ] ~docv:"PLANS" ~what:"fault plan"
      ~all:(None :: List.map Option.some Pqchaos.Plan.all)
      ~to_string:(Option.fold ~none:"none" ~some:Pqchaos.Plan.name)
      ~of_string:Driver.plan_of_string
      (fun c -> c.Driver.plans) (fun c plans -> { c with plans });
    items [ "sched" ] ~docv:"P1,P2,.." ~what:"schedule" ~all:Policy.names
      ~to_string:Policy.string_of_name ~of_string:Policy.name_of_string
      (fun c -> c.Driver.scheds) (fun c scheds -> { c with scheds });
    count [ "procs"; "p" ] ~docv:"P" ~doc:"Simulated processors."
      (fun c -> c.Driver.nprocs) (fun c nprocs -> { c with nprocs });
    count [ "priorities"; "n" ] ~docv:"N" ~doc:"Priority range."
      (fun c -> c.Driver.npriorities)
      (fun c npriorities -> { c with npriorities });
    count [ "ops" ] ~docv:"N"
      ~doc:"Operations per processor before soak scaling."
      (fun c -> c.Driver.ops_per_proc)
      (fun c ops_per_proc -> { c with ops_per_proc });
    items [ "seeds" ] ~docv:"S1,S2,.." ~what:"seed"
      ~doc:"Comma-separated workload seeds; each seeds a full matrix."
      ~to_string:string_of_int ~of_string:(number "a seed" int_of_string_opt)
      (fun c -> c.Driver.seeds) (fun c seeds -> { c with seeds });
    count [ "soak" ] ~docv:"K"
      ~doc:
        "Soak multiplier: scales ops per processor (and the SSSP graph) by \
         $(docv); monitors stream, so memory stays flat."
      (fun c -> c.Driver.soak) (fun c soak -> { c with soak });
    switch [ "host" ]
      "Also soak the host-level queues (real domains) through the phased \
       scenarios and gate their conservation."
      (fun c -> { c with Driver.host = true });
    switch [ "verbose"; "v" ]
      "Print every cell, and each host soak's operation counts (these vary \
       with the domains' interleaving)."
      (fun c -> { c with Driver.verbose = true });
  ]

let run_chaos ~jobs cfg =
  let cells = Driver.run ~jobs cfg and host_errors = ref [] in
  let host ppf = if cfg.host then host_errors := Pqchaos.Host.run ppf cfg in
  let report =
    Format.asprintf "%a%t" (Driver.pp ~verbose:cfg.verbose) cells host
  in
  outcome report
    ~summary:
      (sprintf "%d cells, worst %s" (List.length cells)
         (Driver.verdict_label (Driver.worst cells)))
    (Driver.gate cells @ !host_errors)
    (Driver.to_json cfg cells)

let chaos =
  {
    name = "chaos";
    doc =
      "Soak every queue through the scenario x fault x schedule matrix \
       under streaming invariant monitors, and classify each cell as \
       healthy, degraded, blocked or a safety violation. Safety violations \
       — and blockage without a crash fault — fail the command.";
    title = "Chaos matrix (quick, seed 42)";
    default = Driver.default;
    quick = Some Driver.quick;
    bench = { Driver.quick with seeds = [ 42 ] };
    fields = chaos_fields;
    run = run_chaos;
  }

(* ------------------------------------------------------------------ *)
(* adapt *)

(* a backend pair, checked as Meta.validate checks it *)
let backends s =
  match String.split_on_char ',' s |> List.map String.trim with
  | [ light; heavy ] -> (
      match Pqadapt.Meta.validate { Pqadapt.Meta.default with light; heavy } with
      | () -> Ok (light, heavy)
      | exception Invalid_argument e -> Error e)
  | _ -> Error (sprintf "want LIGHT,HEAVY, got %S" s)

let adapt_fields =
  [
    value [ "backends" ] ~docv:"LIGHT,HEAVY"
      ~doc:
        "Backend pair as $(docv): the queue used under the light regime and \
         under the heavy regime."
      (fun c -> c.Adapt.meta.light ^ "," ^ c.meta.heavy)
      backends
      (fun c (light, heavy) -> { c with meta = { c.meta with light; heavy } });
    count [ "procs"; "p" ] ~docv:"P" ~doc:"Simulated processors."
      (fun c -> c.Adapt.nprocs)
      (fun c nprocs ->
        let classifier = Adapt.classifier_for ~nprocs in
        { c with nprocs; meta = { c.meta with classifier } });
    count [ "priorities"; "n" ] ~docv:"N" ~doc:"Priority range."
      (fun c -> c.Adapt.npriorities) (fun c npriorities -> { c with npriorities });
    count [ "ops" ] ~docv:"N" ~doc:"Operations per processor per phase."
      (fun c -> c.Adapt.phase_ops) (fun c phase_ops -> { c with phase_ops });
    value [ "seed" ] ~docv:"SEED" ~doc:"Deterministic simulation seed."
      (fun c -> string_of_int c.Adapt.seed)
      (number "an integer" int_of_string_opt)
      (fun c seed -> { c with seed });
    value [ "factor" ] ~docv:"F"
      ~doc:"Allowed per-phase latency ratio to the best static backend."
      (fun c -> sprintf "%g" c.Adapt.factor)
      (number "a number" float_of_string_opt)
      (fun c factor -> { c with factor });
  ]

let adapt =
  {
    name = "adapt";
    doc =
      "Run the adaptive meta-queue against its static backends on the \
       phase-shifted workload (uniform-heavy, skewed-low, uniform-heavy) \
       and gate it: at least one backend switch per direction, per-phase \
       mean latency within --factor of the best static backend and \
       strictly better than the worst, conservation green.";
    title = "Adaptive meta-queue gate (quick)";
    default = Adapt.default;
    quick = Some Adapt.quick;
    bench = Adapt.quick;
    fields = adapt_fields;
    run =
      (fun ~jobs c ->
        let r = Adapt.run ~jobs c in
        outcome (Adapt.report_to_string r) r.errors (Adapt.to_json r));
  }

let all = [ Gate audit; Gate chaos; Gate adapt ]

let configure g args =
  let long f = List.hd f.names in
  let set c f =
    match (List.assoc_opt (long f) args, f.arg) with
    | None, _ -> Ok c
    | Some _, Flag set -> Ok (set c)
    | Some s, Value v ->
        Result.map_error (sprintf "--%s: %s" (long f)) (v.set s c)
  in
  let base =
    match g.quick with
    | Some q when List.mem_assoc "quick" args -> q
    | _ -> g.default
  in
  List.fold_left (fun c f -> Result.bind c (fun c -> set c f)) (Ok base) g.fields
