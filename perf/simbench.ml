(* The simulator workloads: rounds of verified Workload.run calls timed
   in host time and, in a traced run, the split of that time between the
   event queue (Evq), the memory model (Mem) and everything else. *)

open Measure
module W = Pqbenchlib.Workload
module Sim = Pqsim.Sim
module Probe = Pqsim.Probe
module Evq = Pqsim.Evq
module Mem = Pqsim.Mem
module J = Pqtrace.Json

type config = {
  queues : string list;
  nprocs : int;
  variants : int;
      (* seeds per queue in one round.  Every round replays the same
         inputs, so simulated results must repeat exactly; several seeds
         a round keep the amount of simulated work steady from one
         --seed to the next *)
}

let fig7 = { queues = Catalogue.sim_fig7_queues; nprocs = 256; variants = 3 }
let fig6 = { queues = Catalogue.sim_fig6_queues; nprocs = 16; variants = 16 }
let npriorities = 16

let spec cfg ~seed queue v =
  { (W.spec ~queue ~nprocs:cfg.nprocs ~npriorities) with seed = seed + (7919 * v) }

let ops_of (s : W.spec) = s.nprocs * s.ops_per_proc

let settings cfg =
  let s = spec cfg ~seed:0 (List.hd cfg.queues) 0 in
  J.
    [
      ("queues", List (List.map (fun q -> String q) cfg.queues));
      ("nprocs", Int cfg.nprocs);
      ("npriorities", Int npriorities);
      ("ops_per_proc", Int s.ops_per_proc);
      ("local_work", Int s.local_work);
      ("insert_bias", Int s.insert_bias);
      ("variants", Int cfg.variants);
    ]

(* one verified Workload.run: its result, host ns and minor words, or
   None once its operations are counted as failed *)
let timed_run ?probe tally (s : W.spec) =
  let ops = ops_of s in
  tally.attempted <- tally.attempted + ops;
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  match W.run ?probe s with
  | r -> Some (r, now_ns () - t0, Gc.minor_words () -. w0)
  | exception e ->
      fail tally ~ops
        (Printf.sprintf "%s seed %d: %s" s.queue s.seed (Printexc.to_string e));
      None

(* every round must reproduce the first round's simulated results *)
let repeats firsts tally (s : W.spec) (r : W.result) =
  let key = (s.queue, s.seed) and sim = (r.cycles, r.latency_all, r.queue_wait) in
  match Hashtbl.find_opt firsts key with
  | None ->
      Hashtbl.add firsts key sim;
      true
  | Some first when first = sim -> true
  | Some _ ->
      fail tally ~ops:(ops_of s)
        (Printf.sprintf "%s seed %d: simulated results changed between rounds"
           s.queue s.seed);
      false

(* set-up: build and verify every queue instance a round runs, each at
   one operation per processor; its host seconds *)
let setup tally cfg ~seed =
  let t0 = now_ns () in
  List.iter
    (fun q ->
      for v = 0 to cfg.variants - 1 do
        ignore (timed_run tally { (spec cfg ~seed q v) with ops_per_proc = 1 })
      done)
    cfg.queues;
  let dt = now_ns () - t0 in
  Gc.full_major ();
  secs dt

(* per-round values, keyed by metric, into (median, samples) *)
let summarize per_round =
  match per_round with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (name, _) ->
          let samples = List.map (List.assoc name) per_round in
          (name, (median samples, samples)))
        first

(* Every round starts with a set-up, so the set-up samples span the same
   stretch of host time as the timed runs. *)
let run_untraced cfg ~seed ~seconds ~once =
  let tally = tally () in
  let firsts = Hashtbl.create 64 in
  let per_round =
    rounds ~seconds ~once (fun _ ->
        let setup_s = setup tally cfg ~seed in
        let per_queue =
          List.map
            (fun q ->
              let ns = ref 0 and ops = ref 0 and words = ref 0. in
              for v = 0 to cfg.variants - 1 do
                let s = spec cfg ~seed q v in
                (match timed_run tally s with
                | Some (r, dt, dw) when repeats firsts tally s r ->
                    ns := !ns + dt;
                    ops := !ops + ops_of s;
                    words := !words +. dw
                | _ -> ());
                (* untimed: each instance starts from the same heap, so
                   the heap's peak is one instance's, not an accident of
                   when garbage from earlier ones was swept *)
                Gc.full_major ()
              done;
              (q, ratio (float_of_int !ops) (secs !ns), !ops, !words))
            cfg.queues
        in
        let sum f = List.fold_left (fun acc x -> acc +. f x) 0. per_queue in
        ("setup_s", setup_s)
        :: ("ops_per_s", geomean (List.map (fun (_, r, _, _) -> r) per_queue))
        :: ( "minor_words_per_op",
             ratio (sum (fun (_, _, _, w) -> w))
               (sum (fun (_, _, o, _) -> float_of_int o)) )
        :: List.map (fun (q, r, _, _) -> (q, r)) per_queue)
  in
  let by_name = summarize per_round in
  let ops_per_s =
    (* geometric mean over queues of each queue's median rate *)
    geomean (List.map (fun q -> fst (List.assoc q by_name)) cfg.queues)
  in
  {
    tally;
    values =
      [
        ("setup_s", List.assoc "setup_s" by_name);
        ("ops_per_s", (ops_per_s, snd (List.assoc "ops_per_s" by_name)));
        ("minor_words_per_op", List.assoc "minor_words_per_op" by_name);
      ];
    series = List.map (fun q -> (q, snd (List.assoc q by_name))) cfg.queues;
    settings = settings cfg;
    counts = [ ("rounds", J.Int (List.length per_round)) ];
  }

(* ---- traced run: the per-layer split ------------------------------ *)

(* The probe's memory-effect, park and wake events of one traced run,
   five ints each: code, processor, line, issue cycle, completion cycle. *)
let recording = Ibuf.create ()
let max_line = ref 0
let park = 6
let wake = 7

let code_of = function
  | Probe.Read -> 0
  | Probe.Write -> 1
  | Probe.Swap -> 2
  | Probe.Cas_ok -> 3
  | Probe.Cas_fail -> 4
  | Probe.Faa -> 5

let record code ~proc ~addr ~issued ~time =
  Ibuf.push recording code;
  Ibuf.push recording proc;
  Ibuf.push recording addr;
  Ibuf.push recording issued;
  Ibuf.push recording time;
  if addr > !max_line then max_line := addr

let sink =
  {
    Probe.emit =
      (fun ~proc ~time ev ->
        match ev with
        | Probe.Mem_op { kind; addr; issued; _ } ->
            record (code_of kind) ~proc ~addr ~issued ~time
        | Probe.Park { addr } -> record park ~proc ~addr ~issued:time ~time
        | Probe.Wake { addr } -> record wake ~proc ~addr ~issued:time ~time
        | Probe.Stall _ | Probe.Crash | Probe.Mark _ | Probe.Span _ -> ());
  }

(* The engine's resume events, rebuilt per processor from the recording:
   one at each completion (memory effect, park or wake), plus one at the
   next issue when that is later than the previous completion (local
   work).  Resumes the recording cannot show, such as a wait's re-check
   that finds its line unchanged, are missing; evq.replay_coverage
   reports the share replayed. *)
let iter_resumes ~nprocs f =
  let last = Array.make nprocs 0 and a = recording.a in
  for i = 0 to (recording.n / 5) - 1 do
    let b = 5 * i in
    let p = a.(b + 1) and issued = a.(b + 3) and time = a.(b + 4) in
    if a.(b) < park && issued > last.(p) then f p issued;
    f p time;
    last.(p) <- time
  done

let resume_streams ~nprocs =
  let len = Array.make nprocs 0 in
  iter_resumes ~nprocs (fun p _ -> len.(p) <- len.(p) + 1);
  let streams = Array.map (fun n -> Array.make n 0) len and fill = Array.make nprocs 0 in
  iter_resumes ~nprocs (fun p t ->
      streams.(p).(fill.(p)) <- t;
      fill.(p) <- fill.(p) + 1);
  streams

(* replay the streams through a fresh Evq, each processor holding at
   most one pending resume as in the engine: (events, ns, minor words) *)
let replay_evq streams =
  let q = Evq.create () and next = Array.make (Array.length streams) 1 in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  Array.iteri
    (fun pid s -> if Array.length s > 0 then Evq.push_resume q ~time:s.(0) ~pid ~v:0)
    streams;
  while not (Evq.is_empty q) do
    let pid = (Evq.pop_exn q).Evq.pid in
    let s = streams.(pid) and k = next.(pid) in
    if k < Array.length s then begin
      Evq.push_resume q ~time:s.(k) ~pid ~v:0;
      next.(pid) <- k + 1
    end
  done;
  let ns = now_ns () - t0 in
  (Evq.pops q, ns, Gc.minor_words () -. w0)

(* Replay the recorded memory effects, in engine order and at their
   recorded issue cycles, through a fresh Mem.  Values are not recorded:
   every store writes a new value and each CAS is forced to its recorded
   outcome, so a same-value store (which invalidates nothing in the
   engine) can replay differently; mem.replay_fidelity is the share of
   completions that match.  A park re-arms Mem.watch unless the processor
   still sits on a waiter chain that no store has cleared since.
   Returns (accesses, ns, minor words, matching completions). *)
let replay_mem ~nprocs =
  let m = Mem.create (Pqsim.Machine.make ~nprocs ()) in
  ignore (Mem.alloc m (!max_line + 1));
  let stores = Array.make (!max_line + 1) 0 in
  let parked_line = Array.make nprocs (-1) and parked_stores = Array.make nprocs 0 in
  let a = recording.a and accesses = ref 0 and matched = ref 0 in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  for i = 0 to (recording.n / 5) - 1 do
    let b = 5 * i in
    let code = a.(b) and proc = a.(b + 1) and addr = a.(b + 2) and now = a.(b + 3) in
    if code < park then begin
      let v = Mem.peek m addr in
      let t =
        if code = 0 then Mem.read_t m ~proc ~now addr
        else begin
          stores.(addr) <- stores.(addr) + 1;
          match code with
          | 1 -> Mem.write m ~proc ~now addr (v + 1)
          | 2 -> Mem.swap_t m ~proc ~now addr (v + 1)
          | 3 -> Mem.cas_t m ~proc ~now addr ~expected:v ~desired:(v + 1)
          | 4 -> Mem.cas_t m ~proc ~now addr ~expected:(v + 1) ~desired:v
          | _ -> Mem.faa_t m ~proc ~now addr 1
        end
      in
      incr accesses;
      if t = a.(b + 4) then incr matched
    end
    else if code = park then begin
      let l = parked_line.(proc) in
      if l < 0 || stores.(l) <> parked_stores.(proc) then begin
        Mem.watch m ~addr ~pid:proc;
        parked_line.(proc) <- addr;
        parked_stores.(proc) <- stores.(addr)
      end
    end
  done;
  let ns = now_ns () - t0 in
  (!accesses, ns, Gc.minor_words () -. w0, !matched)

(* one round's sums over every queue instance *)
type layers = {
  mutable ops : int;
  mutable untraced_ns : int;
  mutable traced_ns : int;
  mutable engine_events : int;
  mutable replayed : int;
  mutable evq_ns : int;
  mutable evq_words : float;
  mutable accesses : int;
  mutable mem_ns : int;
  mutable mem_words : float;
  mutable matched : int;
  mutable hits : int;
  mutable misses : int;
  mutable queue_wait : int;
  mutable cas_ok : int;
  mutable cas_fail : int;
  mutable lock_acquires : int;
  mutable lock_contended : int;
  mutable lock_wait : int;
  mutable funnel_ops : int;
  mutable funnel_combined : int;
  mutable funnel_eliminated : int;
}

let layers () =
  {
    ops = 0;
    untraced_ns = 0;
    traced_ns = 0;
    engine_events = 0;
    replayed = 0;
    evq_ns = 0;
    evq_words = 0.;
    accesses = 0;
    mem_ns = 0;
    mem_words = 0.;
    matched = 0;
    hits = 0;
    misses = 0;
    queue_wait = 0;
    cas_ok = 0;
    cas_fail = 0;
    lock_acquires = 0;
    lock_contended = 0;
    lock_wait = 0;
    funnel_ops = 0;
    funnel_combined = 0;
    funnel_eliminated = 0;
  }

(* The round's host time splits three ways: Evq (replay ns per event x
   the engine's events), Mem (replay ns per access x the recorded
   accesses) and the residual, which is effect dispatch, queue code and
   the wait reads the recording does not show.  The three shares add up
   to the untraced round time by construction. *)
let layer_values l =
  let per_op x = ratio x (float_of_int l.ops) in
  let round = float_of_int l.untraced_ns in
  let evq_ns_per_event = iratio l.evq_ns l.replayed in
  let mem_ns_per_access = iratio l.mem_ns l.accesses in
  let evq_time = evq_ns_per_event *. float_of_int l.engine_events in
  let mem_time = mem_ns_per_access *. float_of_int l.accesses in
  let residual = round -. evq_time -. mem_time in
  [
    ("evq.ns_per_event", evq_ns_per_event);
    ("evq.words_per_event", ratio l.evq_words (float_of_int l.replayed));
    ("evq.events_per_op", per_op (float_of_int l.engine_events));
    ("evq.replay_coverage", iratio l.replayed l.engine_events);
    ("evq.share", ratio evq_time round);
    ("mem.ns_per_access", mem_ns_per_access);
    ("mem.words_per_access", ratio l.mem_words (float_of_int l.accesses));
    ("mem.accesses_per_op", per_op (float_of_int l.accesses));
    ("mem.replay_fidelity", iratio l.matched l.accesses);
    ("mem.hit_ratio", iratio l.hits (l.hits + l.misses));
    ("mem.misses_per_op", per_op (float_of_int l.misses));
    ("mem.queue_wait_per_op", per_op (float_of_int l.queue_wait));
    ("mem.share", ratio mem_time round);
    ("sim.residual_ns_per_op", per_op residual);
    ("sim.residual_share", ratio residual round);
    ("sync.lock_wait_per_op", per_op (float_of_int l.lock_wait));
    ("sync.lock_contended_ratio", iratio l.lock_contended l.lock_acquires);
    ("sync.cas_fail_ratio", iratio l.cas_fail (l.cas_ok + l.cas_fail));
    ("funnel.combining_rate", iratio l.funnel_combined l.funnel_ops);
    ("funnel.elimination_rate", iratio (2 * l.funnel_eliminated) l.funnel_ops);
    ("trace.overhead", ratio (float_of_int l.traced_ns) round -. 1.);
  ]

(* one queue instance, untraced and then traced (which must reproduce
   the untraced cycles), its recording replayed through Evq and Mem and
   its sums added into each of [sums] *)
let traced_instance tally firsts cfg sums (s : W.spec) =
  Sim.reset_harness_totals ();
  match Spans.span "untraced" (fun () -> timed_run tally s) with
  | Some (r, dt, dw) when repeats firsts tally s r -> (
      let engine_events = fst (Sim.harness_totals ()) in
      Ibuf.clear recording;
      max_line := 0;
      let stats = Pqsim.Stats.create () in
      let probe = Probe.make ~sink ~metrics:stats () in
      match Spans.span "traced" (fun () -> timed_run ~probe tally s) with
      | Some (r', _, _) when (r'.cycles, r'.latency_all) <> (r.cycles, r.latency_all) ->
          fail tally ~ops:(ops_of s)
            (Printf.sprintf "%s seed %d: the probe changed simulated results"
               s.queue s.seed);
          None
      | None -> None
      | Some (_, dt', _) ->
          let streams = resume_streams ~nprocs:cfg.nprocs in
          let replayed, evq_ns, evq_words =
            Spans.span "evq replay" (fun () -> replay_evq streams)
          in
          let accesses, mem_ns, mem_words, matched =
            Spans.span "mem replay" (fun () -> replay_mem ~nprocs:cfg.nprocs)
          in
          let d = Pqtrace.Metrics.derive stats in
          List.iter
            (fun l ->
              l.ops <- l.ops + ops_of s;
              l.untraced_ns <- l.untraced_ns + dt;
              l.traced_ns <- l.traced_ns + dt';
              l.engine_events <- l.engine_events + engine_events;
              l.replayed <- l.replayed + replayed;
              l.evq_ns <- l.evq_ns + evq_ns;
              l.evq_words <- l.evq_words +. evq_words;
              l.accesses <- l.accesses + accesses;
              l.mem_ns <- l.mem_ns + mem_ns;
              l.mem_words <- l.mem_words +. mem_words;
              l.matched <- l.matched + matched;
              l.hits <- l.hits + Mem.hits r.mem;
              l.misses <- l.misses + Mem.misses r.mem;
              l.queue_wait <- l.queue_wait + r.queue_wait;
              l.cas_ok <- l.cas_ok + d.cas_ok;
              l.cas_fail <- l.cas_fail + d.cas_fail;
              l.lock_acquires <- l.lock_acquires + d.lock_acquires;
              l.lock_contended <- l.lock_contended + d.lock_contended;
              l.lock_wait <- l.lock_wait + d.lock_wait_total;
              l.funnel_ops <- l.funnel_ops + d.funnel_ops;
              l.funnel_combined <- l.funnel_combined + d.funnel_combined;
              l.funnel_eliminated <- l.funnel_eliminated + d.funnel_eliminated)
            sums;
          Some (r, dt, dw))
  | _ -> None

(* The layer metrics are taken over the whole run, so the three shares
   add up to the run's untraced time; the queue metrics are medians over
   rounds.  Both keep their per-round samples. *)
let run_traced cfg ~seed ~seconds ~once =
  let tally = tally () in
  ignore (setup tally cfg ~seed);
  let firsts = Hashtbl.create 64 and total = layers () in
  let per_round =
    rounds ~seconds ~once (fun _ ->
        let l = layers () in
        let per_queue =
          List.concat_map
            (fun q ->
              let ops = ref 0 and ns = ref 0 and cycles = ref 0. in
              let deletes = ref 0 and empties = ref 0 and words = ref 0. in
              for v = 0 to cfg.variants - 1 do
                let s = spec cfg ~seed q v in
                Spans.span (Printf.sprintf "%s seed %d" q s.seed) (fun () ->
                    match traced_instance tally firsts cfg [ l; total ] s with
                    | Some ((r : W.result), dt, dw) ->
                        ops := !ops + ops_of s;
                        ns := !ns + dt;
                        words := !words +. dw;
                        cycles := !cycles +. (r.latency_all *. float_of_int (ops_of s));
                        deletes := !deletes + r.deletes + r.empty_deletes;
                        empties := !empties + r.empty_deletes
                    | None -> ());
                Gc.full_major ()
              done;
              let name m = "core." ^ q ^ "." ^ m in
              [
                (name "cycles_per_op", ratio !cycles (float_of_int !ops));
                (name "empty_delete_ratio", iratio !empties !deletes);
                (name "host_ns_per_op", iratio !ns !ops);
                (name "words_per_op", ratio !words (float_of_int !ops));
              ])
            cfg.queues
        in
        layer_values l @ per_queue)
  in
  let whole_run = layer_values total in
  {
    tally;
    values =
      List.map
        (fun (name, (median, samples)) ->
          (name, (Option.value ~default:median (List.assoc_opt name whole_run), samples)))
        (summarize per_round);
    series = [];
    settings = settings cfg;
    counts = [ ("rounds", J.Int (List.length per_round)) ];
  }
