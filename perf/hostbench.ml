(* The host workloads: Hostpq queues driven by real domains for fixed
   wall-clock reps, queues interleaved round-robin.  Every rep drains its
   queue and checks that the count and the payload sum of the elements
   are conserved. *)

open Measure
module J = Pqtrace.Json

(* coinflip: the paper's 50/50 mix on an empty-start queue of 16
   priorities.  hold: Scenario.hold's rule — delete_min, then reinsert
   at (p + 1 + rand lag) mod N — on a prefilled queue of 1024. *)
type mix = Coinflip | Hold

let npriorities = function Coinflip -> 16 | Hold -> 1024
let prefill_per_domain = function Coinflip -> 0 | Hold -> 2048
let hold_lag = 64

(* set-up's single-domain warm-up pass, in queue calls per queue *)
let warmup_calls = 65536

(* one domain's share of a rep *)
type worker = {
  mutable calls : int;
  mutable inserted : int;
  mutable inserted_sum : int;
  mutable deleted : int;
  mutable deleted_sum : int;
  mutable empties : int;
  mutable words : float;
  mutable finish : int;
  insert_ns : Ibuf.t;
  delete_ns : Ibuf.t;
}

type rep = { workers : worker list; elapsed_ns : int; calls : int; conserved : bool }

let sum f ws = List.fold_left (fun acc w -> acc + f w) 0 ws

(* One rep: a fresh queue, prefilled from [seed]; [domains] domains (the
   calling one included) run the mix until [seconds] pass or each has
   made [max_calls] calls; then the queue is drained and checked.  With
   [sample], one insert in 16 and one delete_min in 16 are timed. *)
let rep (module Q : Hostpq.Host_intf.S) mix ~domains ~seed ~seconds ~max_calls
    ~sample =
  let n = npriorities mix in
  let q = Q.create ~npriorities:n () in
  let rng = Random.State.make [| seed |] in
  let prefill = domains * prefill_per_domain mix in
  for payload = 0 to prefill - 1 do
    Q.insert q ~pri:(Random.State.int rng n) payload
  done;
  let prefill_sum = prefill * (prefill - 1) / 2 in
  let ready = Atomic.make 0 and go = Atomic.make false in
  let work d () =
    let rng = Random.State.make [| seed; d |] in
    let w =
      {
        calls = 0;
        inserted = 0;
        inserted_sum = 0;
        deleted = 0;
        deleted_sum = 0;
        empties = 0;
        words = 0.;
        finish = 0;
        insert_ns = Ibuf.create ();
        delete_ns = Ibuf.create ();
      }
    in
    let next = ref (prefill + d) in
    let insert pri =
      let payload = !next in
      next := payload + domains;
      if sample && w.inserted land 15 = 0 then begin
        let t0 = now_ns () in
        Q.insert q ~pri payload;
        Ibuf.push w.insert_ns (now_ns () - t0)
      end
      else Q.insert q ~pri payload;
      w.calls <- w.calls + 1;
      w.inserted <- w.inserted + 1;
      w.inserted_sum <- w.inserted_sum + payload
    in
    let delete () =
      let r =
        if sample && (w.deleted + w.empties) land 15 = 0 then begin
          let t0 = now_ns () in
          let r = Q.delete_min q in
          Ibuf.push w.delete_ns (now_ns () - t0);
          r
        end
        else Q.delete_min q
      in
      w.calls <- w.calls + 1;
      (match r with
      | Some (_, v) ->
          w.deleted <- w.deleted + 1;
          w.deleted_sum <- w.deleted_sum + v
      | None -> w.empties <- w.empties + 1);
      r
    in
    let step =
      match mix with
      | Coinflip ->
          fun () ->
            if Random.State.bool rng then insert (Random.State.int rng n)
            else ignore (delete ())
      | Hold -> (
          fun () ->
            match delete () with
            | Some (p, _) -> insert ((p + 1 + Random.State.int rng hold_lag) mod n)
            | None -> insert (Random.State.int rng n))
    in
    Atomic.incr ready;
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    let stop =
      if seconds = infinity then max_int
      else now_ns () + int_of_float (seconds *. 1e9)
    in
    let w0 = Gc.minor_words () in
    while w.calls < max_calls && now_ns () < stop do
      for _ = 1 to 64 do
        step ()
      done
    done;
    w.finish <- now_ns ();
    w.words <- Gc.minor_words () -. w0;
    w
  in
  let helpers = List.init (domains - 1) (fun d -> Domain.spawn (work (d + 1))) in
  while Atomic.get ready < domains - 1 do
    Domain.cpu_relax ()
  done;
  let t0 = now_ns () in
  Atomic.set go true;
  let first = work 0 () in
  let workers = first :: List.map Domain.join helpers in
  let rec drain count total =
    match Q.delete_min q with
    | Some (_, v) -> drain (count + 1) (total + v)
    | None -> (count, total)
  in
  let drained, drained_sum = drain 0 0 in
  let conserved =
    prefill + sum (fun w -> w.inserted) workers
    = sum (fun w -> w.deleted) workers + drained
    && prefill_sum + sum (fun w -> w.inserted_sum) workers
       = sum (fun w -> w.deleted_sum) workers + drained_sum
    && Q.length q = 0
  in
  {
    workers;
    elapsed_ns = List.fold_left (fun m w -> max m w.finish) t0 workers - t0;
    calls = sum (fun (w : worker) -> w.calls) workers;
    conserved;
  }

let rate r = ratio (float_of_int r.calls) (secs r.elapsed_ns)
let words r = List.fold_left (fun acc (w : worker) -> acc +. w.words) 0. r.workers

(* count a rep's calls; a rep that fails its check counts them all as
   failed *)
let checked tally name r =
  tally.attempted <- tally.attempted + r.calls;
  if not r.conserved then
    fail tally ~ops:r.calls
      (Printf.sprintf "%s: a rep lost or duplicated elements" name);
  r.conserved

let rep_seed seed ~round ~queue = Hashtbl.hash (seed, round, queue)

(* set-up: build, prefill, warm up (single domain) and check every
   queue; its host seconds *)
let setup tally mix ~seed ~round =
  let t0 = now_ns () in
  List.iteri
    (fun qi (name, m) ->
      let r =
        rep m mix ~domains:1 ~seed:(rep_seed seed ~round:(-round) ~queue:qi)
          ~seconds:infinity ~max_calls:warmup_calls ~sample:false
      in
      ignore (checked tally name r))
    Catalogue.host_queues;
  secs (now_ns () - t0)

let settings mix ~domains ~rep_seconds =
  J.
    [
      ("queues", List (List.map (fun (q, _) -> String q) Catalogue.host_queues));
      ("npriorities", Int (npriorities mix));
      ("prefill_per_domain", Int (prefill_per_domain mix));
      ("hold_lag", Int (match mix with Hold -> hold_lag | Coinflip -> 0));
      ("domains", Int domains);
      ("rep_seconds", Float rep_seconds);
      ("warmup_calls", Int warmup_calls);
    ]

(* Every round starts with a set-up, so the set-up samples span the same
   stretch of host time as the timed reps. *)
let run_untraced mix ~seed ~seconds ~once ~rep_seconds ~domains =
  let tally = tally () in
  let setups = ref [] and rates = Hashtbl.create 8 in
  let round_rates = ref [] and round_words = ref [] in
  let words_total = ref 0. and calls_total = ref 0 in
  let nrounds =
    List.length
    @@ rounds ~seconds ~once (fun round ->
        setups := setup tally mix ~seed ~round :: !setups;
        let reps =
          List.concat @@ List.mapi (fun qi (name, m) ->
              let r =
                rep m mix ~domains ~seed:(rep_seed seed ~round ~queue:qi)
                  ~seconds:rep_seconds ~max_calls:max_int ~sample:false
              in
              if checked tally name r then begin
                Hashtbl.replace rates name
                  (rate r :: Option.value ~default:[] (Hashtbl.find_opt rates name));
                [ r ]
              end
              else [])
            Catalogue.host_queues
        in
        let words_now = List.fold_left (fun acc r -> acc +. words r) 0. reps in
        let calls_now = sum (fun r -> r.calls) reps in
        words_total := !words_total +. words_now;
        calls_total := !calls_total + calls_now;
        round_words := ratio words_now (float_of_int calls_now) :: !round_words;
        round_rates := geomean (List.map rate reps) :: !round_rates)
  in
  let series =
    List.map
      (fun (q, _) -> (q, List.rev (Option.value ~default:[] (Hashtbl.find_opt rates q))))
      Catalogue.host_queues
  in
  (* the geometric mean over queues of each queue's median rate *)
  let ops_per_s = geomean (List.map (fun (_, rates) -> median rates) series) in
  let setups = List.rev !setups in
  {
    tally;
    values =
      [
        ("setup_s", (median setups, setups));
        ("ops_per_s", (ops_per_s, List.rev !round_rates));
        ( "minor_words_per_op",
          (ratio !words_total (float_of_int !calls_total), List.rev !round_words) );
      ];
    series;
    settings = settings mix ~domains ~rep_seconds;
    counts = [ ("rounds", J.Int nrounds) ];
  }

(* one host queue's sums over a traced run *)
type per_queue = {
  mutable untraced : float list;  (** rates of the untraced reps *)
  mutable traced : float list;
  mutable single : float list;  (** rates of the single-domain reps *)
  mutable calls : int;  (** in untraced reps *)
  mutable words : float;
  mutable deletes : int;
  mutable empties : int;
  mutable traced_calls : int;
  mutable acquires : int;
  mutable contended : int;
  mutable try_fails : int;
  insert_ns : Ibuf.t;
  delete_ns : Ibuf.t;
}

(* Hlock's tracer, counting lock events of the traced rep in progress;
   it is called under Hlock's own lock, so plain counters suffice *)
let acquires = ref 0
let contended = ref 0
let try_fails = ref 0

let tracer =
  {
    Hostpq.Hlock.trace =
      (fun ~proc:_ ~time:_ ~tag ~a:_ ~b ->
        if tag = Hostpq.Hlock.tag_acquire then begin
          incr acquires;
          if b = 1 then incr contended
        end
        else if tag = Hostpq.Hlock.tag_try_fail then incr try_fails);
  }

let with_tracer f =
  acquires := 0;
  contended := 0;
  try_fails := 0;
  Hostpq.Hlock.set_tracer (Some tracer);
  Fun.protect ~finally:(fun () -> Hostpq.Hlock.set_tracer None) f

let append (into : Ibuf.t) (b : Ibuf.t) =
  for i = 0 to b.n - 1 do
    Ibuf.push into b.a.(i)
  done

(* Each round runs, per queue: an untraced rep on [domains] domains, a
   traced one (one call in 16 timed, lock events counted) and an
   untraced single-domain rep. *)
let run_traced mix ~seed ~seconds ~once ~rep_seconds ~domains =
  let tally = tally () in
  ignore (setup tally mix ~seed ~round:0);
  let queues =
    List.map
      (fun (name, m) ->
        ( name,
          m,
          {
            untraced = [];
            traced = [];
            single = [];
            calls = 0;
            words = 0.;
            deletes = 0;
            empties = 0;
            traced_calls = 0;
            acquires = 0;
            contended = 0;
            try_fails = 0;
            insert_ns = Ibuf.create ();
            delete_ns = Ibuf.create ();
          } ))
      Catalogue.host_queues
  in
  let nrounds =
    List.length
    @@ rounds ~seconds ~once (fun round ->
        List.iteri
          (fun qi (name, m, c) ->
            let run ~domains ~sample =
              rep m mix ~domains ~seed:(rep_seed seed ~round ~queue:qi)
                ~seconds:rep_seconds ~max_calls:max_int ~sample
            in
            let u = Spans.span (name ^ " untraced") (fun () -> run ~domains ~sample:false) in
            if checked tally name u then begin
              c.untraced <- rate u :: c.untraced;
              c.calls <- c.calls + u.calls;
              c.words <- c.words +. words u;
              c.deletes <- c.deletes + sum (fun (w : worker) -> w.deleted + w.empties) u.workers;
              c.empties <- c.empties + sum (fun (w : worker) -> w.empties) u.workers
            end;
            let t =
              with_tracer (fun () ->
                  Spans.span (name ^ " traced") (fun () -> run ~domains ~sample:true))
            in
            if checked tally name t then begin
              c.traced <- rate t :: c.traced;
              c.traced_calls <- c.traced_calls + t.calls;
              c.acquires <- c.acquires + !acquires;
              c.contended <- c.contended + !contended;
              c.try_fails <- c.try_fails + !try_fails;
              List.iter
                (fun (w : worker) ->
                  append c.insert_ns w.insert_ns;
                  append c.delete_ns w.delete_ns)
                t.workers
            end;
            let s = Spans.span (name ^ " 1 domain") (fun () -> run ~domains:1 ~sample:false) in
            if checked tally name s then c.single <- rate s :: c.single)
          queues)
  in
  let per_queue =
    List.concat_map
      (fun (name, _, c) ->
        let key m = "hostpq." ^ name ^ "." ^ m and lock m = "hlock." ^ name ^ "." ^ m in
        let one v = (v, [ v ]) and med s = (median s, s) in
        let pct b p = one (float_of_int (Ibuf.percentile b p)) in
        [
          (key "ops_per_s", med c.untraced);
          (key "ops_per_s_1d", med c.single);
          (key "insert_ns_p50", pct c.insert_ns 0.5);
          (key "insert_ns_p99", pct c.insert_ns 0.99);
          (key "delete_ns_p50", pct c.delete_ns 0.5);
          (key "delete_ns_p99", pct c.delete_ns 0.99);
          (key "latency_samples", one (float_of_int (c.insert_ns.n + c.delete_ns.n)));
          (key "empty_delete_ratio", one (iratio c.empties c.deletes));
          (key "words_per_op", one (ratio c.words (float_of_int c.calls)));
          (lock "acquires_per_op", one (iratio c.acquires c.traced_calls));
          (lock "contended_ratio", one (iratio c.contended c.acquires));
          (lock "try_fail_ratio", one (iratio c.try_fails (c.acquires + c.try_fails)));
        ])
      queues
  in
  let geo rates = geomean (List.map (fun (_, _, c) -> median (rates c)) queues) in
  let overhead = ratio (geo (fun c -> c.untraced)) (geo (fun c -> c.traced)) -. 1. in
  {
    tally;
    values = ("trace.overhead", (overhead, [ overhead ])) :: per_queue;
    series = [];
    settings = settings mix ~domains ~rep_seconds;
    counts = [ ("rounds", J.Int nrounds) ];
  }
