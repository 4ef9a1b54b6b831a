(* The effect protocol between Api and this engine is private to the
   two modules, and it is built for zero per-operation allocation: every
   scheduling effect is a *constant* constructor (a constant constructor
   performs without boxing a payload), with its operands passed through
   a domain-local slot record ([args]) that Api fills immediately before
   [Effect.perform] and the handler reads immediately after.  The
   hand-off is safe because performing an effect is synchronous within
   the domain: nothing can run between the slot writes, the [effc]
   dispatch, and the handler closure reading the slots back.  Slots are
   domain-local (not global) because independent simulations run
   concurrently on Pool worker domains.

   Queries that need no scheduling decision (time, identity, randomness,
   statistics, probe annotations) do not perform at all: the same slot
   record carries the running processor's id and its run's context, which
   the engine writes before every [continue] and [match_with], so Api
   answers them with a plain call. *)

type ctx = {
  ptime : int array;
  rngs : Rng.t array;
  stats : Stats.t;
  metrics : Stats.t option;
  sink : Probe.sink option;
  notes : Probe.note option;
  scratch : int array array;
  mutable last_progress : int;
}

type args = {
  mutable a : int;
  mutable b : int;
  mutable c : int;
  mutable pid : int;
  mutable ctx : ctx;
}

let no_ctx =
  {
    ptime = [||];
    rngs = [||];
    stats = Stats.create ();
    metrics = None;
    sink = None;
    notes = None;
    scratch = [||];
    last_progress = 0;
  }

let args_key =
  Domain.DLS.new_key (fun () ->
      { a = 0; b = 0; c = 0; pid = -1; ctx = no_ctx })

let args () = Domain.DLS.get args_key

type _ Effect.t +=
  | Read : int Effect.t  (** addr in [a]; returns the value read *)
  | Write : unit Effect.t  (** addr in [a], value in [b] *)
  | Swap : int Effect.t  (** addr in [a], value in [b]; returns the old *)
  | Cas : bool Effect.t  (** addr in [a], expected in [b], desired in [c] *)
  | Faa : int Effect.t  (** addr in [a], delta in [b]; returns the old *)
  | Work : unit Effect.t  (** cycle count in [a] *)
  | Wait_change : int Effect.t  (** addr in [a], stale value in [b] *)
  | Now : int Effect.t
  | Self : int Effect.t
  | Rand : int Effect.t
  | Flip : bool Effect.t
  | Record : unit Effect.t
  | Progress : unit Effect.t

exception Deadlock of string
exception Cycle_limit of int
exception Spin_limit of { proc : int; addr : int; wakeups : int }

type diagnosis = {
  at_cycle : int;
  stalled_for : int;
  reason : string;
  faulted : int list;
  parked : (int * int) list;
  spinning : (int * Sched.op * int) list;
  writers : (int * int) list;
}

exception Progress_failure of diagnosis

let op_name = function
  | Sched.Read -> "read"
  | Sched.Write -> "write"
  | Sched.Swap -> "swap"
  | Sched.Cas -> "cas"
  | Sched.Faa -> "faa"
  | Sched.Work -> "work"
  | Sched.Wait -> "wait"

let pp_diagnosis ppf d =
  Format.fprintf ppf "no progress for %d cycles at cycle %d (%s)@."
    d.stalled_for d.at_cycle d.reason;
  if d.faulted <> [] then
    Format.fprintf ppf "  faulted processors: %s@."
      (String.concat ", " (List.map (Printf.sprintf "p%d") d.faulted));
  List.iter
    (fun (p, a) -> Format.fprintf ppf "  p%d parked on line %d@." p a)
    d.parked;
  List.iter
    (fun (p, op, a) ->
      if a >= 0 then
        Format.fprintf ppf "  p%d spinning, last op %s on line %d@." p
          (op_name op) a
      else Format.fprintf ppf "  p%d spinning, last op %s@." p (op_name op))
    d.spinning;
  List.iter
    (fun (a, w) -> Format.fprintf ppf "  line %d last written by p%d@." a w)
    d.writers

type result = {
  cycles : int;
  events : int;
  stats : Stats.t;
  mem : Mem.t;
  hits : int;
  misses : int;
  updates : int;
  queue_wait : int;
  faulted : int list;
}

(* engine-side view of each processor, for the progress diagnosis *)
type pstate = Running | Parked of int | Crashed | Done

(* cross-run accumulators for the harness's allocation-discipline gauge:
   total events executed and minor words allocated between the start of
   the event loop and run completion, summed across every run in the
   process (atomically, so Pool worker domains contribute too) *)
let total_events = Atomic.make 0
let total_minor_words = Atomic.make 0

let harness_totals () = (Atomic.get total_events, Atomic.get total_minor_words)

let reset_harness_totals () =
  Atomic.set total_events 0;
  Atomic.set total_minor_words 0

let run ?machine ?(seed = 1) ?(policy = Sched.fifo) ?probe
    ?(max_cycles = 2_000_000_000) ?watchdog ?(max_wait_wakeups = 1_000_000)
    ~nprocs ~setup ~program () =
  let machine =
    match machine with Some m -> m | None -> Machine.make ~nprocs ()
  in
  let mem = Mem.create machine in
  let shared = setup mem in
  let sink = match probe with Some p -> p.Probe.sink | None -> None in
  let metrics = match probe with Some p -> p.Probe.metrics | None -> None in
  let notes = match probe with Some p -> p.Probe.notes | None -> None in
  (* probe emission is strictly passive: no simulated cycles, no RNG
     draws, no engine events — a probed run is bit-identical to the same
     run without the probe *)
  let home addr = Machine.home_module machine addr in
  let q = Evq.create () in
  let stats = Stats.create () in
  let master = Rng.make seed in
  let rngs = Array.init nprocs (Rng.split master) in
  let ptime = Array.make nprocs 0 in
  let state = Array.make nprocs Running in
  (* the two halves of "last access" live in separate unboxed arrays so
     recording one costs two stores, not a tuple *)
  let last_op = Array.make nprocs Sched.Work in
  let last_addr = Array.make nprocs (-1) in
  (* each processor has at most one outstanding continuation; on the
     default-policy fast path it is stashed here and the matching
     [Evq.push_resume] event carries only (pid, value) — no closure.
     The [Obj.repr] is sound: slot [pid] is only ever [Obj.obj]'d back
     at the continuation type it was stored at (the loop's [continue]
     type-pretends [int], and every resumed value is an immediate). *)
  let konts : Obj.t array = Array.make nprocs (Obj.repr 0) in
  (* per-processor wait-in-progress registers: the [Wait_change] state
     machine below keeps its whole context here (address, stale value,
     current attempt's check time, wakeup count), so parking, waking and
     re-arming allocate nothing *)
  let wait_addr = Array.make nprocs (-1) in
  let wait_v0 = Array.make nprocs 0 in
  let wait_t = Array.make nprocs 0 in
  let wait_wakeups = Array.make nprocs 0 in
  let slots = Domain.DLS.get args_key in
  let ctx =
    {
      ptime;
      rngs;
      stats;
      metrics;
      sink;
      notes;
      scratch = Array.make nprocs [||];
      last_progress = 0;
    }
  in
  let running = ref nprocs in
  let faulted = ref 0 in
  let clock = ref 0 in
  let step = ref 0 in
  let faulted_list () =
    List.filteri (fun p _ -> state.(p) = Crashed) (List.init nprocs Fun.id)
  in
  let diagnose reason =
    let parked = ref [] and spinning = ref [] in
    Array.iteri
      (fun p s ->
        match s with
        | Parked addr -> parked := (p, addr) :: !parked
        | Running -> spinning := (p, last_op.(p), last_addr.(p)) :: !spinning
        | Crashed | Done -> ())
      state;
    let addrs =
      List.sort_uniq compare
        (List.map snd !parked
        @ List.filter_map
            (fun (_, _, a) -> if a >= 0 then Some a else None)
            !spinning)
    in
    let writers =
      List.filter_map
        (fun a -> Option.map (fun w -> (a, w)) (Mem.last_writer mem a))
        addrs
    in
    {
      at_cycle = !clock;
      stalled_for = !clock - ctx.last_progress;
      reason;
      faulted = faulted_list ();
      parked = List.rev !parked;
      spinning = List.rev !spinning;
      writers;
    }
  in
  let crash pid =
    (* the operation itself has been applied; only the continuation dies *)
    state.(pid) <- Crashed;
    incr faulted
  in
  let emit_mem pid kind addr ~issued ~finish =
    match sink with
    | None -> ()
    | Some s ->
        s.Probe.emit ~proc:pid ~time:finish
          (Probe.Mem_op { kind; addr; node = home addr; issued })
  in
  (* Wait_change state machine, allocation-free: the effect handler
     loads the per-processor wait registers and calls [wait_attempt];
     each attempt reads the line (costed) and schedules the matching
     preallocated check closure; the check peeks, then either resumes
     the continuation parked in [konts] or parks the processor on the
     line's intrusive waiter chain.  A line change re-enters
     [wait_attempt] through the single waker callback. *)
  let wait_check pid =
    let addr = wait_addr.(pid) in
    let t = wait_t.(pid) in
    let current = Mem.peek mem addr in
    if current <> wait_v0.(pid) then begin
      ptime.(pid) <- t;
      (* emitted on every successful wait, parked or not: a completed
         Wait_change always means the processor observed another's
         write, so the race sanitizer needs the edge even when the
         change landed before the first check *)
      (match sink with
      | Some s -> s.Probe.emit ~proc:pid ~time:t (Probe.Wake { addr })
      | None -> ());
      state.(pid) <- Running;
      slots.pid <- pid;
      let k : (int, unit) Effect.Deep.continuation = Obj.obj konts.(pid) in
      Effect.Deep.continue k current
    end
    else begin
      (match (sink, state.(pid)) with
      | Some s, Running ->
          (* first unsuccessful check: the processor settles onto its
             cached copy *)
          s.Probe.emit ~proc:pid ~time:t (Probe.Park { addr })
      | _ -> ());
      state.(pid) <- Parked addr;
      Mem.watch mem ~addr ~pid
    end
  in
  let checks = Array.init nprocs (fun pid () -> wait_check pid) in
  let wait_attempt pid now =
    if wait_wakeups.(pid) > max_wait_wakeups then
      raise
        (Spin_limit
           { proc = pid; addr = wait_addr.(pid); wakeups = wait_wakeups.(pid) });
    wait_wakeups.(pid) <- wait_wakeups.(pid) + 1;
    (* check and (if needed) arm the watcher inside one event, so no
       write can slip between them *)
    let t = Mem.read_t mem ~proc:pid ~now wait_addr.(pid) in
    if policy == Sched.fifo then begin
      (* same fast path as [resume_at] *)
      incr step;
      wait_t.(pid) <- t;
      Evq.push q ~time:t checks.(pid)
    end
    else
      let verdict =
        policy { Sched.proc = pid; time = t; step = !step; op = Sched.Wait }
      in
      incr step;
      match verdict with
      | Sched.Stall_forever ->
          (match sink with
          | Some s -> s.Probe.emit ~proc:pid ~time:t Probe.Crash
          | None -> ());
          crash pid
      | Sched.Pause _ | Sched.Run _ ->
          let t, weight =
            match verdict with
            | Sched.Pause n -> (t + max 0 n, 0)
            | Sched.Run d -> (t + max 0 d.Sched.delay, d.Sched.weight)
            | Sched.Stall_forever -> assert false
          in
          wait_t.(pid) <- t;
          Evq.push q ~time:t ~weight checks.(pid)
  in
  Mem.set_waker mem (fun pid change ->
      wait_attempt pid (if change > wait_t.(pid) then change else wait_t.(pid)));
  let handler pid : (unit, unit) Effect.Deep.handler =
    let open Effect.Deep in
    let resume_at : type a.
        Sched.op -> int -> (a, unit) continuation -> a -> unit =
     fun op time k v ->
      if policy == Sched.fifo then begin
        (* the default policy ignores its input and always answers
           [Run { delay = 0; weight = 0 }]: skip building the info
           record and matching the verdict — and skip the resume
           closure altogether.  The continuation parks in [konts] and
           the event carries (pid, value); the loop reconnects them.
           Sound because every effect's answer is an immediate. *)
        incr step;
        konts.(pid) <- Obj.repr k;
        Evq.push_resume q ~time ~pid ~v:(Obj.magic v : int)
      end
      else
        let verdict = policy { Sched.proc = pid; time; step = !step; op } in
        incr step;
        match verdict with
        | Sched.Stall_forever ->
            (match sink with
            | Some s -> s.Probe.emit ~proc:pid ~time Probe.Crash
            | None -> ());
            crash pid
        | Sched.Pause n ->
            let until = time + max 0 n in
            (match sink with
            | Some s when n > 0 ->
                s.Probe.emit ~proc:pid ~time (Probe.Stall { until })
            | _ -> ());
            Evq.push q ~time:until (fun () ->
                ptime.(pid) <- until;
                slots.pid <- pid;
                continue k v)
        | Sched.Run d ->
            let time = time + max 0 d.Sched.delay in
            Evq.push q ~time ~weight:d.Sched.weight (fun () ->
                ptime.(pid) <- time;
                slots.pid <- pid;
                continue k v)
    in
    (* one preallocated closure (and [Some] cell) per effect kind per
       processor: [effc] only ever returns these, so dispatching an
       effect allocates nothing beyond the runtime's continuation *)
    let k_read =
     fun (k : (int, unit) continuation) ->
      let addr = slots.a in
      last_op.(pid) <- Sched.Read;
      last_addr.(pid) <- addr;
      let issued = ptime.(pid) in
      let t = Mem.read_t mem ~proc:pid ~now:issued addr in
      emit_mem pid Probe.Read addr ~issued ~finish:t;
      resume_at Sched.Read t k (Mem.out mem)
    in
    let some_read = Some k_read in
    let k_write =
     fun (k : (unit, unit) continuation) ->
      let addr = slots.a and v = slots.b in
      last_op.(pid) <- Sched.Write;
      last_addr.(pid) <- addr;
      let issued = ptime.(pid) in
      let t = Mem.write mem ~proc:pid ~now:issued addr v in
      emit_mem pid Probe.Write addr ~issued ~finish:t;
      resume_at Sched.Write t k ()
    in
    let some_write = Some k_write in
    let k_swap =
     fun (k : (int, unit) continuation) ->
      let addr = slots.a and v = slots.b in
      last_op.(pid) <- Sched.Swap;
      last_addr.(pid) <- addr;
      let issued = ptime.(pid) in
      let t = Mem.swap_t mem ~proc:pid ~now:issued addr v in
      emit_mem pid Probe.Swap addr ~issued ~finish:t;
      resume_at Sched.Swap t k (Mem.out mem)
    in
    let some_swap = Some k_swap in
    let k_cas =
     fun (k : (bool, unit) continuation) ->
      let addr = slots.a and expected = slots.b and desired = slots.c in
      last_op.(pid) <- Sched.Cas;
      last_addr.(pid) <- addr;
      let issued = ptime.(pid) in
      let t = Mem.cas_t mem ~proc:pid ~now:issued addr ~expected ~desired in
      let ok = Mem.out mem <> 0 in
      (match metrics with
      | Some m -> Stats.record m (if ok then "cas.ok" else "cas.fail") 1
      | None -> ());
      emit_mem pid
        (if ok then Probe.Cas_ok else Probe.Cas_fail)
        addr ~issued ~finish:t;
      resume_at Sched.Cas t k ok
    in
    let some_cas = Some k_cas in
    let k_faa =
     fun (k : (int, unit) continuation) ->
      let addr = slots.a and d = slots.b in
      last_op.(pid) <- Sched.Faa;
      last_addr.(pid) <- addr;
      let issued = ptime.(pid) in
      let t = Mem.faa_t mem ~proc:pid ~now:issued addr d in
      emit_mem pid Probe.Faa addr ~issued ~finish:t;
      resume_at Sched.Faa t k (Mem.out mem)
    in
    let some_faa = Some k_faa in
    let k_work =
     fun (k : (unit, unit) continuation) ->
      let n = slots.a in
      if n <= 0 then begin
        slots.pid <- pid;
        continue k ()
      end
      else resume_at Sched.Work (ptime.(pid) + n) k ()
    in
    let some_work = Some k_work in
    let k_wait =
     fun (k : (int, unit) continuation) ->
      let addr = slots.a and v0 = slots.b in
      last_op.(pid) <- Sched.Wait;
      last_addr.(pid) <- addr;
      konts.(pid) <- Obj.repr k;
      wait_addr.(pid) <- addr;
      wait_v0.(pid) <- v0;
      wait_wakeups.(pid) <- 0;
      wait_attempt pid ptime.(pid)
    in
    let some_wait = Some k_wait in
    let effc : type b. b Effect.t -> ((b, unit) continuation -> unit) option =
      function
      | Read -> some_read
      | Write -> some_write
      | Swap -> some_swap
      | Cas -> some_cas
      | Faa -> some_faa
      | Work -> some_work
      | Wait_change -> some_wait
      | _ -> None
    in
    {
      retc =
        (fun () ->
          state.(pid) <- Done;
          decr running);
      exnc = raise;
      effc;
    }
  in
  let prev_active = Probe.active () in
  Probe.set_active (probe <> None);
  Mem.set_probing mem (probe <> None);
  Mem.set_metrics mem metrics;
  (* a run nested inside another run's processor (or any host callback)
     hands the slot back exactly as it found it *)
  let outer_pid = slots.pid and outer_ctx = slots.ctx in
  Fun.protect ~finally:(fun () ->
      Probe.set_active prev_active;
      slots.pid <- outer_pid;
      slots.ctx <- outer_ctx)
  @@ fun () ->
  slots.ctx <- ctx;
  let minor0 = Gc.minor_words () in
  for pid = 0 to nprocs - 1 do
    slots.pid <- pid;
    Effect.Deep.match_with (fun () -> program shared pid) () (handler pid)
  done;
  let rec loop () =
    if !running > !faulted then
      if Evq.is_empty q then
        if watchdog <> None || !faulted > 0 then
          raise (Progress_failure (diagnose "event queue drained"))
        else
          raise
            (Deadlock
               (Printf.sprintf "%d processors blocked at cycle %d" !running
                  !clock))
      else begin
        let e = Evq.pop_exn q in
        let t = e.Evq.time in
        if t > max_cycles then raise (Cycle_limit t);
        clock := t;
        (match watchdog with
        | Some k when t - ctx.last_progress > k ->
            raise (Progress_failure (diagnose "watchdog expired"))
        | _ -> ());
        let pid = e.Evq.pid in
        if pid >= 0 then begin
          ptime.(pid) <- t;
          slots.pid <- pid;
          let k : (int, unit) Effect.Deep.continuation = Obj.obj konts.(pid) in
          Effect.Deep.continue k (Obj.magic e.Evq.v : int)
        end
        else e.Evq.run ();
        loop ()
      end
  in
  loop ();
  let events = Evq.pops q in
  ignore (Atomic.fetch_and_add total_events events);
  ignore
    (Atomic.fetch_and_add total_minor_words
       (int_of_float (Gc.minor_words () -. minor0)));
  ( shared,
    {
      cycles = !clock;
      events;
      stats;
      mem;
      hits = Mem.hits mem;
      misses = Mem.misses mem;
      updates = Mem.updates mem;
      queue_wait = Mem.queue_wait mem;
      faulted = faulted_list ();
    } )
