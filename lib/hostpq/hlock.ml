(* The paper's lock on real hardware: test-and-test-and-set with
   randomized exponential backoff, parking in the kernel only after a
   bounded spin, and speaking the simulator's lock-note protocol so
   host-queue lock traces feed the same analyzer. *)

(* Tag values pinned to Pqsim.Probe.Lock_tag by a unit test; hostpq
   deliberately depends on nothing, so they are restated here. *)
let tag_acquire = 32
let tag_release = 33
let tag_try_fail = 34

(* Backoff window bounds, pinned to Pqsync.Backoff's by the same test. *)
let backoff_first = 4
let backoff_limit = 512

(* backoff rounds before a contender parks *)
let spin_rounds = 16

(* [state]: 0 free, 1 held, 2 held with a domain possibly parked.
   [park] and [wake] are touched only by parking contenders and by an
   unlock that read 2, never on the fast path. *)
type t = {
  state : int Atomic.t;
  park : Mutex.t;
  wake : Condition.t;
  id : int;
  name : string option;
  mutable epoch : int;  (* the trace that last recorded [name] *)
}

type tracer = {
  trace : proc:int -> time:int -> tag:int -> a:int -> b:int -> unit;
}

(* Ids are creation-ordered.  Names resolve ids back to symbols for the
   analyzer, which only ever asks about locks that appear in a trace, so
   a lock's name is recorded by its first event of each trace, not at
   creation: untraced code keeps no table that grows with every lock it
   makes. *)
let next_id = Atomic.make 1

let create ?name () =
  {
    state = Atomic.make 0;
    park = Mutex.create ();
    wake = Condition.create ();
    id = Atomic.fetch_and_add next_id 1;
    name;
    epoch = 0;
  }

let id t = t.id
let name t = t.name

(* The tracer is global and off by default: untraced operations pay one
   load.  Emission is serialized under [trace_lock] with a shared tick,
   so events reach the consumer in a total order consistent with each
   domain's program order — the analyzer's stream assumption — and the
   consumer needs no synchronization of its own.  Tracing perturbs
   timing (it is a verification mode, not a benchmark mode).  [epoch],
   [names] and every lock's [epoch] field are guarded by [trace_lock]
   too. *)
let tracer : tracer option ref = ref None
let trace_lock = Mutex.create ()
let ticks = ref 0
let epoch = ref 0  (* counts installed tracers *)
let names : (int, string) Hashtbl.t = Hashtbl.create 16

let label_of id =
  Mutex.lock trace_lock;
  let n = Hashtbl.find_opt names id in
  Mutex.unlock trace_lock;
  n

(* installing a tracer starts a new trace, with no names yet; clearing
   it keeps the names for [label_of] *)
let set_tracer t =
  Mutex.lock trace_lock;
  tracer := t;
  ticks := 0;
  (match t with
  | Some _ ->
      incr epoch;
      Hashtbl.reset names
  | None -> ());
  Mutex.unlock trace_lock

let emit t tag b =
  match !tracer with
  | None -> ()
  | Some _ ->
      Mutex.lock trace_lock;
      (match !tracer with
      | Some { trace } ->
          if t.epoch <> !epoch then begin
            t.epoch <- !epoch;
            match t.name with
            | Some n -> Hashtbl.replace names t.id n
            | None -> ()
          end;
          let time = !ticks in
          ticks := time + 1;
          trace ~proc:(Domain.self () :> int) ~time ~tag ~a:t.id ~b
      | None -> ());
      Mutex.unlock trace_lock

(* test, then test-and-set: a held lock costs a load, not a write *)
let try_raw t = Atomic.get t.state = 0 && Atomic.compare_and_set t.state 0 1

(* Exchanging in 2 both tries the lock and tells the holder to wake
   someone.  The exchange and the wait happen under [park], and an
   unlock that reads 2 signals under [park] too, so its signal cannot
   fall between a parker's failed exchange and its wait.  A woken
   domain exchanges 2 in again before any further wait, so a domain
   that took the lock by CAS while another slept leaves the state 2
   when the sleeper goes back to waiting, and that holder's unlock
   signals.  A domain that acquires here holds the lock in state 2:
   others may still be parked. *)
let park t =
  Mutex.lock t.park;
  while Atomic.exchange t.state 2 <> 0 do
    Condition.wait t.wake t.park
  done;
  Mutex.unlock t.park

let rec relax n =
  if n > 0 then begin
    Domain.cpu_relax ();
    relax (n - 1)
  end

(* one round: pause for a uniform 1..window spins, then test and set;
   the window doubles up to [backoff_limit] as in Pqsync.Backoff *)
let rec contend t window rounds =
  if rounds = 0 then park t
  else begin
    relax (1 + (Local_rand.next () land (window - 1)));
    if not (try_raw t) then
      let window = 2 * window in
      contend t
        (if window > backoff_limit then backoff_limit else window)
        (rounds - 1)
  end

let lock t =
  if try_raw t then emit t tag_acquire 0
  else begin
    contend t backoff_first spin_rounds;
    emit t tag_acquire 1
  end

let try_lock t =
  let ok = try_raw t in
  if ok then emit t tag_acquire 0 else emit t tag_try_fail 0;
  ok

let unlock t =
  emit t tag_release 0;
  if Atomic.exchange t.state 0 = 2 then begin
    Mutex.lock t.park;
    Condition.signal t.wake;
    Mutex.unlock t.park
  end
