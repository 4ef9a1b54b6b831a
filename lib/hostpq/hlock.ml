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

(* [state]: 0 free, 1 held, 2 held with a domain possibly parked.  A
   lock's name is [base], or [base[index]] when [index] >= 0; it is
   formatted only when a trace records the lock. *)
type t = {
  state : int Atomic.t;
  id : int;
  base : string option;
  index : int;
  mutable epoch : int;  (* the trace that last recorded the name *)
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

let no_index = -1

let make state ?name ~index () =
  { state; id = Atomic.fetch_and_add next_id 1; base = name; index; epoch = 0 }

let create ?name ~index () = make (Atomic.make 0) ?name ~index ()

let create_padded ?name ~index () =
  make (Padded.copy (Atomic.make 0)) ?name ~index ()

let id t = t.id

let name t =
  match t.base with
  | Some b when t.index >= 0 -> Some (Printf.sprintf "%s[%d]" b t.index)
  | n -> n

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
            match name t with
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

(* Parking happens in one of [buckets] shared (mutex, condition) pairs,
   chosen by lock id, so a lock builds no OS object of its own.
   Exchanging in 2 both tries the lock and tells the holder to wake
   someone.  The exchange and the wait happen under the bucket's mutex,
   and an unlock that reads 2 broadcasts under that mutex too, so its
   wake-up cannot fall between a parker's failed exchange and its wait.
   The bucket is shared by several locks, so the unlock wakes every
   parker in it: a signal could wake a parker of another lock and leave
   this lock's parkers asleep.  A woken domain exchanges 2 in again
   before any further wait, so a parker of another lock, or one that
   lost the lock to a domain that took it by CAS while it slept, leaves
   that lock's state 2 when it goes back to waiting, and that holder's
   unlock broadcasts.  A domain that acquires here holds the lock in
   state 2: others may still be parked. *)
let buckets = 64

type bucket = { mutex : Mutex.t; cond : Condition.t }

(* built by the first domain that parks, so a program whose locks never
   park makes no OS object at all; an unlock that reads 2 follows a
   parker, so it always finds the table built *)
let table : bucket array Atomic.t = Atomic.make [||]

let rec bucket t =
  let a = Atomic.get table in
  if Array.length a > 0 then a.(t.id mod buckets)
  else begin
    ignore
      (Atomic.compare_and_set table a
         (Array.init buckets (fun _ ->
              { mutex = Mutex.create (); cond = Condition.create () })));
    bucket t
  end

let park t =
  let b = bucket t in
  Mutex.lock b.mutex;
  while Atomic.exchange t.state 2 <> 0 do
    Condition.wait b.cond b.mutex
  done;
  Mutex.unlock b.mutex

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
    let b = bucket t in
    Mutex.lock b.mutex;
    Condition.broadcast b.cond;
    Mutex.unlock b.mutex
  end
