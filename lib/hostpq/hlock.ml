(* A Mutex wrapper that mirrors the simulator's lock-note protocol on
   real hardware, so host-queue lock traces feed the same analyzer. *)

(* Tag values pinned to Pqsim.Probe.Lock_tag by a unit test; hostpq
   deliberately depends on nothing, so they are restated here. *)
let tag_acquire = 32
let tag_release = 33
let tag_try_fail = 34

type t = {
  mutex : Mutex.t;
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
    mutex = Mutex.create ();
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

let lock t =
  if Mutex.try_lock t.mutex then emit t tag_acquire 0
  else begin
    Mutex.lock t.mutex;
    emit t tag_acquire 1
  end

let try_lock t =
  let ok = Mutex.try_lock t.mutex in
  if ok then emit t tag_acquire 0 else emit t tag_try_fail 0;
  ok

let unlock t =
  emit t tag_release 0;
  Mutex.unlock t.mutex
