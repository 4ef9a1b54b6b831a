type mem_kind = Read | Write | Swap | Cas_ok | Cas_fail | Faa

let mem_kind_name = function
  | Read -> "read"
  | Write -> "write"
  | Swap -> "swap"
  | Cas_ok -> "cas"
  | Cas_fail -> "cas!"
  | Faa -> "faa"

type ev =
  | Mem_op of { kind : mem_kind; addr : int; node : int; issued : int }
  | Park of { addr : int }
  | Wake of { addr : int }
  | Stall of { until : int }
  | Crash
  | Mark of { name : string; arg : int }
  | Span of { name : string; start : int }

(* Tags of the lock-event note protocol (Api.note) emitted by the
   Pqsync locks.  Offset well above the workload op-note tags (1..7,
   Pqcheck.Monitor.Tag) so the two vocabularies share the one note
   channel; any consumer dispatching on tags must ignore unknown ones. *)
module Lock_tag = struct
  let acquire = 32
  let release = 33
  let try_fail = 34
end

type sink = { emit : proc:int -> time:int -> ev -> unit }

type note = { note : proc:int -> time:int -> tag:int -> a:int -> b:int -> unit }

type t = { sink : sink option; metrics : Stats.t option; notes : note option }

let make ?sink ?metrics ?notes () = { sink; metrics; notes }

(* True while a probed Sim.run is executing.  Library code guards its
   instrumentation effects on this flag, so unprobed runs perform no
   extra effects and allocate nothing.  Domain-local rather than a plain
   global: the engine multiplexes simulated processors on one domain and
   runs never nest, but independent simulations may run concurrently in
   sibling domains (parallel experiment sweeps), and a probe in one must
   not switch instrumentation on in another. *)
let active_key : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)
let active () = !(Domain.DLS.get active_key)
let set_active b = Domain.DLS.get active_key := b
