open Pqsim

(* The lock word: 0 free, 1 held.  [acq_at] is host-side probe bookkeeping
   (acquisition cycle per processor) and is only touched under a probe. *)

type t = { word : int; acq_at : int array }

let create ?name mem =
  let word = Mem.alloc mem 1 in
  (match name with
  | Some n -> Mem.label mem ~addr:word ~len:1 n
  | None -> ());
  Mem.declare_sync mem ~addr:word ~len:1;
  { word; acq_at = Array.make (Mem.machine mem).Machine.nprocs 0 }

let id t = t.word

let try_raw t = Api.cas t.word ~expected:0 ~desired:1

let try_acquire t =
  let ok = try_raw t in
  (if Api.probing () then
     if ok then begin
       Api.count "lock.acquire" 1;
       Api.count "lock.wait" 0;
       Api.note Probe.Lock_tag.acquire t.word 0;
       t.acq_at.(Api.self ()) <- Api.now ()
     end
     else begin
       (* the CAS observed the word held: a contention event, counted
          under the same key the blocking path uses so try-lock and
          queue-lock contention rates are commensurable *)
       Api.count "lock.contend" 1;
       Api.note Probe.Lock_tag.try_fail t.word 0
     end);
  ok

let is_free v = v = 0

(* the contended path: test loop on the cached copy until the lock looks
   free, back off, retry; the window is threaded through, not boxed *)
let rec contend t window =
  ignore (Api.await t.word ~until:is_free);
  let window = Backoff.pause window in
  if not (try_raw t) then contend t window

let acquire t =
  let probing = Api.probing () in
  let t0 = if probing then Api.now () else 0 in
  let contended = not (try_raw t) in
  if contended then contend t Backoff.first;
  if probing then begin
    let acquired = Api.now () in
    Api.count "lock.acquire" 1;
    Api.count "lock.wait" (acquired - t0);
    if contended then Api.count "lock.contend" 1;
    Api.note Probe.Lock_tag.acquire t.word (if contended then 1 else 0);
    t.acq_at.(Api.self ()) <- acquired
  end

let release t =
  (if Api.probing () then begin
     Api.count "lock.release" 1;
     Api.count "lock.hold" (Api.now () - t.acq_at.(Api.self ()));
     Api.note Probe.Lock_tag.release t.word 0
   end);
  Api.write t.word 0

let held t = Api.read t.word = 1
