(* The scheduling wrappers write their operands into the calling domain's
   slot record and perform the corresponding constant effect constructor;
   the queries read the running processor's context from the same record
   and never perform inside a run — see the protocol note on {!Sim.args}.
   Nothing here allocates outside probe-only paths. *)

let read addr =
  let s = Sim.args () in
  s.Sim.a <- addr;
  Effect.perform Sim.Read

let write addr v =
  let s = Sim.args () in
  s.Sim.a <- addr;
  s.Sim.b <- v;
  Effect.perform Sim.Write

let swap addr v =
  let s = Sim.args () in
  s.Sim.a <- addr;
  s.Sim.b <- v;
  Effect.perform Sim.Swap

let cas addr ~expected ~desired =
  let s = Sim.args () in
  s.Sim.a <- addr;
  s.Sim.b <- expected;
  s.Sim.c <- desired;
  Effect.perform Sim.Cas

let faa addr d =
  let s = Sim.args () in
  s.Sim.a <- addr;
  s.Sim.b <- d;
  Effect.perform Sim.Faa

let work n =
  let s = Sim.args () in
  s.Sim.a <- n;
  Effect.perform Sim.Work

let wait_change addr v =
  let s = Sim.args () in
  s.Sim.a <- addr;
  s.Sim.b <- v;
  Effect.perform Sim.Wait_change

(* Outside any run [pid] is -1 and the queries perform their (unhandled)
   effect, so misuse still raises [Effect.Unhandled]. *)

let now () =
  let s = Sim.args () in
  if s.Sim.pid < 0 then Effect.perform Sim.Now
  else s.Sim.ctx.Sim.ptime.(s.Sim.pid)

let self () =
  let s = Sim.args () in
  if s.Sim.pid < 0 then Effect.perform Sim.Self else s.Sim.pid

let rand n =
  let s = Sim.args () in
  if s.Sim.pid < 0 then Effect.perform Sim.Rand
  else Rng.int s.Sim.ctx.Sim.rngs.(s.Sim.pid) n

let flip () =
  let s = Sim.args () in
  if s.Sim.pid < 0 then Effect.perform Sim.Flip
  else Rng.bool s.Sim.ctx.Sim.rngs.(s.Sim.pid)

let record key v =
  let s = Sim.args () in
  if s.Sim.pid < 0 then Effect.perform Sim.Record
  else Stats.record s.Sim.ctx.Sim.stats key v

let progress () =
  let s = Sim.args () in
  if s.Sim.pid < 0 then Effect.perform Sim.Progress
  else
    let c = s.Sim.ctx in
    let t = c.Sim.ptime.(s.Sim.pid) in
    if t > c.Sim.last_progress then c.Sim.last_progress <- t

let scratch n =
  let s = Sim.args () in
  let pid = s.Sim.pid in
  if pid < 0 then invalid_arg "Api.scratch: no simulated processor is running";
  let regs = s.Sim.ctx.Sim.scratch in
  let a = regs.(pid) in
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    regs.(pid) <- b;
    b
  end

let rec await_from addr until v =
  if until v then v else await_from addr until (wait_change addr v)

let await addr ~until = await_from addr until (read addr)
let probing () = Probe.active ()

(* The probe-only calls below run only while [probing ()] holds, which
   implies a probed run is executing, so [pid] is a live processor. *)

let count key v =
  if probing () then
    match (Sim.args ()).Sim.ctx.Sim.metrics with
    | Some m -> Stats.record m key v
    | None -> ()

let emit ev =
  let s = Sim.args () in
  match s.Sim.ctx.Sim.sink with
  | Some sink ->
      let pid = s.Sim.pid in
      sink.Probe.emit ~proc:pid ~time:s.Sim.ctx.Sim.ptime.(pid) ev
  | None -> ()

let mark name arg = if probing () then emit (Probe.Mark { name; arg })

let note tag a b =
  if probing () then begin
    let s = Sim.args () in
    match s.Sim.ctx.Sim.notes with
    | Some n ->
        let pid = s.Sim.pid in
        n.Probe.note ~proc:pid ~time:s.Sim.ctx.Sim.ptime.(pid) ~tag ~a ~b
    | None -> ()
  end

let timed_since key t0 =
  record key (now () - t0);
  if probing () then emit (Probe.Span { name = key; start = t0 })

let timed key f =
  let t0 = now () in
  let x = f () in
  timed_since key t0;
  x
