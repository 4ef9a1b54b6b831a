(* Stack-safety regression for the engine's direct-handoff dispatch.

   Every handler, [retc] and wait check of [Sim.run] ends by tail-calling
   the dispatcher, which tail-calls the next processor's continuation or
   wait check, so a run's host stack stays flat however many events it
   executes.  A dispatch call left out of tail position leaves one frame
   behind per event; [dune runtest] therefore runs this program under a
   16k-word stack limit (OCAMLRUNPARAM=l=16k), where a million leftover
   frames overflow at once.  It drives both kinds of event, under both
   kinds of policy:

   - rounds on one flag word: one processor works, then bumps the flag,
     while the others wait for it with [Api.wait_change], so every round
     parks and wakes each of them (wait checks, resume events, the park
     branch of the check), once under the default policy and once under
     a random-preemption policy, whose verdicts schedule the wait checks
     too;
   - a shared counter under a random-preemption policy: every effect is
     rescheduled through the policy's verdict.

   Exits 1 if any run executes fewer than a million events or ends
   with the wrong result, or if the waiters park in fewer than half the
   flag rounds. *)

open Pqsim

let min_events = 1_000_000

let check name ~events ok =
  Printf.printf "%s: %d events\n" name events;
  if events < min_events || not ok then begin
    Printf.printf "%s: FAILED (want >= %d events and a correct result)\n" name
      min_events;
    exit 1
  end

(* rounds on one flag word, under [policy] *)
let flag_rounds name ?policy () =
  let nprocs = 8 and rounds = 70_000 in
  let parks = ref 0 in
  let sink =
    {
      Probe.emit =
        (fun ~proc:_ ~time:_ -> function Probe.Park _ -> incr parks | _ -> ());
    }
  in
  let flag, r =
    Sim.run ~nprocs ?policy ~probe:(Probe.make ~sink ())
      ~setup:(fun mem -> Mem.alloc mem 1)
      ~program:(fun flag pid ->
        for round = 1 to rounds do
          if pid = 0 then begin
            Api.work 500;
            Api.write flag round
          end
          else begin
            let v = ref (Api.read flag) in
            while !v < round do
              v := Api.wait_change flag !v
            done
          end
        done)
      ()
  in
  (* every waiter parks in (nearly) every round *)
  check name ~events:r.Sim.events
    (Mem.peek r.Sim.mem flag = rounds && !parks >= (nprocs - 1) * rounds / 2)

let () = flag_rounds "flag rounds (wait_change)" ()

let () =
  flag_rounds "flag rounds (wait_change, random preemption)"
    ~policy:(Pqexplore.Policy.random ~seed:7)
    ()

let () =
  let nprocs = 4 and incs = 300_000 in
  let counter, r =
    Sim.run ~nprocs
      ~policy:(Pqexplore.Policy.random ~seed:7)
      ~setup:(fun mem -> Mem.alloc mem 1)
      ~program:(fun counter _ ->
        for _ = 1 to incs do
          ignore (Api.faa counter 1)
        done)
      ()
  in
  check "counter (random preemption)" ~events:r.Sim.events
    (Mem.peek r.Sim.mem counter = nprocs * incs)
