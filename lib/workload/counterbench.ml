open Pqsim

type mode = Faa | Bounded of { elim : bool }

let local_work = 10
let seed = 42

let run ~mode ~nprocs ~dec_percent ~ops_per_proc =
  let init = nprocs * ops_per_proc in
  (* start high enough that bounded decrements rarely hit the floor: the
     figure measures funnel mechanics, not boundary effects *)
  let _, result =
    Sim.run ~nprocs ~seed
      ~setup:(fun mem ->
        match mode with
        | Faa -> `Faa (Pqfunnel.Fcounter.create mem ~nprocs ~init ())
        | Bounded { elim } ->
            `Bounded
              (Pqfunnel.Fcounter.create mem ~nprocs ~elim ~floor:0 ~init ()))
      ~program:(fun c _pid ->
        for _ = 1 to ops_per_proc do
          Api.work local_work;
          let dec = Api.rand 100 < dec_percent in
          Api.timed "op" (fun () ->
              match c with
              | `Faa c -> ignore (Pqfunnel.Fcounter.add c (if dec then -1 else 1))
              | `Bounded c ->
                  if dec then ignore (Pqfunnel.Fcounter.dec c)
                  else ignore (Pqfunnel.Fcounter.inc c))
        done)
      ()
  in
  Stats.mean result.Sim.stats "op"
