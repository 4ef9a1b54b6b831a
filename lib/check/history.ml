open Pqsim

type op =
  | Insert of { pri : int; payload : int; accepted : bool }
  | Delete_min of (int * int) option

type event = { proc : int; op : op; t0 : int; t1 : int }
type t = event list

let record ~queue ~nprocs ~npriorities ~ops_per_proc ?(seed = 42)
    ?(policy = Sched.fifo) () =
  let events = ref [] in
  let _ =
    Sim.run ~nprocs ~seed ~policy
      ~setup:(fun mem ->
        Pqcore.Registry.create queue mem
          {
            (Pqcore.Pq_intf.default_params ~nprocs ~npriorities) with
            capacity = (nprocs * ops_per_proc) + 1;
            ops_per_proc = ops_per_proc + 1;
          })
      ~program:(fun q pid ->
        for i = 1 to ops_per_proc do
          Api.work (Api.rand 20);
          let t0 = Api.now () in
          let op =
            if Api.flip () then begin
              let pri = Api.rand npriorities in
              let payload = (pid * 10_000) + i in
              let accepted = q.Pqcore.Pq_intf.insert ~pri ~payload in
              Insert { pri; payload; accepted }
            end
            else Delete_min (q.Pqcore.Pq_intf.delete_min ())
          in
          let t1 = Api.now () in
          events := { proc = pid; op; t0; t1 } :: !events
        done)
      ()
  in
  List.sort (fun a b -> compare (a.t0, a.t1) (b.t0, b.t1)) !events

let pp ppf h =
  List.iter
    (fun e ->
      let desc =
        match e.op with
        | Insert { pri; payload; accepted } ->
            Printf.sprintf "ins(%d,%d)%s" pri payload
              (if accepted then "" else "!")
        | Delete_min None -> "del->None"
        | Delete_min (Some (p, v)) -> Printf.sprintf "del->(%d,%d)" p v
      in
      Format.fprintf ppf "[%d..%d] p%d %s@." e.t0 e.t1 e.proc desc)
    h
