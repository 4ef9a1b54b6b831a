open Pqsim

(* The mode word's address rides in the counter's name ("reactive@addr")
   so [mode_now] can find it without host-side side tables or widening
   Ctr_intf. *)
let name_prefix = "reactive@"

(* hysteresis: switch up after [up_after] consecutive busy lock
   acquisitions (two or more failed tries each), down after [down_after]
   consecutive un-combined climbs *)
let up_after = 1
let down_after = 8

let create mem ~nprocs =
  let central = Mem.alloc mem 1 in
  let mode = Mem.alloc mem 1 in
  Mem.label mem ~addr:central ~len:1 (Root "reactive.central");
  Mem.label mem ~addr:mode ~len:1 (Root "reactive.mode");
  (* central is a read-then-CAS target; mode is the racy adaptivity hint
     every operation consults without synchronization *)
  Mem.declare_sync mem ~addr:central ~len:1;
  Mem.declare_sync mem ~addr:mode ~len:1;
  let lock = Pqsync.Tas.create ~name:(Root "reactive.lock") mem in
  let solo = Array.make nprocs 0 in
  let busy_streak = Array.make nprocs 0 in
  let tree =
    Combtree.create ~name:(Root "reactive.tree") mem ~nprocs ~central ~solo ()
  in
  let cas_faa addr =
    let rec go window =
      let v = Api.read addr in
      if Api.cas addr ~expected:v ~desired:(v + 1) then v
      else go (Pqsync.Backoff.pause window)
    in
    go Pqsync.Backoff.first
  in
  let inc () =
    let me = Api.self () in
    if Api.read mode = 0 then begin
      (* lock path; count failed acquisition attempts as a load signal *)
      let rec acquire fails window =
        if Pqsync.Tas.try_acquire lock then fails
        else acquire (fails + 1) (Pqsync.Backoff.pause window)
      in
      let fails = acquire 0 Pqsync.Backoff.first in
      let v = cas_faa central in
      Pqsync.Tas.release lock;
      if fails >= 2 then begin
        busy_streak.(me) <- busy_streak.(me) + 1;
        if busy_streak.(me) >= up_after then begin
          Api.write mode 1;
          busy_streak.(me) <- 0
        end
      end
      else busy_streak.(me) <- 0;
      v
    end
    else begin
      let v = tree.Ctr_intf.inc () in
      if solo.(me) >= down_after then begin
        Api.write mode 0;
        solo.(me) <- 0
      end;
      v
    end
  in
  {
    Ctr_intf.name = Printf.sprintf "%s%d" name_prefix mode;
    inc;
    read_now = (fun mem -> Mem.peek mem central);
  }

let mode_now mem (c : Ctr_intf.t) =
  let name = c.Ctr_intf.name and plen = String.length name_prefix in
  let addr =
    if String.starts_with ~prefix:name_prefix name then
      int_of_string_opt (String.sub name plen (String.length name - plen))
    else None
  in
  match addr with
  | Some addr -> Mem.peek mem addr
  | None -> invalid_arg "Reactive.mode_now: not a reactive counter"
