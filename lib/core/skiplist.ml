open Pqsim

type s = {
  base : Pqstruct.Skipbase.t;
  delbin : int; (* addr: priority whose bin is the delete buffer, or -1 *)
  del_lock : Pqsync.Tas.t;
  npriorities : int;
}

let bin_of s pri =
  Pqstruct.Skipbase.bin (Pqstruct.Skipbase.node_of_pri s.base pri)

(* delete_min's steps recurse at top level with every operand an
   argument, so an operation allocates nothing but its result. *)

(* walk the threaded nodes from priority [pri] below the buffer's
   priority [db]; emptiness tests are single (usually cached) reads, as
   in SimpleLinear *)
let rec walk s db pri =
  if pri <> Pqstruct.Skipbase.none && (db < 0 || pri < db) then begin
    let b = bin_of s pri in
    if Pqstruct.Bin.is_empty b then
      walk s db (Pqstruct.Skipbase.next s.base pri)
    else
      let e = Pqstruct.Bin.delete b in
      if e = Pqstruct.Bin.none then
        walk s db (Pqstruct.Skipbase.next s.base pri)
      else Some (pri, e)
  end
  else None

(* Drain the delete buffer; when it runs dry, one processor advances it
   to the (unthreaded) first node of the list.  An element of smaller
   priority threaded after the buffer was detached is served first —
   Figure 12 omits this check, but without it the queue is not
   linearizable (a stale buffer would shadow a smaller arrival). *)
let rec delete_min s =
  let db = Api.read s.delbin in
  match walk s db (Pqstruct.Skipbase.first s.base) with
  | Some _ as r -> r
  | None ->
      let e =
        if db < 0 then Pqstruct.Bin.none
        else Pqstruct.Bin.delete (bin_of s db)
      in
      if e <> Pqstruct.Bin.none then Some (db, e) else advance s db

and advance s db =
  if Pqsync.Tas.try_acquire s.del_lock then begin
    (* re-check under the lock: the buffer may have been refilled or
       advanced meanwhile *)
    let db' = Api.read s.delbin in
    let refilled =
      db' <> db || db' >= 0 && not (Pqstruct.Bin.is_empty (bin_of s db'))
    in
    if refilled then begin
      Pqsync.Tas.release s.del_lock;
      delete_min s
    end
    else begin
      let pri = Pqstruct.Skipbase.unthread_first s.base in
      if pri <> Pqstruct.Skipbase.none then begin
        Api.write s.delbin pri;
        Pqsync.Tas.release s.del_lock;
        delete_min s
      end
      else begin
        (* empty list, or first node's threading in flight *)
        let inflight =
          Pqstruct.Skipbase.first s.base <> Pqstruct.Skipbase.none
        in
        Pqsync.Tas.release s.del_lock;
        if inflight then delete_min s else None
      end
    end
  end
  else begin
    (* someone else is advancing the buffer *)
    Api.work 8;
    delete_min s
  end

let create mem (p : Pq_intf.params) =
  let base =
    Pqstruct.Skipbase.create ~name:(Root "SkipList") mem ~nprocs:p.nprocs
      ~npriorities:p.npriorities ~bin_cap:p.bin_capacity ~seed:p.seed
  in
  let delbin = Mem.alloc mem 1 in
  Mem.label mem ~addr:delbin ~len:1 (Root "SkipList.delbin");
  (* read optimistically outside [del_lock] and re-checked under it *)
  Mem.declare_sync mem ~addr:delbin ~len:1;
  let s =
    {
      base;
      delbin;
      del_lock = Pqsync.Tas.create ~name:(Root "SkipList.del_lock") mem;
      npriorities = p.npriorities;
    }
  in
  Mem.poke mem s.delbin (-1);
  let insert ~pri ~payload =
    if Pqstruct.Bin.insert (bin_of s pri) payload then begin
      Pqstruct.Skipbase.ensure_threaded s.base pri;
      true
    end
    else false
  in
  let delete_min () = delete_min s in
  let drain_now mem =
    List.concat_map
      (fun pri ->
        let b =
          Pqstruct.Skipbase.bin (Pqstruct.Skipbase.node_of_pri s.base pri)
        in
        List.map (fun e -> (pri, e)) (Pqstruct.Bin.drain_now mem b))
      (List.init s.npriorities Fun.id)
  in
  let check_now mem =
    match Pqstruct.Skipbase.invariants_now mem s.base with
    | Error _ as e -> e
    | Ok () ->
        (* every priority with a non-empty bin must be reachable: threaded,
           or sitting in the delete buffer *)
        let db = Mem.peek mem s.delbin in
        let rec go pri =
          if pri >= s.npriorities then Ok ()
          else
            let node = Pqstruct.Skipbase.node_of_pri s.base pri in
            let occupied =
              Pqstruct.Bin.size_now mem (Pqstruct.Skipbase.bin node) > 0
            in
            if
              occupied
              && (not (Pqstruct.Skipbase.threaded_now mem node))
              && pri <> db
            then Error (Printf.sprintf "stranded items at priority %d" pri)
            else go (pri + 1)
        in
        go 0
  in
  {
    Pq_intf.name = "SkipList";
    npriorities = p.npriorities;
    insert;
    delete_min;
    drain_now;
    check_now;
  }
