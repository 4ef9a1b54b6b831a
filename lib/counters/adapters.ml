let cas mem =
  let c = Pqstruct.Counter.create mem ~init:0 in
  {
    Ctr_intf.name = "cas";
    inc = (fun () -> Pqstruct.Counter.bfai c ~bound:max_int);
    read_now = (fun mem -> Pqstruct.Counter.peek mem c);
  }

let mcs mem ~nprocs =
  let c =
    Pqstruct.Lcounter.create ~name:(Root "mcs.counter") mem ~nprocs ~init:0
  in
  {
    Ctr_intf.name = "mcs";
    inc = (fun () -> Pqstruct.Lcounter.fai c);
    read_now = (fun mem -> Pqstruct.Lcounter.peek mem c);
  }

let funnel mem ~nprocs =
  let c =
    Pqfunnel.Fcounter.create ~name:(Root "funnel.counter") mem ~nprocs
      ~init:0 ()
  in
  {
    Ctr_intf.name = "funnel";
    inc = (fun () -> Pqfunnel.Fcounter.inc c);
    read_now = (fun mem -> Pqfunnel.Fcounter.peek mem c);
  }
