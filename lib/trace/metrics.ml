open Pqsim

type derived = {
  cas_ok : int;
  cas_fail : int;
  cas_failure_rate : float;
  lock_acquires : int;
  lock_releases : int;
  lock_contended : int;
  lock_wait_total : int;
  lock_wait_mean : float;
  lock_wait_p99 : int;
  lock_hold_mean : float;
  lock_hold_p99 : int;
  funnel_ops : int;
  funnel_combined : int;
  funnel_eliminated : int; (* pairs; each finishes two operations *)
  funnel_central : int;
  funnel_declined : int;
  funnel_contended : int;
  combining_rate : float; (* combined / ops *)
  elimination_rate : float; (* 2*eliminated / ops *)
  comb_ops : int;
  comb_absorbed : int;
  comb_central : int;
  comb_combining_rate : float; (* absorbed / ops *)
  remote_traffic : int;
  local_traffic : int;
  remote_share : float; (* remote / (remote + local) *)
}

let ratio num den =
  if den = 0 then 0.0 else float_of_int num /. float_of_int den

let derive s =
  let c = Stats.count s in
  let cas_ok = c "cas.ok" and cas_fail = c "cas.fail" in
  let funnel_ops = c "funnel.ops" in
  let funnel_combined = c "funnel.combine" in
  let funnel_eliminated = c "funnel.eliminate" in
  let comb_ops = c "comb.ops" in
  let comb_absorbed = c "comb.absorbed" in
  let remote_traffic = c "mem.remote" and local_traffic = c "mem.local" in
  {
    cas_ok;
    cas_fail;
    cas_failure_rate = ratio cas_fail (cas_ok + cas_fail);
    lock_acquires = c "lock.acquire";
    lock_releases = c "lock.release";
    lock_contended = c "lock.contend";
    lock_wait_total = Stats.sum s "lock.wait";
    lock_wait_mean = Stats.mean s "lock.wait";
    lock_wait_p99 = Stats.percentile s "lock.wait" 0.99;
    lock_hold_mean = Stats.mean s "lock.hold";
    lock_hold_p99 = Stats.percentile s "lock.hold" 0.99;
    funnel_ops;
    funnel_combined;
    funnel_eliminated;
    funnel_central = c "funnel.central";
    funnel_declined = c "funnel.decline";
    funnel_contended = c "funnel.contend";
    combining_rate = ratio funnel_combined funnel_ops;
    elimination_rate = ratio (2 * funnel_eliminated) funnel_ops;
    comb_ops;
    comb_absorbed;
    comb_central = c "comb.central";
    comb_combining_rate = ratio comb_absorbed comb_ops;
    remote_traffic;
    local_traffic;
    remote_share = ratio remote_traffic (remote_traffic + local_traffic);
  }

(* ---- windowed rates (the adaptive classifier's inputs) ----------- *)

type sample = {
  s_cas_ok : int;
  s_cas_fail : int;
  s_lock_acquires : int;
  s_lock_wait_total : int;
  s_remote : int;
  s_local : int;
}

let empty_sample =
  {
    s_cas_ok = 0;
    s_cas_fail = 0;
    s_lock_acquires = 0;
    s_lock_wait_total = 0;
    s_remote = 0;
    s_local = 0;
  }

let sample s =
  let c = Stats.count s in
  {
    s_cas_ok = c "cas.ok";
    s_cas_fail = c "cas.fail";
    s_lock_acquires = c "lock.acquire";
    s_lock_wait_total = Stats.sum s "lock.wait";
    s_remote = c "mem.remote";
    s_local = c "mem.local";
  }

type window = {
  w_cas : int;
  w_cas_fail_rate : float;
  w_lock_acquires : int;
  w_lock_wait_mean : float;
  w_traffic : int;
  w_remote_share : float;
}

let window ~prev ~cur =
  let d f = f cur - f prev in
  let cas_ok = d (fun s -> s.s_cas_ok) and cas_fail = d (fun s -> s.s_cas_fail) in
  let acq = d (fun s -> s.s_lock_acquires) in
  let wait = d (fun s -> s.s_lock_wait_total) in
  let remote = d (fun s -> s.s_remote) and local = d (fun s -> s.s_local) in
  {
    w_cas = cas_ok + cas_fail;
    w_cas_fail_rate = ratio cas_fail (cas_ok + cas_fail);
    w_lock_acquires = acq;
    w_lock_wait_mean = ratio wait acq;
    w_traffic = remote + local;
    w_remote_share = ratio remote (remote + local);
  }

let to_json d =
  Json.Obj
    [
      ("cas_ok", Json.Int d.cas_ok);
      ("cas_fail", Json.Int d.cas_fail);
      ("cas_failure_rate", Json.Float d.cas_failure_rate);
      ("lock_acquires", Json.Int d.lock_acquires);
      ("lock_releases", Json.Int d.lock_releases);
      ("lock_contended", Json.Int d.lock_contended);
      ("lock_wait_total", Json.Int d.lock_wait_total);
      ("lock_wait_mean", Json.Float d.lock_wait_mean);
      ("lock_wait_p99", Json.Int d.lock_wait_p99);
      ("lock_hold_mean", Json.Float d.lock_hold_mean);
      ("lock_hold_p99", Json.Int d.lock_hold_p99);
      ("funnel_ops", Json.Int d.funnel_ops);
      ("funnel_combined", Json.Int d.funnel_combined);
      ("funnel_eliminated", Json.Int d.funnel_eliminated);
      ("funnel_central", Json.Int d.funnel_central);
      ("funnel_declined", Json.Int d.funnel_declined);
      ("funnel_contended", Json.Int d.funnel_contended);
      ("combining_rate", Json.Float d.combining_rate);
      ("elimination_rate", Json.Float d.elimination_rate);
      ("comb_ops", Json.Int d.comb_ops);
      ("comb_absorbed", Json.Int d.comb_absorbed);
      ("comb_central", Json.Int d.comb_central);
      ("comb_combining_rate", Json.Float d.comb_combining_rate);
      ("remote_traffic", Json.Int d.remote_traffic);
      ("local_traffic", Json.Int d.local_traffic);
      ("remote_share", Json.Float d.remote_share);
    ]

let pp ppf d =
  let line fmt = Format.fprintf ppf fmt in
  line "@[<v>";
  if d.cas_ok + d.cas_fail > 0 then
    line "cas:    %d ok, %d failed (failure rate %.1f%%)@,"
      d.cas_ok d.cas_fail (100. *. d.cas_failure_rate);
  if d.lock_acquires > 0 then begin
    line "locks:  %d acquires (%d contended), %d releases@,"
      d.lock_acquires d.lock_contended d.lock_releases;
    line "        wait mean %.1f cyc (p99 %d, total %d); hold mean %.1f cyc (p99 %d)@,"
      d.lock_wait_mean d.lock_wait_p99 d.lock_wait_total d.lock_hold_mean
      d.lock_hold_p99
  end;
  if d.funnel_ops > 0 then begin
    line "funnel: %d ops: %d combined (%.1f%%), %d pairs eliminated (%.1f%%), %d central@,"
      d.funnel_ops d.funnel_combined
      (100. *. d.combining_rate)
      d.funnel_eliminated
      (100. *. d.elimination_rate)
      d.funnel_central;
    line "        %d declined collisions, %d contended central attempts@,"
      d.funnel_declined d.funnel_contended
  end;
  if d.comb_ops > 0 then
    line "ctree:  %d ops: %d absorbed (%.1f%%), %d reached central@,"
      d.comb_ops d.comb_absorbed
      (100. *. d.comb_combining_rate)
      d.comb_central;
  if d.remote_traffic + d.local_traffic > 0 then
    line "numa:   %d transactions: %d remote (%.1f%%), %d local@,"
      (d.remote_traffic + d.local_traffic)
      d.remote_traffic
      (100. *. d.remote_share)
      d.local_traffic;
  line "@]"
