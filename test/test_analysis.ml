(* Tests for the pqlint subsystem: known-answer cases for the
   vector-clock race detector (racy program detected; CAS-, lock- and
   wake-synchronized programs not), the benign-race allowlist matching,
   the memory-discipline lint's accept/reject verdicts on pinned
   source fragments, the lock-order analyzer, and the audit's coverage,
   probe passivity and exit rule. *)

open Pqanalysis

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* run a small program under the sanitizer's probe and analyze it;
   returns setup's value (e.g. the allocated base address) and the races *)
let detect_races ?(nprocs = 2) ~setup ~program () =
  let obs = Races.observer () in
  let mem_ref = ref None in
  let shared, _ =
    Pqsim.Sim.run ~nprocs ~probe:(Races.probe obs)
      ~setup:(fun mem ->
        mem_ref := Some mem;
        setup mem)
      ~program ()
  in
  (shared, Races.analyze ~mem:(Option.get !mem_ref) obs)

(* ------------------------------------------------------------------ *)
(* detector: known racy / known clean programs *)

let test_unsync_writes_race () =
  (* two processors write the same undeclared word: W/W race *)
  let addr, races =
    detect_races
      ~setup:(fun mem -> Pqsim.Mem.alloc mem 1)
      ~program:(fun addr pid ->
        for i = 1 to 3 do
          Pqsim.Api.write addr ((10 * pid) + i)
        done)
      ()
  in
  check_bool "at least one race" true (races <> []);
  check_bool "a write/write race on the word" true
    (List.exists
       (fun r ->
         r.Races.addr = addr
         && Races.dir_of r.Races.first.Races.kind = Races.W
         && Races.dir_of r.Races.second.Races.kind = Races.W)
       races)

let test_unsync_read_write_race () =
  (* p0 publishes through a plain flag, p1 plain-reads flag then data:
     no synchronization operation anywhere, both words race *)
  let base, races =
    detect_races
      ~setup:(fun mem -> Pqsim.Mem.alloc mem 2)
      ~program:(fun base pid ->
        let data = base and flag = base + 1 in
        if pid = 0 then begin
          Pqsim.Api.write data 42;
          Pqsim.Api.write flag 1
        end
        else begin
          let seen = ref (Pqsim.Api.read flag) in
          while !seen = 0 do
            Pqsim.Api.work 8;
            seen := Pqsim.Api.read flag
          done;
          ignore (Pqsim.Api.read data)
        end)
      ()
  in
  check_bool "data word races" true
    (List.exists (fun r -> r.Races.addr = base) races);
  check_bool "flag word races too" true
    (List.exists (fun r -> r.Races.addr = base + 1) races)

let test_cas_handoff_no_race () =
  (* the same handoff with a CAS release and an RMW acquire is clean:
     p0's CAS on the flag releases its clock (covering the data write),
     p1's FAA acquires it before the data read *)
  let _, races =
    detect_races
      ~setup:(fun mem -> Pqsim.Mem.alloc mem 2)
      ~program:(fun base pid ->
        let data = base and flag = base + 1 in
        if pid = 0 then begin
          Pqsim.Api.write data 42;
          ignore (Pqsim.Api.cas flag ~expected:0 ~desired:1)
        end
        else begin
          while Pqsim.Api.faa flag 0 = 0 do
            Pqsim.Api.work 8
          done;
          ignore (Pqsim.Api.read data)
        end)
      ()
  in
  check_int "no races" 0 (List.length races)

let test_declared_sync_line_no_race () =
  (* identical program to the racy publish, but the flag is declared a
     synchronization line: its plain reads acquire, ordering the data *)
  let _, races =
    detect_races
      ~setup:(fun mem ->
        let base = Pqsim.Mem.alloc mem 2 in
        Pqsim.Mem.declare_sync mem ~addr:(base + 1) ~len:1;
        base)
      ~program:(fun base pid ->
        let data = base and flag = base + 1 in
        if pid = 0 then begin
          Pqsim.Api.write data 42;
          Pqsim.Api.write flag 1
        end
        else begin
          while Pqsim.Api.read flag = 0 do
            Pqsim.Api.work 8
          done;
          ignore (Pqsim.Api.read data)
        end)
      ()
  in
  check_int "no races" 0 (List.length races)

let test_mcs_handoff_no_race () =
  (* lock ownership transfer carries happens-before: unsynchronized
     increments under an MCS lock are clean *)
  let _, races =
    detect_races ~nprocs:4
      ~setup:(fun mem ->
        let lock = Pqsync.Mcs.create mem ~nprocs:4 in
        let data = Pqsim.Mem.alloc mem 1 in
        (lock, data))
      ~program:(fun (lock, data) _ ->
        for _ = 1 to 4 do
          Pqsync.Mcs.acquire lock;
          let v = Pqsim.Api.read data in
          Pqsim.Api.work 5;
          Pqsim.Api.write data (v + 1);
          Pqsync.Mcs.release lock
        done)
      ()
  in
  check_int "no races" 0 (List.length races)

let test_tas_handoff_no_race () =
  let _, races =
    detect_races ~nprocs:4
      ~setup:(fun mem ->
        let lock = Pqsync.Tas.create mem in
        let data = Pqsim.Mem.alloc mem 1 in
        (lock, data))
      ~program:(fun (lock, data) _ ->
        for _ = 1 to 4 do
          Pqsync.Tas.acquire lock;
          let v = Pqsim.Api.read data in
          Pqsim.Api.write data (v + 1);
          Pqsync.Tas.release lock
        done)
      ()
  in
  check_int "no races" 0 (List.length races)

let test_wake_edge_no_race () =
  (* a completed Wait_change acquires the watched line's clock even with
     no synchronization operation in sight: the plain flag write released
     p0's clock into the line, the wake acquires it *)
  let _, races =
    detect_races
      ~setup:(fun mem -> Pqsim.Mem.alloc mem 2)
      ~program:(fun base pid ->
        let data = base and flag = base + 1 in
        if pid = 0 then begin
          Pqsim.Api.work 200;
          Pqsim.Api.write data 7;
          Pqsim.Api.write flag 1
        end
        else begin
          ignore (Pqsim.Api.wait_change flag 0);
          ignore (Pqsim.Api.read data)
        end)
      ()
  in
  check_int "no races" 0 (List.length races)

(* ------------------------------------------------------------------ *)
(* lint: pinned accept/reject fragments *)

let rules vs = List.map (fun v -> v.Lint.rule) vs

let test_lint_module_ref_rejected () =
  let vs = Lint.scan_string "let counter = ref 0\n" in
  check_bool "host-state" true (List.mem "host-state" (rules vs))

let test_lint_local_ref_accepted () =
  let vs =
    Lint.scan_string
      "let bump t =\n  let seen = ref 0 in\n  incr seen;\n  !seen + t\n"
  in
  check_int "clean" 0 (List.length vs)

let test_lint_ref_field_rejected () =
  let vs = Lint.scan_string "type t = { cache : int ref }\n" in
  check_bool "host-state" true (List.mem "host-state" (rules vs))

let test_lint_hashtbl_rejected () =
  let vs = Lint.scan_string "let t = Hashtbl.create 16\n" in
  check_bool "host-effect" true (List.mem "host-effect" (rules vs))

let test_lint_external_rejected () =
  let vs = Lint.scan_string "external id : 'a -> 'a = \"%identity\"\n" in
  check_bool "host-effect" true (List.mem "host-effect" (rules vs))

let test_lint_comment_and_string_immune () =
  let vs =
    Lint.scan_string
      "(* Hashtbl would be wrong here; see \"Atomic\" note (* Mutex *) *)\n\
       let s = \"Hashtbl.create\"\n\
       let c = 'r'\n"
  in
  check_int "clean" 0 (List.length vs)

let test_lint_mutable_allowlist () =
  let src = "type t = { mutable acq_at : int }\nlet f t v = t.acq_at <- v\n" in
  let vs = Lint.scan_string ~file:"x.ml" src in
  check_int "two rejections without allow" 2 (List.length vs);
  let vs = Lint.scan_string ~file:"x.ml" ~allow:[ ("x.ml", "acq_at") ] src in
  check_int "clean with allow" 0 (List.length vs);
  let vs = Lint.scan_string ~file:"y.ml" ~allow:[ ("x.ml", "acq_at") ] src in
  check_int "allow is per-file" 2 (List.length vs)

let test_lint_array_mutation_target () =
  (* a.(i) <- v walks back over the index group to the identifier *)
  let src = "let f t i v = t.slots.(i + 1) <- v\n" in
  let vs = Lint.scan_string ~file:"x.ml" src in
  check_int "rejected" 1 (List.length vs);
  let vs = Lint.scan_string ~file:"x.ml" ~allow:[ ("x.ml", "slots") ] src in
  check_int "allowed" 0 (List.length vs)

let test_lint_spin_loop () =
  let bad = "let f () = while true do ignore (g ()) done\n" in
  check_bool "spin-loop" true (List.mem "spin-loop" (rules (Lint.scan_string bad)));
  let escapes = "let f () = while true do if g () then raise Exit done\n" in
  check_int "escape accepted" 0 (List.length (Lint.scan_string escapes));
  let reports =
    "let f () = while true do Api.progress (); ignore (g ()) done\n"
  in
  check_int "progress accepted" 0 (List.length (Lint.scan_string reports))

let test_lint_repo_is_clean () =
  (* the gate the CI runs: the shipped tree with the shipped allowlist.
     Locate the tree by climbing to the nearest dune-project: under
     `dune runtest` that is the sandboxed _build root (the source_tree
     dep below materializes lib/ and the allowlist there), under a bare
     `dune exec` it is the real repository root. *)
  let rec root_from d =
    if Sys.file_exists (Filename.concat d "dune-project") then d
    else
      let parent = Filename.dirname d in
      if parent = d then Alcotest.fail "no dune-project above cwd"
      else root_from parent
  in
  let root = root_from (Sys.getcwd ()) in
  let allow = Lint.load_allow (Filename.concat root ".pqlint-allow") in
  check_bool "allowlist nonempty" true (allow <> []);
  let vs = Lint.scan_dirs ~allow ~root () in
  List.iter (fun v -> Printf.eprintf "%s:%d: %s\n" v.Lint.file v.Lint.line v.Lint.message) vs;
  check_int "repository lint-clean" 0 (List.length vs);
  (* the extra-file scan really reaches the event arena: with the
     allowlist withheld, its mutable slots must be flagged *)
  let bare = Lint.scan_dirs ~allow:[] ~root () in
  check_bool "arena scanned" true
    (List.exists (fun v -> v.Lint.file = "lib/psim/evq.ml") bare)

(* ------------------------------------------------------------------ *)
(* lockdep: note-history unit cases, allowlist matching, interleaving
   invariance, mutation fixtures, and a live HEAD audit at small scale *)

let tag_acq = Pqsim.Probe.Lock_tag.acquire
let tag_rel = Pqsim.Probe.Lock_tag.release
let tag_tf = Pqsim.Probe.Lock_tag.try_fail

let feed_history evs =
  let obs = Lockdep.observer () in
  List.iter
    (fun (proc, time, tag, a) -> Lockdep.feed obs ~proc ~time ~tag ~a ~b:0)
    evs;
  obs

let test_lockdep_edge_witness () =
  (* p0 acquires A at 1 then B at 5 while holding A: one edge A->B with
     the full witness; balanced releases leave the discipline clean *)
  let obs =
    feed_history
      [ (0, 1, tag_acq, 7); (0, 5, tag_acq, 9); (0, 6, tag_rel, 9);
        (0, 7, tag_rel, 7) ]
  in
  let label a = if a = 7 then Some "A" else if a = 9 then Some "B" else None in
  let a = Lockdep.analyze ~sched:"unit" ~label obs in
  check_int "events" 4 a.Lockdep.events_seen;
  check_int "locks" 2 (List.length a.Lockdep.locks);
  check_int "one edge" 1 (List.length a.Lockdep.edges);
  (match a.Lockdep.edges with
  | [ e ] ->
      Alcotest.(check string) "src" "A" e.Lockdep.src;
      Alcotest.(check string) "dst" "B" e.Lockdep.dst;
      check_int "count" 1 e.Lockdep.count;
      check_int "witness proc" 0 e.Lockdep.witness.Lockdep.proc;
      check_int "witness held_since" 1 e.Lockdep.witness.Lockdep.held_since;
      check_int "witness time" 5 e.Lockdep.witness.Lockdep.time;
      Alcotest.(check string) "witness sched" "unit"
        e.Lockdep.witness.Lockdep.sched
  | _ -> Alcotest.fail "expected exactly one edge");
  check_int "discipline clean" 0 (List.length a.Lockdep.disc);
  check_int "no cycles" 0 (List.length (Lockdep.cycles a))

let test_lockdep_try_fail_no_edge () =
  (* a failed try while holding A: no ownership, so no order edge —
     the distinction that keeps MultiQueue spraying cycle-free *)
  let obs =
    feed_history [ (0, 1, tag_acq, 7); (0, 2, tag_tf, 9); (0, 3, tag_rel, 7) ]
  in
  let a = Lockdep.analyze obs in
  check_int "no edges" 0 (List.length a.Lockdep.edges);
  check_int "try_fails counted" 1 a.Lockdep.try_fails;
  check_int "discipline clean" 0 (List.length a.Lockdep.disc);
  (* ... but B still appears as a graph node *)
  check_int "locks" 2 (List.length a.Lockdep.locks)

let test_lockdep_release_without_hold () =
  let obs = feed_history [ (0, 1, tag_rel, 7) ] in
  let a = Lockdep.analyze obs in
  match a.Lockdep.disc with
  | [ d ] ->
      check_bool "kind" true (d.Lockdep.kind = Lockdep.Release_without_hold);
      check_int "proc" 0 d.Lockdep.proc;
      Alcotest.(check string) "signature"
        "release-without-hold p0 addr:7"
        (Lockdep.signature (Lockdep.Discipline d))
  | _ -> Alcotest.fail "expected one discipline finding"

let test_lockdep_double_release () =
  (* acquire, release, release again: the second one is a double
     release (distinct from releasing a never-held lock) *)
  let obs =
    feed_history [ (0, 1, tag_acq, 7); (0, 2, tag_rel, 7); (0, 3, tag_rel, 7) ]
  in
  let a = Lockdep.analyze obs in
  match a.Lockdep.disc with
  | [ d ] ->
      check_bool "kind" true (d.Lockdep.kind = Lockdep.Double_release);
      check_int "first at" 3 d.Lockdep.time;
      check_int "occurrences" 1 d.Lockdep.occurrences
  | _ -> Alcotest.fail "expected one discipline finding"

let test_lockdep_held_at_quiescence () =
  let evs = [ (0, 1, tag_acq, 7) ] in
  let a = Lockdep.analyze (feed_history evs) in
  (match a.Lockdep.disc with
  | [ d ] ->
      check_bool "kind" true (d.Lockdep.kind = Lockdep.Held_at_quiescence);
      check_int "since" 1 d.Lockdep.time
  | _ -> Alcotest.fail "expected one discipline finding");
  (* aborted runs end mid-flight: with the quiescence check off the
     leftover hold is not a finding *)
  let a = Lockdep.analyze ~quiescent:false (feed_history evs) in
  check_int "not judged when not quiescent" 0 (List.length a.Lockdep.disc)

(* interpret (flag, lock) pairs into a well-formed per-proc history:
   release the innermost hold when flagged, else acquire when not held
   (a held re-request becomes a failed try); balance everything at the
   end so quiescence is clean *)
let script_to_history proc script =
  let held = ref [] and evs = ref [] and time = ref 0 in
  let emit tag a =
    incr time;
    evs := (proc, (1000 * proc) + !time, tag, a) :: !evs
  in
  List.iter
    (fun (rel, l) ->
      let l = l + 1 in
      if rel && !held <> [] then begin
        let top = List.hd !held in
        held := List.tl !held;
        emit tag_rel top
      end
      else if not (List.mem l !held) then begin
        emit tag_acq l;
        held := l :: !held
      end
      else emit tag_tf l)
    script;
  List.iter (fun l -> emit tag_rel l) !held;
  List.rev !evs

let interleave bias xs ys =
  let rec go bias xs ys acc =
    match (bias, xs, ys) with
    | _, [], rest | _, rest, [] -> List.rev_append acc rest
    | [], xs, ys -> List.rev_append acc (xs @ ys)
    | b :: bias, x :: xs', y :: ys' ->
        if b then go bias xs' ys (x :: acc) else go bias xs ys' (y :: acc)
  in
  go bias xs ys []

let qtest_lockdep_interleaving_invariance =
  (* the analyzer folds per-processor state only, so the merged graph
     must not depend on how the two processors' histories interleave —
     the property that makes merging runs across schedules sound *)
  QCheck.Test.make
    ~name:"lock graph invariant under per-proc-order-preserving interleavings"
    ~count:300
    QCheck.(
      triple
        (list (pair bool (int_bound 2)))
        (list (pair bool (int_bound 2)))
        (list bool))
    (fun (s0, s1, bias) ->
      let h0 = script_to_history 0 s0 and h1 = script_to_history 1 s1 in
      let shape evs =
        let a = Lockdep.analyze (feed_history evs) in
        ( a.Lockdep.locks,
          List.map
            (fun (e : Lockdep.edge) ->
              (e.Lockdep.src, e.Lockdep.dst, e.Lockdep.count))
            a.Lockdep.edges,
          List.map
            (fun (d : Lockdep.disc) ->
              ( d.Lockdep.kind, d.Lockdep.proc, d.Lockdep.lock, d.Lockdep.time,
                d.Lockdep.occurrences ))
            a.Lockdep.disc,
          a.Lockdep.try_fails )
      in
      shape (h0 @ h1) = shape (interleave bias h0 h1))

let test_lockdep_abba_cycle_without_deadlock () =
  (* the mutation fixture the detector exists for: an AB/BA protocol on
     a schedule where the deadlock does NOT manifest (p1 is delayed past
     p0's whole critical section; Sim.run completing is the proof).
     The witnessed orders still compose into a cycle. *)
  let obs = Lockdep.observer () in
  let mem_ref = ref None in
  let _ =
    Pqsim.Sim.run ~nprocs:2 ~probe:(Lockdep.probe obs)
      ~setup:(fun mem ->
        mem_ref := Some mem;
        let a = Pqsync.Tas.create ~name:(Root "toy.A") mem in
        let b = Pqsync.Tas.create ~name:(Root "toy.B") mem in
        (a, b))
      ~program:(fun (a, b) pid ->
        if pid = 0 then begin
          Pqsync.Tas.acquire a;
          Pqsim.Api.work 5;
          Pqsync.Tas.acquire b;
          Pqsync.Tas.release b;
          Pqsync.Tas.release a
        end
        else begin
          Pqsim.Api.work 2000;
          Pqsync.Tas.acquire b;
          Pqsync.Tas.acquire a;
          Pqsync.Tas.release a;
          Pqsync.Tas.release b
        end)
      ()
  in
  let analysis =
    Lockdep.analyze ~label:(Pqsim.Mem.name_of (Option.get !mem_ref)) obs
  in
  let cycles = Lockdep.cycles analysis in
  check_int "one potential-deadlock cycle" 1 (List.length cycles);
  check_bool "A and B form it" true (List.mem [ "toy.A"; "toy.B" ] cycles);
  check_int "discipline clean" 0 (List.length analysis.Lockdep.disc);
  Alcotest.(check (list string))
    "reported as" [ "cycle: toy.A -> toy.B" ]
    (List.map (fun c -> Lockdep.signature (Lockdep.Cycle c)) cycles)

let test_lockdep_hunt_double_release_flagged () =
  (* re-introduce the PR 5 bug shape: a HuntEtAl-style sift-down that
     releases the child lock twice.  Tas locks make the second release
     a harmless store in execution — no schedule hangs — yet the
     discipline check flags it *)
  let obs = Lockdep.observer () in
  let mem_ref = ref None in
  let _ =
    Pqsim.Sim.run ~nprocs:1 ~probe:(Lockdep.probe obs)
      ~setup:(fun mem ->
        mem_ref := Some mem;
        let l n = Pqsync.Tas.create ~name:(Root n) mem in
        (l "HuntFixture.heap_lock", l "HuntFixture.node[1]",
         l "HuntFixture.node[2]"))
      ~program:(fun (heap, n1, n2) _ ->
        Pqsync.Tas.acquire heap;
        Pqsync.Tas.acquire n1;
        Pqsync.Tas.release heap;
        (* sift-down step: lock the child, swap, then the buggy exit
           path unlocks the child a second time *)
        Pqsync.Tas.acquire n2;
        Pqsync.Tas.release n2;
        Pqsync.Tas.release n1;
        Pqsync.Tas.release n2)
      ()
  in
  let analysis =
    Lockdep.analyze ~label:(Pqsim.Mem.name_of (Option.get !mem_ref)) obs
  in
  check_int "no cycles" 0 (List.length (Lockdep.cycles analysis));
  match analysis.Lockdep.disc with
  | [ d ] ->
      check_bool "double release" true (d.Lockdep.kind = Lockdep.Double_release);
      Alcotest.(check string) "on the child lock" "HuntFixture.node[2]"
        d.Lockdep.lock;
      Alcotest.(check string) "reported as"
        "double-release p0 HuntFixture.node[2]"
        (Lockdep.signature (Lockdep.Discipline d))
  | _ -> Alcotest.fail "expected exactly the double-release finding"

let test_lockdep_head_audits_clean () =
  (* current HEAD must audit clean — the seed-42 cells here; the full
     matrix is the `pqbench audit` CI gate *)
  List.iter
    (fun queue ->
      let r =
        Audit.merge queue
          (List.filter_map
             (fun (c : Audit.cell) ->
               if c.queue = queue && c.seed = 42 then Some (Audit.run_cell c)
               else None)
             Audit.cells)
      in
      check_bool (queue ^ " saw lock traffic") true
        (r.locks.Lockdep.events_seen > 0);
      Alcotest.(check (list string)) (queue ^ " findings") []
        (Audit.findings r))
    [ "HuntEtAl"; "SkipList"; "MultiQueue"; "Adaptive" ]

(* ------------------------------------------------------------------ *)
(* the audit: coverage, probe passivity, exit rule *)

let test_audit_covers_registry () =
  (* by construction: a queue added to the registry is audited *)
  List.iter
    (fun q -> check_bool (q ^ " audited") true (List.mem q Audit.queues))
    (Pqcore.Registry.names @ [ "Adaptive" ]);
  List.iter
    (fun q ->
      check_int (q ^ " cells") 9
        (List.length
           (List.filter (fun (c : Audit.cell) -> c.queue = q) Audit.cells)))
    Audit.queues

let test_audit_probe_passive () =
  (* the composed probe observes exactly what each analyzer's solo probe
     does, and none of them perturbs the run *)
  List.iter
    (fun queue ->
      let cell = { Audit.queue; schedule = Pqexplore.Policy.Pct; seed = 7 } in
      let composed = Audit.run_cell cell in
      let solo what probe =
        let o = Audit.run_sim ~probe cell in
        check_int (queue ^ " cycles under " ^ what) composed.cycles o.cycles;
        o
      in
      check_int (queue ^ " cycles unprobed") composed.cycles
        (Audit.run_sim cell).cycles;
      let races = Races.observer () in
      let o = solo "races" (Races.probe races) in
      check_int (queue ^ " race events") composed.events (Races.events races);
      check_bool (queue ^ " races") true
        (Races.analyze ~mem:(Option.get o.mem) races = composed.races);
      let locks = Lockdep.observer () in
      let o = solo "lockdep" (Lockdep.probe locks) in
      check_bool (queue ^ " lock analysis") true
        (Lockdep.analyze ~sched:(Audit.label cell)
           ~label:(Pqsim.Mem.name_of (Option.get o.mem))
           locks
        = composed.locks);
      let m =
        Pqcheck.Monitor.create ~npriorities:Audit.npriorities
          ~nprocs:Audit.nprocs
      in
      let o =
        solo "monitor" (Pqsim.Probe.make ~notes:(Pqcheck.Monitor.notes m) ())
      in
      check_bool (queue ^ " monitor report") true
        (Pqcheck.Monitor.finalize m ~leftover:o.leftover = composed.monitor))
    [ "SimpleTree"; "HuntEtAl"; "MultiQueue" ]

let test_audit_exit_rule () =
  (* each kind of finding on its own fails the queue *)
  let clean =
    Audit.merge "SingleLock"
      [
        Audit.run_cell
          {
            Audit.queue = "SingleLock";
            schedule = Pqexplore.Policy.Default;
            seed = 42;
          };
      ]
  in
  Alcotest.(check (list string)) "clean" [] (Audit.findings clean);
  let access proc kind time = { Races.proc; kind; time; sync = false } in
  let race =
    {
      Races.addr = 7;
      label = Some "Q.data";
      first = access 0 Pqsim.Probe.Write 1;
      second = access 1 Pqsim.Probe.Read 2;
      second_clock = [| 0; 1 |];
      first_epoch = 1;
      count = 1;
    }
  in
  let edge src dst =
    {
      Lockdep.src;
      dst;
      count = 1;
      witness =
        { Lockdep.proc = 0; held_since = 0; time = 1; sched = "default/s42" };
    }
  in
  let locks = clean.locks in
  let cases =
    [
      ("race", { clean with races = [ race ] });
      ( "lock-order cycle",
        {
          clean with
          locks =
            {
              locks with
              locks = List.sort_uniq compare ("Q.a" :: "Q.b" :: locks.locks);
              edges = [ edge "Q.a" "Q.b"; edge "Q.b" "Q.a" ];
            };
        } );
      ( "discipline",
        {
          clean with
          locks =
            {
              locks with
              disc =
                [
                  {
                    Lockdep.kind = Lockdep.Double_release;
                    proc = 0;
                    lock = "Q.a";
                    time = 1;
                    occurrences = 1;
                  };
                ];
            };
        } );
      ("aborted run", { clean with aborted = [ ("pct/s7", "Deadlock") ] });
      ( "failed check",
        { clean with failed_checks = [ ("default/s1", "conservation") ] } );
      ("rank over bound", { clean with worst_rank = clean.bound + 1 });
    ]
  in
  List.iter
    (fun (what, r) ->
      check_int (what ^ " alone fails") 1 (List.length (Audit.findings r)))
    cases

let test_hlock_tags_pinned_and_trace_clean () =
  (* hostpq depends on nothing, so Hlock restates the tag values; this
     pin keeps the two vocabularies equal *)
  check_int "acquire tag" Pqsim.Probe.Lock_tag.acquire Hostpq.Hlock.tag_acquire;
  check_int "release tag" Pqsim.Probe.Lock_tag.release Hostpq.Hlock.tag_release;
  check_int "try_fail tag" Pqsim.Probe.Lock_tag.try_fail
    Hostpq.Hlock.tag_try_fail;
  (* and its backoff window bounds equal to the simulated locks' *)
  check_int "first backoff window" Pqsync.Backoff.first
    Hostpq.Hlock.backoff_first;
  check_int "widest backoff window" Pqsync.Backoff.limit
    Hostpq.Hlock.backoff_limit;
  (* a host-queue trace flows through the same analyzer and comes back
     clean: balanced, single-lock-at-a-time *)
  let obs = Lockdep.observer () in
  Hostpq.Hlock.set_tracer
    (Some
       {
         Hostpq.Hlock.trace =
           (fun ~proc ~time ~tag ~a ~b ->
             Lockdep.feed obs ~proc ~time ~tag ~a ~b);
       });
  let q = Hostpq.Locked_heap.create ~npriorities:8 () in
  Hostpq.Locked_heap.insert q ~pri:3 "x";
  Hostpq.Locked_heap.insert q ~pri:1 "y";
  ignore (Hostpq.Locked_heap.delete_min q);
  ignore (Hostpq.Locked_heap.length q);
  Hostpq.Hlock.set_tracer None;
  check_bool "events captured" true (Lockdep.events obs > 0);
  let a = Lockdep.analyze ~label:Hostpq.Hlock.label_of obs in
  check_int "one lock" 1 (List.length a.Lockdep.locks);
  check_bool "symbolic key" true
    (List.exists
       (fun l ->
         String.length l >= 11 && String.sub l 0 11 = "locked-heap")
       a.Lockdep.locks);
  check_int "no edges" 0 (List.length a.Lockdep.edges);
  check_int "discipline clean" 0 (List.length a.Lockdep.disc)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "pqlint"
    [
      ( "races",
        [
          Alcotest.test_case "unsync W/W detected" `Quick test_unsync_writes_race;
          Alcotest.test_case "unsync R/W detected" `Quick
            test_unsync_read_write_race;
          Alcotest.test_case "CAS handoff clean" `Quick test_cas_handoff_no_race;
          Alcotest.test_case "declared sync line clean" `Quick
            test_declared_sync_line_no_race;
          Alcotest.test_case "MCS handoff clean" `Quick test_mcs_handoff_no_race;
          Alcotest.test_case "TAS handoff clean" `Quick test_tas_handoff_no_race;
          Alcotest.test_case "wake edge clean" `Quick test_wake_edge_no_race;
        ] );
      ( "lint",
        [
          Alcotest.test_case "module ref rejected" `Quick
            test_lint_module_ref_rejected;
          Alcotest.test_case "local ref accepted" `Quick
            test_lint_local_ref_accepted;
          Alcotest.test_case "ref field rejected" `Quick
            test_lint_ref_field_rejected;
          Alcotest.test_case "Hashtbl rejected" `Quick test_lint_hashtbl_rejected;
          Alcotest.test_case "external rejected" `Quick
            test_lint_external_rejected;
          Alcotest.test_case "comments/strings immune" `Quick
            test_lint_comment_and_string_immune;
          Alcotest.test_case "mutable allowlist" `Quick test_lint_mutable_allowlist;
          Alcotest.test_case "array mutation target" `Quick
            test_lint_array_mutation_target;
          Alcotest.test_case "spin loop" `Quick test_lint_spin_loop;
          Alcotest.test_case "repo lint-clean" `Quick test_lint_repo_is_clean;
        ] );
      ( "lockdep",
        [
          Alcotest.test_case "edge witness" `Quick test_lockdep_edge_witness;
          Alcotest.test_case "try-fail adds no edge" `Quick
            test_lockdep_try_fail_no_edge;
          Alcotest.test_case "release without hold" `Quick
            test_lockdep_release_without_hold;
          Alcotest.test_case "double release" `Quick test_lockdep_double_release;
          Alcotest.test_case "held at quiescence" `Quick
            test_lockdep_held_at_quiescence;
          Alcotest.test_case "AB/BA cycle w/o deadlock" `Quick
            test_lockdep_abba_cycle_without_deadlock;
          Alcotest.test_case "Hunt double release flagged" `Quick
            test_lockdep_hunt_double_release_flagged;
          Alcotest.test_case "HEAD audits clean" `Quick
            test_lockdep_head_audits_clean;
          Alcotest.test_case "Hlock tags + host trace" `Quick
            test_hlock_tags_pinned_and_trace_clean;
        ] );
      ( "audit",
        [
          Alcotest.test_case "every registry queue audited" `Quick
            test_audit_covers_registry;
          Alcotest.test_case "composed probe passive" `Quick
            test_audit_probe_passive;
          Alcotest.test_case "each finding fails alone" `Quick
            test_audit_exit_rule;
        ] );
      ( "lockdep-prop",
        List.map QCheck_alcotest.to_alcotest
          [ qtest_lockdep_interleaving_invariance ] );
    ]
