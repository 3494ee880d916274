(* Crash-consistency tests for the write-ahead log and recovery
   subsystem.

   The core discipline: run a workload of logged transactions against a
   database on a tiny buffer pool (so physical writes happen mid-run),
   kill the simulated machine at an exact physical write via
   [Faulty_disk], recover from what survived (page images + durable log
   prefix), and compare against a committed-prefix oracle — a second
   database that executed only the transactions whose commit became
   durable.  No committed work may be lost, no uncommitted work may
   survive, and Mini-Directory reconstruction must still hold. *)

module Atom = Nf2_model.Atom
module Value = Nf2_model.Value
module Rel = Nf2_algebra.Rel
module D = Nf2_storage.Disk
module BP = Nf2_storage.Buffer_pool
module OS = Nf2_storage.Object_store
module Wal = Nf2_storage.Wal
module Recovery = Nf2_storage.Recovery
module FD = Nf2_storage.Faulty_disk
module Db = Nf2.Db

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- workload ----------------------------------------------------------- *)

(* A multi-page NF² workload: nested subtables, subtable DML, whole-row
   DML.  Each script is one logged transaction. *)
let scripts =
  [
    "CREATE TABLE DEPT (DNO INT, NAME TEXT, BUDGET INT, EQUIP TABLE (QU INT, KIND TEXT))";
    "INSERT INTO DEPT VALUES (1, 'Tooling', 100, {(1, 'DRILL'), (2, 'LATHE')}), (2, 'Assembly', 200, {(3, 'ROBOT')})";
    "INSERT INTO DEPT VALUES (3, 'Paint', 300, {(4, 'SPRAY'), (5, 'OVEN'), (6, 'BOOTH')})";
    "INSERT INTO DEPT VALUES (10, 'Forge and foundry works', 1000, {(10, 'FURNACE'), (11, 'ANVIL'), (12, 'CRUCIBLE'), (13, 'BELLOWS')})";
    "INSERT INTO DEPT VALUES (11, 'Electroplating and finishing', 1100, {(14, 'TANK'), (15, 'RECTIFIER'), (16, 'POLISHER')})";
    "INSERT INTO DEPT VALUES (12, 'Injection moulding', 1200, {(17, 'PRESS'), (18, 'CHILLER'), (19, 'DRYER'), (20, 'HOPPER')})";
    "INSERT INTO DEPT VALUES (13, 'Final inspection', 1300, {(21, 'GAUGE'), (22, 'SCALE')})";
    "UPDATE DEPT SET BUDGET = BUDGET + 50 WHERE DNO = 2";
    "INSERT INTO DEPT.EQUIP WHERE DNO = 1 VALUES (7, 'PRESS'), (8, 'SAW')";
    "INSERT INTO DEPT VALUES (14, 'Shipping and receiving dock', 1400, {(23, 'FORKLIFT'), (24, 'CRANE'), (25, 'PALLETJACK')})";
    "DELETE FROM DEPT.EQUIP WHERE QU = 5";
    "UPDATE DEPT SET NAME = 'Refit' WHERE DNO = 3";
    "INSERT INTO DEPT VALUES (15, 'Research workshop annex', 1500, {(26, 'BENCH'), (27, 'SCOPE'), (28, 'PROBE'), (29, 'JIG')})";
    "DELETE FROM DEPT WHERE DNO = 2";
    "UPDATE DEPT SET BUDGET = BUDGET * 2 WHERE DNO = 12";
    "INSERT INTO DEPT VALUES (4, 'Quality', 400, {})";
  ]

(* Tiny pages and pool so the workload itself causes eviction traffic:
   crash points land in the middle of logical operations. *)
let fresh_wal_db () = Db.create ~page_size:256 ~frames:6 ~wal:true ()

let run_scripts db ss = List.iter (fun s -> ignore (Db.exec db s)) ss

(* --- oracles and invariants --------------------------------------------- *)

let same_state msg (a : Db.t) (b : Db.t) =
  Alcotest.(check (list string)) (msg ^ ": table names") (Db.table_names a) (Db.table_names b);
  List.iter
    (fun name ->
      let q = Printf.sprintf "SELECT * FROM %s" name in
      checkb (Printf.sprintf "%s: %s identical" msg name) true
        (Rel.equal (Db.query a q) (Db.query b q)))
    (Db.table_names a)

(* Mini-Directory invariants: every object reconstructs through its MD
   tree and reports a sane physical footprint. *)
let check_md_invariants msg db =
  List.iter
    (fun name ->
      let store = Db.table_store db ~table:name in
      let schema = Db.table_schema db ~table:name in
      List.iter
        (fun root ->
          ignore (Db.fetch_tuple db ~table:name root);
          let st = OS.md_stats store schema root in
          checkb (msg ^ ": md footprint") true (st.OS.pages >= 1 && st.OS.md_subtuples >= 1))
        (Db.table_roots db ~table:name))
    (Db.table_names db)

(* Oracle: a plain (unlogged) database that executed only the first
   [n] scripts — the committed prefix. *)
let oracle_prefix ss n =
  let db = Db.create () in
  List.iteri (fun i s -> if i < n then ignore (Db.exec db s)) ss;
  db

(* Run [ss] (ending with a checkpoint) against a fresh logged db under
   [plan]; return the crash image and whether the plan fired. *)
let crash_run ss plan =
  let db = fresh_wal_db () in
  let fd = FD.arm ~wal:(Option.get (Db.wal db)) (Db.disk db) plan in
  let crashed =
    try
      run_scripts db ss;
      ignore (Db.wal_checkpoint db);
      false
    with D.Crash _ -> true
  in
  FD.disarm fd;
  (Db.crash_image db, crashed)

(* Transactions whose commit record made it into the durable log.
   ([Recovery.replay]'s own [committed] list only covers the replay
   window, i.e. records after the last checkpoint.) *)
let durable_commits img =
  List.length
    (List.filter
       (fun (_, r) -> match r with Wal.Commit _ -> true | _ -> false)
       (Wal.records_of_string img.Recovery.wal))

(* Recover an image and check it equals the committed-prefix oracle. *)
let check_recovery msg ss img =
  let committed = durable_commits img in
  let recovered = Db.recover_from_image img in
  let oracle = oracle_prefix ss committed in
  same_state msg recovered oracle;
  check_md_invariants msg recovered;
  (committed, recovered)

(* Physical writes of a full fault-free run (the crash-point space). *)
let total_writes ss =
  let db = fresh_wal_db () in
  run_scripts db ss;
  ignore (Db.wal_checkpoint db);
  (D.stats (Db.disk db)).D.writes

(* --- the crash matrix ---------------------------------------------------- *)

(* For K in 0..N physical writes: let K writes succeed, kill the
   machine at the next one, recover, compare to the oracle. *)
let test_crash_matrix () =
  let n = total_writes scripts in
  checkb "workload causes real write traffic" true (n >= 10);
  let fired = ref 0 in
  for k = 0 to n do
    let img, crashed = crash_run scripts (FD.Crash_at_write (k + 1)) in
    if crashed then incr fired;
    let committed, _ =
      check_recovery (Printf.sprintf "crash at write %d" k) scripts img
    in
    (* a completed run must have committed every transaction *)
    if not crashed then checki "all committed" (List.length scripts) committed
  done;
  (* every point but the one past the end must actually crash *)
  checki "matrix covered" n !fired

(* Same sweep with torn writes: the victim page is half old, half new;
   recovery must heal it from the log images. *)
let test_torn_write_matrix () =
  let n = total_writes scripts in
  for k = 1 to n do
    let img, crashed = crash_run scripts (FD.Torn_write k) in
    checkb "torn plan fires" true crashed;
    ignore (check_recovery (Printf.sprintf "torn write %d" k) scripts img)
  done

(* Log fsync failures: commits whose flush died are not durable. *)
let test_sync_failures () =
  for k = 1 to 12 do
    let img, _ = crash_run scripts (FD.Crash_at_sync k) in
    ignore (check_recovery (Printf.sprintf "failed sync %d" k) scripts img);
    let img, _ = crash_run scripts (FD.Torn_sync k) in
    ignore (check_recovery (Printf.sprintf "torn sync %d" k) scripts img)
  done

(* --- randomized differential test ---------------------------------------- *)

(* A seeded random workload of single- and multi-statement transactions
   over a nested table, crashed at a random physical operation; after
   recovery the state must equal the committed-prefix oracle. *)
let random_scripts prng nops =
  let stmt () =
    match Prng.int prng 5 with
    | 0 | 1 ->
        Printf.sprintf "INSERT INTO R VALUES (%d, %d, {(%d), (%d)})" (Prng.int prng 8)
          (Prng.int prng 1000) (Prng.int prng 100) (Prng.int prng 100)
    | 2 ->
        Printf.sprintf "UPDATE R SET V = %d WHERE K = %d" (Prng.int prng 1000)
          (Prng.int prng 8)
    | 3 -> Printf.sprintf "DELETE FROM R WHERE K = %d" (Prng.int prng 8)
    | _ ->
        Printf.sprintf "INSERT INTO R.XS WHERE K = %d VALUES (%d)" (Prng.int prng 8)
          (Prng.int prng 100)
  in
  let script () =
    if Prng.int prng 4 = 0 then stmt () ^ "; " ^ stmt () else stmt ()
  in
  "CREATE TABLE R (K INT, V INT, XS TABLE (X INT))" :: List.init nops (fun _ -> script ())

let test_randomized_crashes () =
  List.iter
    (fun seed ->
      let prng = Prng.create seed in
      let ss = random_scripts prng (8 + Prng.int prng 10) in
      let n = total_writes ss in
      let plan = FD.random_plan prng ~max_writes:n in
      let img, _ = crash_run ss plan in
      ignore
        (check_recovery
           (Printf.sprintf "seed %d (%s)" seed (FD.plan_to_string plan))
           ss img))
    [ 1; 2; 3; 7; 11; 42; 1986; 4096 ]

(* --- WAL-before-data ordering -------------------------------------------- *)

(* No dirty page may reach disk before its log record: strict mode
   raises, default mode forces the log flush — never silent
   reordering. *)
let test_wal_before_data () =
  let disk = D.create ~page_size:256 () in
  let pool = BP.create ~frames:2 disk in
  let w = Wal.create () in
  BP.attach_wal pool w;
  (* dirty two pages, then touch a third to force an eviction *)
  let p1 = BP.alloc pool in
  let p2 = BP.alloc pool in
  let p3 = BP.alloc pool in
  BP.write pool p1 (fun b -> Bytes.set b 0 'x');
  BP.write pool p2 (fun b -> Bytes.set b 0 'y');
  checkb "log records captured but not yet durable" true (Wal.durable_lsn w < Wal.last_lsn w);
  (* strict mode: the eviction must refuse to write the page *)
  BP.set_strict_wal pool true;
  (try
     BP.write pool p3 (fun b -> Bytes.set b 0 'z');
     Alcotest.fail "expected Wal_ordering"
   with BP.Wal_ordering _ -> ());
  checki "nothing reached disk" 0 (D.stats disk).D.writes;
  (* default mode: the same eviction forces the log out first *)
  BP.set_strict_wal pool false;
  BP.write pool p3 (fun b -> Bytes.set b 0 'z');
  checkb "log flushed before data" true ((Wal.stats w).Wal.forced_flushes >= 1);
  checkb "data written after log" true ((D.stats disk).D.writes >= 1);
  checkb "durable mark covers the evicted page" true (Wal.durable_lsn w >= 1);
  (* flush_all obeys the same rule *)
  BP.flush_all pool;
  checkb "all durable" true (Wal.durable_lsn w = Wal.last_lsn w)

(* --- logged transactions at the Db level ---------------------------------- *)

(* ROLLBACK on a WAL database rewinds pages from before-images (not a
   whole-image snapshot) and leaves queries and later crash recovery
   consistent. *)
let test_wal_rollback () =
  let db = fresh_wal_db () in
  run_scripts db scripts;
  let before = oracle_prefix scripts (List.length scripts) in
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "UPDATE DEPT SET BUDGET = 1 WHERE DNO = 1");
  ignore (Db.exec db "DELETE FROM DEPT WHERE DNO = 3");
  ignore (Db.exec db "INSERT INTO DEPT VALUES (9, 'Ghost', 0, {})");
  ignore (Db.exec db "ROLLBACK");
  same_state "after rollback" db before;
  check_md_invariants "after rollback" db;
  (* the rolled-back transaction must not resurface after a crash *)
  let img = Db.crash_image db in
  ignore (check_recovery "crash after rollback" scripts img);
  (* and the database remains writable afterwards *)
  let rows_before = List.length (Rel.tuples (Db.query before "SELECT x.DNO FROM x IN DEPT")) in
  ignore (Db.exec db "INSERT INTO DEPT VALUES (5, 'Post', 1, {})");
  checki "post-rollback insert visible" (rows_before + 1)
    (List.length (Rel.tuples (Db.query db "SELECT x.DNO FROM x IN DEPT")))

(* An uncommitted transaction dies with the machine: recovery must show
   no trace of it, even though its pages may have been flushed. *)
let test_uncommitted_vanishes () =
  let db = fresh_wal_db () in
  run_scripts db scripts;
  ignore (Db.wal_checkpoint db);
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "UPDATE DEPT SET BUDGET = 777777 WHERE DNO = 1");
  ignore (Db.exec db "INSERT INTO DEPT VALUES (8, 'Doomed', 8, {})");
  (* push the uncommitted changes to disk — WAL forces the log first *)
  BP.flush_all (Db.pool db);
  (* machine dies before COMMIT *)
  let img = Db.crash_image db in
  let recovered = Db.recover_from_image img in
  let oracle = oracle_prefix scripts (List.length scripts) in
  same_state "uncommitted work gone" recovered oracle;
  checki "no doomed row" 0
    (List.length (Rel.tuples (Db.query recovered "SELECT x.DNO FROM x IN DEPT WHERE x.DNO = 8")))

(* Recovery is deterministic: replaying the same image twice yields the
   same database. *)
let test_recovery_deterministic () =
  let img, _ = crash_run scripts (FD.Crash_at_write 7) in
  let a = Db.recover_from_image img in
  let b = Db.recover_from_image img in
  same_state "replay twice" a b

(* --- group-commit edges --------------------------------------------------- *)

(* sync_to with nothing to do: an empty log or an already-durable LSN
   must not fsync at all, and a flush that covers no commit record must
   not count as a group-commit batch. *)
let test_sync_to_empty () =
  let w = Wal.create () in
  Wal.set_group_commit w true;
  Wal.sync_to w 0;
  checki "empty log: no fsync" 0 (Wal.stats w).Wal.flushes;
  let tx = Wal.begin_tx w in
  Wal.commit w ~tx ~payload:None;
  Wal.sync_to w (Wal.last_lsn w);
  checki "one fsync for the commit" 1 (Wal.stats w).Wal.flushes;
  Wal.sync_to w (Wal.last_lsn w);
  checki "already durable: no extra fsync" 1 (Wal.stats w).Wal.flushes;
  checkb "durable" true (Wal.durable_lsn w = Wal.last_lsn w);
  (* a flush with no commit record in it is not a group-commit batch *)
  let lsn = Wal.log_update w ~tx:Wal.system_tx ~page:0 ~off:0 ~before:"" ~after:"x" in
  Wal.sync_to w lsn;
  checkb "update durable" true (Wal.durable_lsn w >= lsn);
  checki "no commit covered, no batch counted" 1 (Wal.stats w).Wal.group_commit_batches

(* The leader's gathering window must cover followers that commit while
   it is open: one fsync makes every one of them durable.  A lone
   pending commit skips the window (see the dedicated test below), so
   two commits are parked up front to guarantee whoever flushes first
   sees company and holds the window open. *)
let test_group_commit_followers () =
  let w = Wal.create () in
  let nfollowers = 3 in
  let arrived = Atomic.make 0 in
  let window () =
    (* leader: hold the window open until every follower's commit
       record is in the tail (bounded, in case of a test bug) *)
    let deadline = Unix.gettimeofday () +. 5. in
    while Atomic.get arrived < nfollowers && Unix.gettimeofday () < deadline do
      Thread.delay 0.001
    done
  in
  Wal.set_group_commit ~window w true;
  let tx0 = Wal.begin_tx w in
  Wal.commit w ~tx:tx0 ~payload:None;
  let tx1 = Wal.begin_tx w in
  Wal.commit w ~tx:tx1 ~payload:None;
  let first_lsn = Wal.last_lsn w in
  let leader = Thread.create (fun () -> Wal.sync_to w first_lsn) () in
  let follower _ =
    Thread.create
      (fun () ->
        let tx = Wal.begin_tx w in
        Wal.commit w ~tx ~payload:None;
        let lsn = Wal.last_lsn w in
        Atomic.incr arrived;
        Wal.sync_to w lsn)
      ()
  in
  let followers = List.init nfollowers follower in
  Thread.join leader;
  List.iter Thread.join followers;
  checkb "everything durable" true (Wal.durable_lsn w = Wal.last_lsn w);
  let s = Wal.stats w in
  checki "one shared fsync" 1 s.Wal.flushes;
  checki "the batch covered every commit" (nfollowers + 2) s.Wal.group_commit_txns

(* Leader crash between append and fsync: the group fsync dies
   persisting nothing, and every committer in the group — the leader
   and the followers parked in the wait — must observe Disk.Crash
   rather than hang or report durability. *)
let test_group_commit_leader_crash () =
  let w = Wal.create () in
  let nthreads = 4 in
  let arrived = Atomic.make 0 in
  let window () =
    let deadline = Unix.gettimeofday () +. 5. in
    while Atomic.get arrived < nthreads && Unix.gettimeofday () < deadline do
      Thread.delay 0.001
    done
  in
  Wal.set_group_commit ~window w true;
  Wal.set_sync_hook w (Some (fun _ -> 0));
  let crashes = Atomic.make 0 in
  let worker _ =
    Thread.create
      (fun () ->
        let tx = Wal.begin_tx w in
        Wal.commit w ~tx ~payload:None;
        let lsn = Wal.last_lsn w in
        Atomic.incr arrived;
        try Wal.sync_to w lsn with D.Crash _ -> Atomic.incr crashes)
      ()
  in
  let threads = List.init nthreads worker in
  List.iter Thread.join threads;
  checki "every committer observed the crash" nthreads (Atomic.get crashes);
  checki "nothing became durable" 0 (Wal.durable_lsn w);
  (* the machine is dead: later durability waits must refuse too *)
  checkb "post-crash sync_to raises" true
    (try
       Wal.sync_to w (Wal.last_lsn w);
       false
     with D.Crash _ -> true);
  checki "the durable prefix reads back empty" 0
    (List.length (Wal.records_of_string (Wal.durable_contents w)))

(* --- async batched appender ----------------------------------------------- *)

(* Concurrent committers drain through the dedicated appender thread:
   every commit is covered by some batch, the appender counters
   populate (mirrored into the group-commit totals the bench derives
   averages from), and everything is durable once the waiters return. *)
let test_appender_batches () =
  let w = Wal.create () in
  Wal.set_group_commit w true;
  Wal.set_async_appender w true;
  checkb "appender reported running" true (Wal.appender_running w);
  let nthreads = 4 and per_thread = 25 in
  let worker _ =
    Thread.create
      (fun () ->
        for _ = 1 to per_thread do
          let tx = Wal.begin_tx w in
          ignore (Wal.log_update w ~tx ~page:0 ~off:0 ~before:"" ~after:"x");
          Wal.commit w ~tx ~payload:None;
          Wal.sync_to w (Wal.last_lsn w)
        done)
      ()
  in
  let threads = List.init nthreads worker in
  List.iter Thread.join threads;
  Wal.set_async_appender w false;
  checkb "appender stopped" true (not (Wal.appender_running w));
  checkb "everything durable" true (Wal.durable_lsn w = Wal.last_lsn w);
  let s = Wal.stats w in
  checki "every commit covered by a batch" (nthreads * per_thread) s.Wal.appender_txns;
  checkb "batches counted" true (s.Wal.appender_batches >= 1);
  checkb "no more batches than commits" true (s.Wal.appender_batches <= nthreads * per_thread);
  checkb "max batch sane" true
    (s.Wal.appender_max_batch >= 1 && s.Wal.appender_max_batch <= nthreads * per_thread);
  checki "appender totals mirror the group-commit totals" s.Wal.appender_txns
    s.Wal.group_commit_txns;
  checkb "one fsync per batch" true (s.Wal.flushes <= s.Wal.appender_batches + 1)

(* Appender crash semantics are the durable-prefix model, unchanged: a
   failed batch fsync kills the machine, every parked committer
   observes Disk.Crash, and the durable prefix — everything fsynced
   before the failure — still parses. *)
let test_appender_crash () =
  let w = Wal.create () in
  Wal.set_group_commit w true;
  Wal.set_async_appender w true;
  (* one commit becomes durable before the device dies *)
  let tx0 = Wal.begin_tx w in
  Wal.commit w ~tx:tx0 ~payload:None;
  Wal.sync_to w (Wal.last_lsn w);
  let survivors = List.length (Wal.records_of_string (Wal.durable_contents w)) in
  checkb "first commit durable" true (survivors > 0);
  (* now every fsync persists nothing *)
  Wal.set_sync_hook w (Some (fun _ -> 0));
  let nthreads = 3 in
  let crashes = Atomic.make 0 in
  let worker _ =
    Thread.create
      (fun () ->
        let tx = Wal.begin_tx w in
        Wal.commit w ~tx ~payload:None;
        try Wal.sync_to w (Wal.last_lsn w) with D.Crash _ -> Atomic.incr crashes)
      ()
  in
  let threads = List.init nthreads worker in
  List.iter Thread.join threads;
  checki "every parked committer observed the crash" nthreads (Atomic.get crashes);
  checkb "appender died with the machine" true (not (Wal.appender_running w));
  checkb "post-crash sync_to raises" true
    (try
       Wal.sync_to w (Wal.last_lsn w);
       false
     with D.Crash _ -> true);
  (* the prefix fsynced before the failure is intact and decodable *)
  checki "durable prefix unchanged by the failed batches" survivors
    (List.length (Wal.records_of_string (Wal.durable_contents w)));
  Wal.set_async_appender w false

(* A lone committer must not pay the gathering pause: with no other
   commit pending, the sync_to leader fsyncs immediately and never
   opens the window — the fix for the 1-client group-commit cliff. *)
let test_group_window_skipped_when_alone () =
  let w = Wal.create () in
  let opened = ref 0 in
  Wal.set_group_commit ~window:(fun () -> incr opened) w true;
  for _ = 1 to 5 do
    let tx = Wal.begin_tx w in
    Wal.commit w ~tx ~payload:None;
    Wal.sync_to w (Wal.last_lsn w)
  done;
  checki "window never opened for a lone committer" 0 !opened;
  checkb "all commits durable" true (Wal.durable_lsn w = Wal.last_lsn w);
  let s = Wal.stats w in
  checki "one fsync per lone commit" 5 s.Wal.flushes;
  checki "five singleton batches" 5 s.Wal.group_commit_batches;
  checki "covering five txns" 5 s.Wal.group_commit_txns

(* WAL stats surface the logging work for the bench harness. *)
let test_wal_stats () =
  let db = fresh_wal_db () in
  run_scripts db scripts;
  let w = Option.get (Db.wal db) in
  let s = Wal.stats w in
  checkb "records" true (s.Wal.records > List.length scripts);
  checkb "bytes" true (s.Wal.bytes > 0);
  checkb "flushes (one per commit)" true (s.Wal.flushes >= List.length scripts);
  let ps = BP.stats (Db.pool db) in
  checkb "pool captured log records" true (ps.BP.log_captures > 0)

(* --- what a page write logs ---------------------------------------------- *)

module Page = Nf2_storage.Page

(* The log's Update records after [since], oldest first. *)
let updates_since w since =
  List.filter_map
    (fun (lsn, r) ->
      match r with
      | Wal.Update { off; before; after; _ } when lsn > since -> Some (off, before, after)
      | _ -> None)
    (Wal.records_of_string (Wal.contents w))

let apply_images page images =
  List.iter (fun (off, img) -> Bytes.blit_string img 0 page off (String.length img)) images;
  page

(* Random slotted-page operations, each one [BP.write] under a WAL: the
   records a write emits are disjoint runs in offset order, each
   starting and ending on a byte the write changed, and their images
   replay the write exactly — redo turns the before page into the after
   page, undo in reverse order turns it back. *)
let test_capture_runs () =
  let disk = D.create ~page_size:4096 () in
  let pool = BP.create ~frames:4 disk in
  let w = Wal.create () in
  BP.attach_wal pool w;
  let page = BP.alloc pool in
  BP.write pool page Page.init;
  let rng = Prng.create 22 in
  let record () = String.make (Prng.in_range rng 1 120) (Char.chr (Prng.in_range rng 65 90)) in
  let image () = BP.read pool page Bytes.copy in
  for step = 1 to 400 do
    let msg = Printf.sprintf "step %d" step in
    let before = image () in
    let since = Wal.last_lsn w in
    BP.write pool page (fun buf ->
        let live = Array.of_list (Page.live_records buf) in
        match Prng.int rng 4 with
        | 0 -> ignore (Page.insert buf (record ()))
        | 1 when live <> [||] -> ignore (Page.delete buf (Prng.pick rng live))
        | 2 when live <> [||] -> ignore (Page.update buf (Prng.pick rng live) (record ()))
        | 3 -> Page.compact buf
        | _ -> ignore (Page.insert buf (record ())));
    let after = image () in
    let recs = updates_since w since in
    checkb (msg ^ ": a change is logged iff the page changed") (before <> after) (recs <> []);
    ignore
      (List.fold_left
         (fun prev_end (off, b, a) ->
           let len = String.length a in
           checkb (msg ^ ": disjoint, in offset order") true (off >= prev_end && len > 0);
           checki (msg ^ ": images of one length") len (String.length b);
           checkb (msg ^ ": run starts on a changed byte") true
             (Bytes.get before off <> Bytes.get after off);
           checkb (msg ^ ": run ends on a changed byte") true
             (Bytes.get before (off + len - 1) <> Bytes.get after (off + len - 1));
           off + len)
         0 recs);
    let redo = apply_images (Bytes.copy before) (List.map (fun (o, _, a) -> (o, a)) recs) in
    checkb (msg ^ ": redo reproduces the after page") true (Bytes.equal redo after);
    let undo = apply_images (Bytes.copy after) (List.rev_map (fun (o, b, _) -> (o, b)) recs) in
    checkb (msg ^ ": undo reproduces the before page") true (Bytes.equal undo before)
  done

(* Bytes of the page images one statement logs (commit payloads are
   not page images and are left out). *)
let update_bytes db sql =
  let w = Option.get (Db.wal db) in
  let since = Wal.last_lsn w in
  ignore (Db.exec db sql);
  List.fold_left
    (fun acc (_, b, a) -> acc + String.length b + String.length a)
    0 (updates_since w since)

(* The ORDERS shape of the point-oltp workload: [n] rows, indexed on
   OID, with the WAL on. *)
let order_row k =
  Printf.sprintf "(%d, 'C%07d', 'open', {(%d, %d), (%d, %d), (%d, %d)})" k k (k * 7) (k mod 50)
    (k * 11) (k mod 13) (k * 13) (k mod 7)

let orders_db n =
  let db = Db.create ~wal:true () in
  ignore
    (Db.exec db "CREATE TABLE ORDERS (OID INT, CUST TEXT, STATUS TEXT, LINES TABLE (SKU INT, QTY INT))");
  ignore
    (Db.exec db
       ("INSERT INTO ORDERS VALUES " ^ String.concat ", " (List.init n (fun k -> order_row (k + 1)))));
  ignore (Db.exec db "CREATE INDEX ON ORDERS (OID)");
  db

(* A one-row write logs about what it changed, not whole pages. *)
let test_capture_size () =
  let db = orders_db 200 in
  let insert = update_bytes db ("INSERT INTO ORDERS VALUES " ^ order_row 201) in
  checkb (Printf.sprintf "one-row INSERT logs %d B of page images (< 2 KB)" insert) true
    (insert < 2048);
  let update = update_bytes db "UPDATE ORDERS SET CUST = 'zz' WHERE OID = 77" in
  checkb (Printf.sprintf "shorter-value UPDATE logs %d B of page images (< 512 B)" update) true
    (update < 512)

(* --- catalog payloads ------------------------------------------------- *)

let records_since w since =
  List.filter_map
    (fun (lsn, r) -> if lsn > since then Some r else None)
    (Wal.records_of_string (Wal.contents w))

let payloads recs = List.filter_map (function Wal.Commit { payload; _ } -> Some payload | _ -> None) recs

(* One autocommit statement: its commit's payload, the records its
   transaction logged and their bytes. *)
let logged_commit db sql =
  let w = Option.get (Db.wal db) in
  let since = Wal.last_lsn w and bytes = (Wal.stats w).Wal.bytes in
  ignore (Db.exec db sql);
  let recs = records_since w since in
  match payloads recs with
  | [ payload ] -> (payload, recs, (Wal.stats w).Wal.bytes - bytes)
  | _ -> Alcotest.fail (sql ^ ": expected one commit")

let store_pages db table =
  let dir, data, free = OS.export_meta (Db.table_store db ~table) in
  List.length dir + List.length data + List.length free

(* A commit carries the catalog only when it changed: a one-row UPDATE
   logs no payload, so what it logs does not grow with the table,
   while a page-allocating INSERT and a CREATE INDEX carry one. *)
let test_payload_only_on_change () =
  let update db = logged_commit db "UPDATE ORDERS SET CUST = 'zz' WHERE OID = 77" in
  let small = orders_db 200 and large = orders_db 2000 in
  let p200, r200, b200 = update small and p2000, r2000, b2000 = update large in
  checkb "one-row UPDATE carries no catalog (200 rows)" true (p200 = None);
  checkb "one-row UPDATE carries no catalog (2,000 rows)" true (p2000 = None);
  (* the same records; their bytes differ only in the LSNs' varints *)
  checkb "it logs the same records at 200 and 2,000 rows" true (r200 = r2000);
  checkb (Printf.sprintf "it logs %d and %d B (< 100 B)" b200 b2000) true (b200 < 100 && b2000 < 100);
  let pages = store_pages small "ORDERS" in
  let p, _, _ =
    logged_commit small
      (Printf.sprintf "INSERT INTO ORDERS VALUES (999, '%s', 'open', {})" (String.make 5000 'x'))
  in
  checkb "the INSERT allocated pages" true (store_pages small "ORDERS" > pages);
  checkb "a page-allocating INSERT carries the catalog" true (p <> None);
  let p, _, _ = logged_commit small "CREATE INDEX ON ORDERS (CUST)" in
  checkb "CREATE INDEX carries the catalog" true (p <> None);
  let p, _, _ = update small in
  checkb "an UPDATE after it carries none again" true (p = None);
  same_state "recovered" (Db.recover_from_image (Db.crash_image small)) small

(* A stream whose commits mostly carry no catalog, mixed with DDL, a
   page-allocating INSERT, a rolled-back transaction (which itself
   changes the catalog) and a checkpoint. *)
type step = Commit of string | Rolled_back of string list | Checkpoint

let payload_stream =
  [
    Commit "CREATE TABLE DEPT (DNO INT, NAME TEXT, BUDGET INT, EQUIP TABLE (QU INT, KIND TEXT))";
    Commit "INSERT INTO DEPT VALUES (1, 'Tooling', 100, {(1, 'DRILL')}), (2, 'Assembly', 200, {})";
    Commit "UPDATE DEPT SET BUDGET = 110 WHERE DNO = 1";
    Commit "UPDATE DEPT SET NAME = 'Tool' WHERE DNO = 1";
    Commit "CREATE INDEX ON DEPT (DNO)";
    Commit "UPDATE DEPT SET BUDGET = 120 WHERE DNO = 2";
    Rolled_back
      [
        "INSERT INTO DEPT VALUES (9, 'Doomed annex and overflow yard', 9, {(90, 'CRANE'), (91, 'HOIST')})";
        "UPDATE DEPT SET BUDGET = 0 WHERE DNO = 1";
        "CREATE TABLE GONE (A INT)";
      ];
    Commit "UPDATE DEPT SET BUDGET = 130 WHERE DNO = 1";
    Commit
      "INSERT INTO DEPT VALUES (3, 'Paint shop and drying hall', 300, {(4, 'SPRAY'), (5, 'OVEN'), \
       (6, 'BOOTH')})";
    Commit "UPDATE DEPT SET BUDGET = 140 WHERE DNO = 2";
    Checkpoint;
    Commit "UPDATE DEPT SET BUDGET = 150 WHERE DNO = 1";
    Commit "CREATE TABLE TALLY (N INT)";
    Commit "INSERT INTO TALLY VALUES (1)";
    Commit "UPDATE TALLY SET N = 2 WHERE N = 1";
    Commit "UPDATE DEPT SET BUDGET = 160 WHERE DNO = 3";
  ]

let run_steps db =
  List.iter (function
    | Commit sql -> ignore (Db.exec db sql)
    | Rolled_back sqls ->
        Db.begin_txn db;
        List.iter (fun sql -> ignore (Db.exec db sql)) sqls;
        Db.rollback db
    | Checkpoint -> ignore (Db.wal_checkpoint db))

let committed_sql = List.filter_map (function Commit sql -> Some sql | _ -> None) payload_stream

(* Crash at every physical write of that stream: recovery takes the
   newest payload in the log (or the checkpoint's), which must describe
   the catalog at the last durable commit. *)
let test_payload_crash_matrix () =
  let db = fresh_wal_db () in
  run_steps db payload_stream;
  let ps = payloads (records_since (Option.get (Db.wal db)) 0) in
  checkb "some commits carry no catalog" true (List.length (List.filter Option.is_none ps) >= 5);
  checkb "some commits carry the catalog" true (List.length (List.filter Option.is_some ps) >= 4);
  let n = (D.stats (Db.disk db)).D.writes in
  for k = 0 to n do
    let db = fresh_wal_db () in
    let fd = FD.arm ~wal:(Option.get (Db.wal db)) (Db.disk db) (FD.Crash_at_write (k + 1)) in
    (try run_steps db payload_stream with D.Crash _ -> ());
    FD.disarm fd;
    ignore (check_recovery (Printf.sprintf "payload stream, crash at write %d" k) committed_sql
              (Db.crash_image db))
  done

(* --- record index ---------------------------------------------------- *)

(* The log's record index against the newest-first (lsn, end offset)
   list it replaced: after random appends and fsyncs (some torn by the
   sync hook), the durable LSN and every [durable_since] batch are what
   the list's walks yield. *)
let model_since recs ~durable_len ~max_bytes since =
  let rec newer acc = function
    | (l, e) :: rest when l > since -> newer ((l, e) :: acc) rest
    | (_, e) :: _ -> (acc, e)
    | [] -> (acc, 0)
  in
  let after, start_off = newer [] recs in
  let durable = List.filter (fun (_, e) -> e <= durable_len) after in
  let rec cut chosen = function
    | (l, e) :: rest when chosen = None || e - start_off <= max_bytes -> cut (Some (l, e)) rest
    | _ -> chosen
  in
  match cut None durable with
  | None -> (start_off, 0, since)
  | Some (last, stop_off) -> (start_off, stop_off - start_off, last)

let prop_record_index =
  QCheck.Test.make ~name:"record index vs (lsn, end offset) list" ~count:200
    QCheck.(list_of_size Gen.(1 -- 60) (pair (int_bound 3) (int_bound 200)))
    (fun ops ->
      let w = Wal.create () in
      let tx = Wal.begin_tx w in
      let recs = ref [ (Wal.last_lsn w, (Wal.stats w).Wal.bytes) ] in
      List.for_all
        (fun (op, n) ->
          (match op with
          | 0 | 1 ->
              let lsn = Wal.log_update w ~tx ~page:n ~off:0 ~before:(String.make n 'b') ~after:"a" in
              recs := (lsn, (Wal.stats w).Wal.bytes) :: !recs
          | 2 -> (
              Wal.set_sync_hook w (Some (fun pending -> min pending (n * 3)));
              try Wal.flush w with D.Crash _ -> ())
          | _ ->
              Wal.set_sync_hook w None;
              Wal.flush w);
          let durable_len = String.length (Wal.durable_contents w) in
          let contents = Wal.contents w in
          let model_durable =
            List.fold_left (fun acc (l, e) -> if e <= durable_len then max acc l else acc) 0 !recs
          in
          Wal.durable_lsn w = model_durable
          && List.for_all
               (fun since ->
                 List.for_all
                   (fun max_bytes ->
                     let bytes, last, durable = Wal.durable_since ~max_bytes w since in
                     let start, len, model_last = model_since !recs ~durable_len ~max_bytes since in
                     bytes = String.sub contents start len && last = model_last && durable = model_durable)
                   [ 1; n * 4; max_int ])
               (List.init (Wal.last_lsn w + 3) (fun i -> i - 1)))
        ops)

let () =
  Alcotest.run "wal"
    [
      ( "crash matrix",
        [
          Alcotest.test_case "crash at every write" `Quick test_crash_matrix;
          Alcotest.test_case "torn write at every write" `Quick test_torn_write_matrix;
          Alcotest.test_case "log fsync failures" `Quick test_sync_failures;
        ] );
      ( "randomized",
        [ Alcotest.test_case "differential oracle" `Quick test_randomized_crashes ] );
      ( "ordering",
        [ Alcotest.test_case "WAL before data" `Quick test_wal_before_data ] );
      ( "group commit",
        [
          Alcotest.test_case "empty batch" `Quick test_sync_to_empty;
          Alcotest.test_case "followers share the leader's fsync" `Quick
            test_group_commit_followers;
          Alcotest.test_case "leader crash releases the group" `Quick
            test_group_commit_leader_crash;
          Alcotest.test_case "lone committer skips the window" `Quick
            test_group_window_skipped_when_alone;
        ] );
      ( "async appender",
        [
          Alcotest.test_case "batch counters" `Quick test_appender_batches;
          Alcotest.test_case "crash releases the waiters" `Quick test_appender_crash;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "rollback via before-images" `Quick test_wal_rollback;
          Alcotest.test_case "uncommitted vanishes" `Quick test_uncommitted_vanishes;
          Alcotest.test_case "recovery deterministic" `Quick test_recovery_deterministic;
          Alcotest.test_case "stats" `Quick test_wal_stats;
          Alcotest.test_case "captured runs replay the write" `Quick test_capture_runs;
          Alcotest.test_case "one-row writes log what changed" `Quick test_capture_size;
        ] );
      ( "catalog record",
        [
          Alcotest.test_case "only when the catalog changed" `Quick test_payload_only_on_change;
          Alcotest.test_case "crash at every write" `Quick test_payload_crash_matrix;
        ] );
      ("record index", [ QCheck_alcotest.to_alcotest prop_record_index ]);
    ]
