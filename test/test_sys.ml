(* SYS introspection tests: the engine's own telemetry as queryable NF²
   relations.

   Covers the provider registry semantics (shadowing, freeze at first
   touch, EXPLAIN materializing nothing), the server-tier providers
   over the wire protocol (a join between SYS_SESSIONS and SYS_LOCKS
   via a nested-path predicate against live engine state), cumulative
   statement statistics (persistence across statements, reset only via
   \sys reset), a differential check that SYS reads take no predicate
   locks and leave user-table plan counters untouched, and a
   concurrent stress run reconciling the bounded rings by exact
   count. *)

module P = Nf2_server.Protocol
module Client = Nf2_server.Client
module Server = Nf2_server.Server
module Db = Nf2.Db
module Rel = Nf2_algebra.Rel
module Value = Nf2_model.Value
module Registry = Nf2_sys.Registry
module Stmt_stats = Nf2_sys.Stmt_stats
module Trace_ring = Nf2_sys.Trace_ring

let checkb msg expected actual = Alcotest.(check bool) msg expected actual
let checki msg expected actual = Alcotest.(check int) msg expected actual

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* --- embedded: registry semantics through Db.exec ----------------------- *)

let rows_of db sql =
  match List.rev (Db.exec db sql) with
  | Db.Rows rel :: _ -> Rel.tuples rel
  | _ -> Alcotest.fail ("expected rows from: " ^ sql)

let test_embedded_providers () =
  let db = Db.create () in
  (* the SYS namespace lists itself *)
  let names = List.map List.hd (rows_of db "SELECT t.NAME FROM t IN SYS_TABLES") in
  let has n = List.exists (fun v -> Value.render_v v = "'" ^ n ^ "'") names in
  checkb "SYS_WAL listed" true (has "SYS_WAL");
  checkb "SYS_MVCC listed" true (has "SYS_MVCC");
  checkb "SYS_TABLES listed" true (has "SYS_TABLES");
  (* SYS_WAL reflects live WAL state *)
  Db.attach_wal db;
  ignore (Db.exec db "CREATE TABLE T (K INT, A INT)");
  ignore (Db.exec db "INSERT INTO T VALUES (1, 10), (2, 20)");
  (match rows_of db "SELECT w.ATTACHED, w.RECORDS FROM w IN SYS_WAL" with
  | [ [ att; recs ] ] ->
      Alcotest.(check string) "attached" "TRUE" (Value.render_v att);
      checkb "records > 0" true (float_of_string (Value.render_v recs) > 0.)
  | _ -> Alcotest.fail "SYS_WAL should be one row");
  (* nested paths over SYS_MVCC parse and evaluate *)
  ignore (rows_of db "SELECT m.TBL, v.LSN FROM m IN SYS_MVCC, v IN m.CHAIN")

let test_shadowing () =
  let db = Db.create () in
  checkb "SYS_WAL is a SYS table" true (Db.is_sys_table db "sys_wal");
  ignore (Db.exec db "CREATE TABLE SYS_WAL (K INT)");
  checkb "user table shadows" false (Db.is_sys_table db "SYS_WAL");
  ignore (Db.exec db "INSERT INTO SYS_WAL VALUES (7)");
  (match rows_of db "SELECT * FROM x IN SYS_WAL" with
  | [ [ k ] ] -> Alcotest.(check string) "user row" "7" (Value.render_v k)
  | _ -> Alcotest.fail "expected the user's one-column row");
  ignore (Db.exec db "DROP TABLE SYS_WAL");
  checkb "provider back after drop" true (Db.is_sys_table db "SYS_WAL");
  match rows_of db "SELECT w.ATTACHED FROM w IN SYS_WAL" with
  | [ [ _ ] ] -> ()
  | _ -> Alcotest.fail "provider row should be back"

(* A snapshot decides SYS names from its own tables: a user table
   created after the pin hides the provider from later snapshots only.
   SYS scans stay off the plan-path counters through the snapshot, and
   the user table's scan counts. *)
let test_snapshot_shadowing () =
  let db = Db.create ~wal:true () in
  let read snap sql =
    match Nf2_lang.Parser.parse_script sql with
    | [ stmt ] -> Db.exec_read db snap stmt
    | _ -> Alcotest.fail "one statement"
  in
  let describe snap =
    match read snap "DESCRIBE SYS_WAL" with Db.Msg m -> m | Db.Rows _ -> Alcotest.fail "DESCRIBE rows"
  in
  let seq_scans () = (Db.planner_counters db).Db.seq_scans in
  let old = Db.snapshot db in
  ignore (Db.exec db "CREATE TABLE SYS_WAL (A INT)");
  ignore (Db.exec db "INSERT INTO SYS_WAL VALUES (7)");
  checkb "old snapshot describes the provider" true (contains (describe old) "ATTACHED");
  let before = seq_scans () in
  (match read old "SELECT x.ATTACHED FROM x IN SYS_WAL" with
  | Db.Rows rel ->
      checkb "old snapshot reads the provider's row" true
        (Rel.tuples rel = [ [ Value.Atom (Nf2_model.Atom.Bool true) ] ])
  | Db.Msg m -> Alcotest.fail m);
  checki "provider scan not counted" before (seq_scans ());
  Db.release_snapshot db old;
  let fresh = Db.snapshot db in
  checkb "new snapshot describes the user table" false (contains (describe fresh) "ATTACHED");
  (match read fresh "SELECT * FROM x IN SYS_WAL" with
  | Db.Rows rel -> checkb "new snapshot reads the user row" true (Rel.tuples rel = [ [ Value.Atom (Nf2_model.Atom.Int 7) ] ])
  | Db.Msg m -> Alcotest.fail m);
  checki "user table scan counted" (before + 1) (seq_scans ());
  Db.release_snapshot db fresh

let test_freeze_and_explain () =
  let db = Db.create () in
  let reg = Db.sys_registry db in
  let m0 = Registry.materializations reg in
  (* typing/planning only: nothing materializes *)
  ignore (Db.exec db "EXPLAIN SELECT * FROM w IN SYS_WAL");
  checki "EXPLAIN materializes nothing" m0 (Registry.materializations reg);
  (* a self-join touches the provider through two ranges but freezes at
     first touch: exactly one materialization for the statement *)
  ignore (Db.exec db "SELECT a.RECORDS, b.BYTES FROM a IN SYS_WAL, b IN SYS_WAL");
  checki "one materialization per statement" (m0 + 1) (Registry.materializations reg);
  ignore (Db.exec db "SELECT w.RECORDS FROM w IN SYS_WAL");
  checki "next statement refreezes" (m0 + 2) (Registry.materializations reg)

(* --- wire harness -------------------------------------------------------- *)

let with_server ?(domains = 0) (f : Server.t -> 'a) : 'a =
  let config =
    {
      Server.default_config with
      Server.port = 0;
      max_sessions = 16;
      lock_timeout = 5.0;
      group_commit = true;
      group_window = 0.001;
      idle_timeout = 0.;
      domains;
    }
  in
  let srv = Server.start config in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let conn (srv : Server.t) = Client.connect ~host:"127.0.0.1" ~port:(Server.port srv)

let rows c sql =
  match Client.request c (P.Query sql) with
  | Some (P.Result_table { columns; rows }) -> (columns, rows)
  | Some (P.Error { code; message }) ->
      Alcotest.fail (Printf.sprintf "%s -> %s %s" sql code message)
  | Some _ -> Alcotest.fail ("expected rows from: " ^ sql)
  | None -> Alcotest.fail ("server hung up on: " ^ sql)

let exec c sql =
  match Client.request c (P.Query sql) with
  | Some (P.Error { code; message }) ->
      Alcotest.fail (Printf.sprintf "%s -> %s %s" sql code message)
  | Some _ -> ()
  | None -> Alcotest.fail ("server hung up on: " ^ sql)

let col columns name =
  match List.find_index (( = ) name) columns with
  | Some i -> i
  | None -> Alcotest.fail ("no column " ^ name ^ " in " ^ String.concat "," columns)

(* --- wire: joining SYS_SESSIONS with SYS_LOCKS over live state ---------- *)

let test_sessions_locks_join () =
  with_server (fun srv ->
      let c1 = conn srv and c2 = conn srv in
      exec c1 "CREATE TABLE T (K INT, A INT)";
      exec c1 "INSERT INTO T VALUES (1, 10), (2, 20)";
      ignore (Client.request c1 P.Begin);
      exec c1 "UPDATE T SET A = 99 WHERE K = 1";
      (* c1 now holds an exclusive predicate lock; its recent-statement
         ring carries the UPDATE with status ok.  Join session state to
         lock state through the nested STMTS path, over the wire. *)
      let _, r =
        rows c2
          "SELECT s.SID, l.MODE, l.PREDICATE FROM s IN SYS_SESSIONS, l IN SYS_LOCKS WHERE \
           s.TXN = l.TXN AND EXISTS st IN s.STMTS : st.STATUS = 'ok'"
      in
      checkb "one lock-holding session" true (List.length r >= 1);
      List.iter
        (fun row ->
          match row with
          | [ _; mode; pred ] ->
              Alcotest.(check string) "exclusive" "'X'" mode;
              checkb "predicate names T" true (contains pred "T")
          | _ -> Alcotest.fail "arity")
        r;
      (* commit releases the locks; the same query sees the new state *)
      ignore (Client.request c1 P.Commit);
      let _, r' =
        rows c2
          "SELECT s.SID, l.MODE FROM s IN SYS_SESSIONS, l IN SYS_LOCKS WHERE s.TXN = l.TXN"
      in
      checki "no granted locks after commit" 0 (List.length r');
      Client.close c1;
      Client.close c2)

(* --- wire: SYS_POOL x SYS_WAL — storage telemetry join ------------------- *)

(* One row per buffer-pool partition joined against the WAL appender
   state, over the wire: the server runs group commit through the
   async appender, so the commits above must show up as batches. *)
let test_pool_wal_join () =
  with_server (fun srv ->
      let c = conn srv in
      exec c "CREATE TABLE T (K INT, A INT)";
      exec c "INSERT INTO T VALUES (1, 10), (2, 20)";
      exec c "SELECT t.A FROM t IN T WHERE t.K = 1";
      let columns, r =
        rows c
          "SELECT p.PART, p.RESIDENT, w.APPENDER, w.BATCH_TXNS FROM p IN SYS_POOL, w IN \
           SYS_WAL WHERE w.ATTACHED = TRUE"
      in
      let nparts = Nf2_storage.Buffer_pool.partitions (Db.pool (Server.db srv)) in
      checki "one row per partition" nparts (List.length r);
      let ai = col columns "APPENDER" and bi = col columns "BATCH_TXNS" in
      List.iter
        (fun row ->
          Alcotest.(check string) "appender running" "TRUE" (List.nth row ai);
          checkb "appender batched the commits" true (int_of_string (List.nth row bi) >= 2))
        r;
      (* the nested FRAMES subtable enumerates resident pages; with the
         engine quiesced nothing may be left pinned *)
      let fcols, fr = rows c "SELECT p.PART, f.PAGE, f.PINS FROM p IN SYS_POOL, f IN p.FRAMES" in
      checkb "frames enumerated" true (List.length fr >= 1);
      let pi = col fcols "PINS" in
      List.iter
        (fun row -> checki "no pinned frame at rest" 0 (int_of_string (List.nth row pi)))
        fr;
      (* RESIDENT reconciles with the frame rows carrying a page (PART
         is kept in the projection: results are sets, and bare RESIDENT
         values would collapse duplicates) *)
      let _, occupied = rows c "SELECT f.PAGE FROM p IN SYS_POOL, f IN p.FRAMES WHERE f.PAGE >= 0" in
      let rcols, resident = rows c "SELECT p.PART, p.RESIDENT FROM p IN SYS_POOL" in
      let ri = col rcols "RESIDENT" in
      checki "resident = occupied frames"
        (List.fold_left (fun acc row -> acc + int_of_string (List.nth row ri)) 0 resident)
        (List.length occupied);
      Client.close c)

(* --- wire: cumulative statement statistics ------------------------------ *)

let sum_calls c =
  let columns, r = rows c "SELECT st.SHAPE, st.CALLS FROM st IN SYS_STATEMENTS" in
  let ci = col columns "CALLS" in
  List.fold_left (fun acc row -> acc + int_of_string (List.nth row ci)) 0 r

let test_statements_persistence_and_reset () =
  with_server (fun srv ->
      let c = conn srv in
      exec c "CREATE TABLE T (K INT, A INT)";
      exec c "INSERT INTO T VALUES (1, 10), (2, 20)";
      (* two executions with different constants fold into one shape *)
      exec c "SELECT t.A FROM t IN T WHERE t.K = 1";
      exec c "SELECT t.A FROM t IN T WHERE t.K = 2";
      let find_shape () =
        let columns, r = rows c "SELECT st.SHAPE, st.CALLS FROM st IN SYS_STATEMENTS" in
        let si = col columns "SHAPE" and ci = col columns "CALLS" in
        List.filter_map
          (fun row ->
            let s = List.nth row si in
            if contains s "T WHERE" && contains s "= ?" then Some (int_of_string (List.nth row ci))
            else None)
          r
      in
      (match find_shape () with
      | [ calls ] -> checki "constants normalized into one shape" 2 calls
      | l -> Alcotest.failf "expected one normalized shape, got %d" (List.length l));
      (* aggregates survive unrelated statements *)
      exec c "SELECT t.K FROM t IN T";
      exec c "INSERT INTO T VALUES (3, 30)";
      (match find_shape () with
      | [ calls ] -> checki "aggregates survive other statements" 2 calls
      | _ -> Alcotest.fail "shape lost");
      (* ... and vanish only on explicit reset *)
      (match Client.request c P.Sys_reset with
      | Some (P.Row_count { message; _ }) -> checkb "reset ack" true (contains message "reset")
      | _ -> Alcotest.fail "Sys_reset should answer Row_count");
      let _, r = rows c "SELECT st.SHAPE FROM st IN SYS_STATEMENTS" in
      checki "empty after reset" 0 (List.length r);
      Client.close c)

(* --- wire: differential — SYS reads are free of locks and plan counters - *)

let test_sys_reads_take_nothing () =
  with_server (fun srv ->
      let db = Server.db srv in
      let c = conn srv in
      exec c "CREATE TABLE T (K INT, A INT)";
      exec c "INSERT INTO T VALUES (1, 10), (2, 20)";
      let pc0 = Db.planner_counters db in
      exec c "SELECT s.SID FROM s IN SYS_SESSIONS";
      exec c "SELECT l.TXN FROM l IN SYS_LOCKS";
      exec c "SELECT w.RECORDS FROM w IN SYS_WAL";
      let pc1 = Db.planner_counters db in
      checki "no seq scans counted" pc0.Db.seq_scans pc1.Db.seq_scans;
      checki "no index scans counted" pc0.Db.index_scans pc1.Db.index_scans;
      checki "no intersections counted" pc0.Db.index_intersections pc1.Db.index_intersections;
      (* the same counters do move for a user-table read *)
      exec c "SELECT t.A FROM t IN T";
      let pc2 = Db.planner_counters db in
      checkb "user scan counted" true (pc2.Db.seq_scans > pc1.Db.seq_scans);
      (* per-shape lock attribution.  Plain reads are lock-free MVCC
         snapshot reads for user tables too, so the differential runs
         inside an explicit transaction, where user-table reads DO take
         shared predicate locks — and SYS reads still take none. *)
      ignore (Client.request c P.Begin);
      exec c "SELECT s.IN_TXN FROM s IN SYS_SESSIONS";
      exec c "SELECT t.K FROM t IN T";
      ignore (Client.request c P.Commit);
      let columns, r = rows c "SELECT st.SHAPE, st.LOCK_ACQUIRES FROM st IN SYS_STATEMENTS" in
      let si = col columns "SHAPE" and li = col columns "LOCK_ACQUIRES" in
      let locks_of frag =
        List.filter_map
          (fun row ->
            if contains (List.nth row si) frag then Some (int_of_string (List.nth row li))
            else None)
          r
      in
      List.iter (fun n -> checki "SYS read lock-free" 0 n) (locks_of "SYS_SESSIONS");
      List.iter (fun n -> checki "SYS read lock-free" 0 n) (locks_of "SYS_LOCKS");
      (match locks_of "SELECT t.K FROM t IN T" with
      | [ n ] -> checkb "in-txn user read locks" true (n >= 1)
      | _ -> Alcotest.fail "user shape missing");
      (match locks_of "SELECT t.A FROM t IN T" with
      | [ n ] -> checki "autocommit read is snapshot (lock-free)" 0 n
      | _ -> Alcotest.fail "user autocommit shape missing");
      Client.close c)

(* --- wire: SYS_METRICS nested buckets, slow-query threshold gauge ------- *)

let metric_value c name =
  let _, r =
    rows c (Printf.sprintf "SELECT m.VALUE FROM m IN SYS_METRICS WHERE m.NAME = '%s'" name)
  in
  match r with
  | [ [ v ] ] -> float_of_string v
  | _ -> Alcotest.failf "metric %s not found" name

let test_metrics_and_threshold_gauge () =
  with_server (fun srv ->
      let c = conn srv in
      exec c "CREATE TABLE T (K INT)";
      exec c "INSERT INTO T VALUES (1)";
      exec c "SELECT t.K FROM t IN T";
      (* histograms surface as nested bucket subtables *)
      let _, r =
        rows c
          "SELECT m.NAME, b.LE, b.CNT FROM m IN SYS_METRICS, b IN m.BUCKETS WHERE m.NAME = \
           'query_latency' AND b.CNT > 0"
      in
      checkb "observed latency bucket" true (List.length r >= 1);
      (* the runtime threshold switch is reflected as a gauge *)
      (match Client.request c (P.Set_slow_query (Some 0.5)) with
      | Some (P.Row_count { message; _ }) -> checkb "ack names threshold" true (contains message "0.5")
      | _ -> Alcotest.fail "Set_slow_query should answer Row_count");
      checkb "gauge follows set" true (abs_float (metric_value c "slow_query_threshold_seconds" -. 0.5) < 1e-9);
      (match Client.request c (P.Set_slow_query None) with
      | Some (P.Row_count { message; _ }) -> checkb "ack off" true (contains message "off")
      | _ -> Alcotest.fail "Set_slow_query off should answer Row_count");
      checkb "gauge cleared" true (abs_float (metric_value c "slow_query_threshold_seconds") < 1e-9);
      checkb "build info exported" true (metric_value c "uptime_seconds" >= 0.);
      Client.close c)

(* --- statement attribution ---------------------------------------------- *)

(* The sampler walks each source by the layout it learned on creation;
   a source whose names are rebuilt per call and change order must
   still land every counter in its own column. *)
let test_attribution_sampler () =
  let column name =
    let rec go i = function
      | (n, _, _) :: rest -> if n = name then i else go (i + 1) rest
      | [] -> Alcotest.fail ("not attributed: " ^ name)
    in
    go 0 Stmt_stats.attributed
  in
  let hits = ref 0 and flip = ref false in
  let pool () = [ ("pool.hits", !hits); ("pool.partitions", 8) ] in
  let moving () =
    let l =
      [ (Printf.sprintf "wal.%s" "bytes", 100); (Printf.sprintf "lock.%s" "wait_ns", 2_000_000) ]
    in
    if !flip then List.rev l else l
  in
  let sample = Stmt_stats.sampler [ pool; moving ] in
  let before = sample () in
  hits := 5;
  flip := true;
  let after = sample () in
  let d = Stmt_stats.delta ~before ~after ~seconds:0. ~rows:0 in
  checki "pool.hits delta" 5 d.Stmt_stats.d_counters.(column "pool.hits");
  checki "wal.bytes after the reorder" 100 after.(column "wal.bytes");
  checki "lock.wait_ns after the reorder" 2_000_000 after.(column "lock.wait_ns");
  checki "a counter no source reports" 0 after.(column "disk.reads")

(* --- rings under concurrency: exact-count reconciliation ---------------- *)

let test_ring_stress_domains () =
  let stats = Stmt_stats.create ~cap:8 () in
  let ring = Trace_ring.create ~cap:64 () in
  let per_domain = 500 and ndomains = 8 in
  let worker d () =
    for i = 1 to per_domain do
      Stmt_stats.record stats
        ~shape:(Printf.sprintf "SELECT ? /* d%d */" (d mod 4))
        { Stmt_stats.zero_delta with Stmt_stats.d_seconds = 1e-6; d_rows = 1 };
      Trace_ring.add ring ~sid:d
        ~stmt:(Printf.sprintf "stmt %d.%d" d i)
        ~ms:0.1 ~status:"ok"
        [ { Trace_ring.depth = 0; label = "root"; srows = 1; calls = 1; us = 1 } ]
    done
  in
  let domains = List.init ndomains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join domains;
  let total = ndomains * per_domain in
  checki "every record counted" total (Stmt_stats.recorded stats);
  checki "every trace counted" total (Trace_ring.added ring);
  let entries = Stmt_stats.snapshot stats in
  checkb "stats ring bounded" true (List.length entries <= Stmt_stats.cap stats);
  checki "no eviction below cap: calls reconcile" total
    (List.fold_left (fun acc (e : Stmt_stats.entry) -> acc + e.Stmt_stats.calls) 0 entries);
  let traces = Trace_ring.snapshot ring in
  checki "trace ring at cap" (Trace_ring.cap ring) (List.length traces);
  (* no tearing: seqs are distinct, every kept entry is whole *)
  let seqs = List.map (fun (e : Trace_ring.entry) -> e.Trace_ring.seq) traces in
  checki "distinct seqs" (List.length traces) (List.length (List.sort_uniq compare seqs));
  List.iter
    (fun (e : Trace_ring.entry) ->
      checkb "entry whole" true (e.Trace_ring.spans <> [] && e.Trace_ring.stmt <> ""))
    traces

let test_server_stress_reconciles () =
  with_server ~domains:2 (fun srv ->
      let c0 = conn srv in
      (* trace everything: threshold zero admits every statement *)
      ignore (Client.request c0 (P.Set_slow_query (Some 0.0)));
      exec c0 "CREATE TABLE S (K INT)";
      let nworkers = 8 and per_worker = 25 in
      let clients = Array.init nworkers (fun _ -> conn srv) in
      let worker w () =
        for i = 1 to per_worker do
          if i mod 2 = 0 then exec clients.(w) (Printf.sprintf "INSERT INTO S VALUES (%d)" ((w * 100) + i))
          else exec clients.(w) (Printf.sprintf "SELECT s.K FROM s IN S WHERE s.K = %d" i)
        done
      in
      let threads = List.init nworkers (fun w -> Thread.create (worker w) ()) in
      List.iter Thread.join threads;
      (* exact-count reconciliation: every statement run so far is in
         the cumulative stats exactly once... *)
      let expected = 1 + (nworkers * per_worker) in
      checki "sum of CALLS is every statement" expected (sum_calls c0);
      (* ...and the engine's own statement counter agrees, one ahead
         (the reconciliation query itself was counted in between) *)
      checki "statements_total agrees" (expected + 1)
        (int_of_float (metric_value c0 "statements_total"));
      (* trace ring: full, bounded, untorn *)
      let columns, tr = rows c0 "SELECT t.SEQ, COUNT(t.SPANS) AS NSPANS FROM t IN SYS_TRACES" in
      checki "trace ring at cap" 64 (List.length tr);
      let qi = col columns "SEQ" and ni = col columns "NSPANS" in
      let seqs = List.map (fun row -> List.nth row qi) tr in
      checki "distinct seqs" 64 (List.length (List.sort_uniq compare seqs));
      List.iter (fun row -> checkb "spans present" true (int_of_string (List.nth row ni) >= 1)) tr;
      (* per-session recent rings stay bounded while totals keep counting *)
      let columns, sr = rows c0 "SELECT s.SID, s.NSTMTS, COUNT(s.STMTS) AS NRECENT FROM s IN SYS_SESSIONS" in
      checkb "all sessions visible" true (List.length sr >= nworkers + 1);
      let ti = col columns "NSTMTS" and ri = col columns "NRECENT" in
      List.iter
        (fun row ->
          checkb "recent ring bounded" true (int_of_string (List.nth row ri) <= 16))
        sr;
      checki "worker totals exact" nworkers
        (List.length (List.filter (fun row -> List.nth row ti = string_of_int per_worker) sr));
      Array.iter Client.close clients;
      Client.close c0)

let () =
  Alcotest.run "sys"
    [
      ( "embedded",
        [
          Alcotest.test_case "providers queryable" `Quick test_embedded_providers;
          Alcotest.test_case "user tables shadow SYS" `Quick test_shadowing;
          Alcotest.test_case "snapshots shadow SYS at their LSN" `Quick test_snapshot_shadowing;
          Alcotest.test_case "freeze at first touch" `Quick test_freeze_and_explain;
          Alcotest.test_case "attribution sampler" `Quick test_attribution_sampler;
        ] );
      ( "wire",
        [
          Alcotest.test_case "SYS_SESSIONS x SYS_LOCKS join" `Quick test_sessions_locks_join;
          Alcotest.test_case "SYS_POOL x SYS_WAL join" `Quick test_pool_wal_join;
          Alcotest.test_case "statement stats persist until reset" `Quick
            test_statements_persistence_and_reset;
          Alcotest.test_case "SYS reads take no locks or counters" `Quick test_sys_reads_take_nothing;
          Alcotest.test_case "metrics buckets and threshold gauge" `Quick
            test_metrics_and_threshold_gauge;
        ] );
      ( "stress",
        [
          Alcotest.test_case "8-domain ring reconciliation" `Quick test_ring_stress_domains;
          Alcotest.test_case "concurrent server reconciliation" `Quick test_server_stress_reconciles;
        ] );
    ]
