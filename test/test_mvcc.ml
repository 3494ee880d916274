(* MVCC snapshot-read battery.

   The heart is a differential oracle: a long randomized single-threaded
   run of committed mutations against a naive model that keeps one full
   rendered copy of every table per commit LSN.  After the run, every
   recorded LSN is replayed through the engine's snapshot machinery —
   [ASOF <lsn>] time-travel through one pinned snapshot, plus snapshots
   pinned mid-run and evaluated with [Db.exec_read] — and the rendered
   results must be byte-equal to the model's copies.

   The rest covers the version GC: reclamation under a small retain
   budget, pinned snapshots holding the horizon, the typed
   [Snapshot_too_old] below it, and the Section 5 date-ASOF queries
   running identically through the lock-free snapshot path. *)

module Db = Nf2.Db
module Mvcc = Nf2_temporal.Mvcc
module Atom = Nf2_model.Atom
module Value = Nf2_model.Value
module Parser = Nf2_lang.Parser
module Rel = Nf2_algebra.Rel

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let stmt_of q =
  match Parser.parse_script q with
  | [ s ] -> s
  | _ -> Alcotest.failf "expected one statement: %s" q

let render_read db snap q = Db.render_result (Db.exec_read db snap (stmt_of q))

(* --- the differential oracle --------------------------------------------- *)

(* Flat tables A, B, C (K, N) and the nested D, indexed on K and on
   SUB.S, so commits come from index-probed point writes, scans over
   many rows and subtable statements alike. *)
let flat = [| "A"; "B"; "C" |]
let tables = Array.append flat [| "D" |]
let scan_q t = Printf.sprintf "SELECT x.K, x.N FROM x IN %s" t
let asof_q t lsn = Printf.sprintf "SELECT x.K, x.N FROM x IN %s ASOF %d" t lsn

let create_all db =
  Array.iter
    (fun t -> ignore (Db.exec db (Printf.sprintf "CREATE TABLE %s (K INT, N INT)" t)))
    flat;
  ignore (Db.exec db "CREATE TABLE D (K INT, N INT, SUB TABLE (S INT, V INT))");
  ignore (Db.exec db "CREATE INDEX ON D (K)");
  ignore (Db.exec db "CREATE INDEX ON D (SUB.S)")

(* One randomized statement; keys stay in a small range so inserts,
   updates and deletes all keep hitting live rows.  [flat] are the flat
   tables whose rows are (K, N) right now. *)
let random_stmt ?(flat = flat) rng =
  let k = Prng.int rng 25 and n = Prng.int rng 1000 in
  if Prng.int rng 3 > 0 then
    let t = Prng.pick rng flat in
    match Prng.int rng 9 with
    | 0 | 1 -> Printf.sprintf "INSERT INTO %s VALUES (%d, %d)" t k n
    | 2 -> Printf.sprintf "INSERT INTO %s VALUES (%d, %d), (%d, %d)" t k n (k + 1) (n / 2)
    | 3 | 4 -> Printf.sprintf "UPDATE %s SET N = %d WHERE K = %d" t n k
    | 5 -> Printf.sprintf "DELETE FROM %s WHERE K = %d" t k
    | 6 -> Printf.sprintf "UPDATE %s SET N = N + 1 WHERE K < %d" t k
    | 7 -> Printf.sprintf "DELETE FROM %s WHERE N > %d" t (900 + (n / 10))
    | _ -> Printf.sprintf "UPDATE %s SET K = K + 1 WHERE N < %d" t (n / 4)
  else
    let s = Prng.int rng 6 in
    match Prng.int rng 9 with
    | 0 | 1 -> Printf.sprintf "INSERT INTO D VALUES (%d, %d, {(%d, 1), (%d, 2)})" k n s (s + 1)
    | 2 -> Printf.sprintf "UPDATE D SET N = %d WHERE K = %d" n k
    | 3 -> Printf.sprintf "DELETE FROM D WHERE K = %d" k
    | 4 -> Printf.sprintf "INSERT INTO D.SUB WHERE K = %d VALUES (%d, %d)" k s n
    | 5 -> Printf.sprintf "UPDATE D.SUB SET V = %d WHERE K = %d AND S = %d" n k s
    | 6 -> Printf.sprintf "DELETE FROM D.SUB WHERE K = %d AND S = %d" k s
    | 7 -> Printf.sprintf "UPDATE D SET N = %d WHERE EXISTS y IN SUB : y.S = %d" n s
    | _ -> Printf.sprintf "DELETE FROM D WHERE K > %d" (18 + (k / 4))

(* Every object of a table in scan order, or its absence. *)
let render_scan = function
  | None -> "<absent>"
  | Some (st : Nf2_lang.Eval.source_table) ->
      String.concat "\n" (List.map Value.render_tuple (st.Nf2_lang.Eval.scan Nf2_lang.Eval.Current))

(* The newest snapshot holds exactly the live tables: the same objects
   in the same order. *)
let check_snapshot_is_live ?(tables = tables) db what =
  let snap = Db.snapshot db in
  Array.iter
    (fun t ->
      checks (Printf.sprintf "%s: snapshot = live, table %s" what t)
        (render_scan (Db.catalog db t))
        (render_scan ((Db.snapshot_view snap).Db.catalog t)))
    tables;
  Db.release_snapshot db snap

let exists db t = List.mem t (Db.table_names db)

let test_oracle_differential () =
  let db = Db.create ~wal:true () in
  (* the oracle replays every LSN at the end: no version may be GC'd *)
  Db.set_mvcc_retain db max_int;
  create_all db;
  let rng = Prng.create 0x5EED_FACE in
  let commits = 1100 in
  (* model: commit LSN -> (table -> rendered full copy, None while the
     table is dropped); pins: snapshots taken mid-run with the states
     they must keep answering *)
  let model = ref [] in
  let pinned = ref [] in
  let commit what sql =
    ignore (Db.exec db sql);
    check_snapshot_is_live db what;
    let lsn = Db.current_snapshot_lsn db in
    let copies =
      Array.to_list
        (Array.map
           (fun t -> (t, if exists db t then Some (Rel.render (Db.query db (scan_q t))) else None))
           tables)
    in
    model := (lsn, copies) :: !model;
    copies
  in
  let b_altered = ref false in
  let random_stmt rng = random_stmt ~flat:(if !b_altered then [| "A"; "C" |] else flat) rng in
  for i = 1 to commits do
    let what = Printf.sprintf "commit %d" i in
    let copies =
      match i mod 100 with
      | 20 ->
          (* a rolled-back transaction publishes nothing *)
          let before = Db.current_snapshot_lsn db in
          ignore (Db.exec db "BEGIN");
          ignore (Db.exec db (random_stmt rng));
          ignore (Db.exec db (random_stmt rng));
          ignore (Db.exec db "ROLLBACK");
          checki (what ^ ": rollback publishes nothing") before (Db.current_snapshot_lsn db);
          check_snapshot_is_live db (what ^ " (rolled back)");
          commit what (random_stmt rng)
      | 40 -> commit what (Printf.sprintf "BEGIN; %s; %s; COMMIT" (random_stmt rng) (random_stmt rng))
      | 55 ->
          b_altered := not !b_altered;
          commit what (if !b_altered then "ALTER TABLE B ADD X INT" else "ALTER TABLE B DROP X")
      | 70 when i < 300 -> commit what "CREATE INDEX ON A (K)"
      | 70 when i < 600 -> commit what "CREATE INDEX ON C (N)"
      | 85 ->
          ignore (commit what "DROP TABLE C");
          commit (what ^ " (re-create)") "CREATE TABLE C (K INT, N INT)"
      | _ -> commit what (random_stmt rng)
    in
    if i mod 100 = 0 then pinned := (Db.snapshot db, copies) :: !pinned
  done;
  checki "one monotone LSN per commit" (List.length !model)
    (List.length (List.sort_uniq compare (List.map fst !model)));
  (* snapshots pinned mid-run answer exactly their commit's state, long
     after hundreds of later commits *)
  List.iter
    (fun (snap, copies) ->
      List.iter
        (fun (t, expect) ->
          match expect with
          | Some expect ->
              checks (Printf.sprintf "pinned snapshot @ %d, table %s" (Db.snapshot_lsn snap) t)
                expect
                (render_read db snap (scan_q t))
          | None -> ())
        copies;
      Db.release_snapshot db snap)
    !pinned;
  (* every recorded LSN, replayed as ASOF time-travel through one final
     snapshot, is byte-equal to the naive full-copy model (a dropped
     table reads empty) *)
  let snap = Db.snapshot db in
  List.iter
    (fun (lsn, copies) ->
      List.iter
        (fun (t, expect) ->
          let what = Printf.sprintf "ASOF %d, table %s" lsn t in
          match expect with
          | Some expect -> checks what expect (render_read db snap (asof_q t lsn))
          | None -> (
              match Db.exec_read db snap (stmt_of (asof_q t lsn)) with
              | Db.Rows rel -> checki what 0 (Rel.cardinality rel)
              | Db.Msg m -> Alcotest.failf "%s: %s" what m))
        copies)
    !model;
  Db.release_snapshot db snap;
  let s = Db.mvcc_stats db in
  checki "nothing reclaimed under max retain" 0 s.Mvcc.gc_reclaimed;
  checkb "version chains grew" true (s.Mvcc.versions_live > commits)

(* Without a WAL every mutating call publishes on its own, also when it
   fails: a script whose second statement fails leaves its first
   applied, and a statement failing at its third target leaves the
   first two changed — the snapshot must show exactly that state. *)
let test_oracle_unlogged () =
  let db = Db.create () in
  create_all db;
  let rng = Prng.create 0xD15C in
  for i = 1 to 300 do
    let what = Printf.sprintf "statement %d" i in
    (match i mod 50 with
    | 10 -> (
        match
          Db.exec db
            (Printf.sprintf "INSERT INTO A VALUES (%d, 1); UPDATE A SET N = 'x' WHERE K = %d" (100 + i)
               (100 + i))
        with
        | _ -> Alcotest.failf "%s: the script should fail" what
        | exception Db.Db_error _ -> ())
    | 30 -> (
        (* a fresh heap keeps the insertion order, so the update fails
           at K = 3 after changing K = 1 and K = 2 *)
        ignore (Db.exec db "CREATE TABLE F (K INT, N INT)");
        ignore (Db.exec db "INSERT INTO F VALUES (1, 1), (2, 2), (3, 3), (4, 4)");
        (match Db.exec db "UPDATE F SET N = 100 / (K - 3) WHERE K <= 4" with
        | _ -> Alcotest.failf "%s: the update should fail" what
        | exception Nf2_lang.Eval.Eval_error _ -> ());
        check_snapshot_is_live ~tables:[| "F" |] db what;
        checks (what ^ ": partially applied") "-50 -100 3 4"
          (String.concat " "
             (List.map
                (function [ _; Value.Atom (Atom.Int n) ] -> string_of_int n | _ -> "?")
                (List.map (Db.fetch_tuple db ~table:"F") (Db.table_roots db ~table:"F"))));
        ignore (Db.exec db "DROP TABLE F"))
    | _ -> ignore (Db.exec db (random_stmt rng)));
    check_snapshot_is_live db what
  done;
  checkb "the failing script's first statement applied" true
    (Rel.cardinality (Db.query db "SELECT x.K FROM x IN A WHERE x.K > 100") > 0)

(* --- GC: reclamation, pins holding the horizon, the typed error ----------- *)

let test_gc_reclaims_versions () =
  let db = Db.create ~wal:true () in
  ignore (Db.exec db "CREATE TABLE T (K INT, N INT); INSERT INTO T VALUES (1, 0)");
  for i = 1 to 40 do
    ignore (Db.exec db (Printf.sprintf "UPDATE T SET N = %d WHERE K = 1" i))
  done;
  let s = Db.mvcc_stats db in
  (* default retain is 8: the other ~30 versions of T must be gone *)
  checkb "GC reclaimed versions" true (s.Mvcc.gc_reclaimed > 20);
  checkb "chain bounded by retain" true (s.Mvcc.versions_live <= 8 + 1);
  checkb "horizon advanced" true (s.Mvcc.gc_floor > 0)

(* Byte budget: under pressure the effective retain shrinks to 1, but a
   pinned snapshot's versions are untouchable — the budget stays
   exceeded while the pin holds its horizon, and enforcement resumes
   once released. *)
let test_budget_with_pinned_horizon () =
  let db = Db.create ~wal:true () in
  checkb "budget defaults to unbounded" true (Db.mvcc_budget db = None);
  ignore (Db.exec db "CREATE TABLE T (K INT, N INT); INSERT INTO T VALUES (1, 0)");
  for i = 1 to 40 do
    ignore (Db.exec db (Printf.sprintf "UPDATE T SET N = %d WHERE K = 1" i))
  done;
  let before = Db.mvcc_stats db in
  let pin = Db.snapshot db in
  let expect = Rel.render (Db.query db (scan_q "T")) in
  (* a budget below the live footprint triggers an immediate sweep that
     trims the default-retain history the plain GC was keeping *)
  Db.set_mvcc_budget db (Some 1);
  checkb "budget readable" true (Db.mvcc_budget db = Some 1);
  let squeezed = Db.mvcc_stats db in
  checkb "budget sweep reclaimed history" true
    (squeezed.Mvcc.gc_reclaimed > before.Mvcc.gc_reclaimed
    && squeezed.Mvcc.bytes_live < before.Mvcc.bytes_live);
  (* versions newer than the pinned horizon are untouchable: continued
     writes overshoot the budget for as long as the pin is held *)
  for i = 41 to 60 do
    ignore (Db.exec db (Printf.sprintf "UPDATE T SET N = %d WHERE K = 1" i))
  done;
  let grown = Db.mvcc_stats db in
  checkb "budget overshoots while pinned" true (grown.Mvcc.bytes_live > squeezed.Mvcc.bytes_live);
  checks "pinned snapshot readable under budget pressure" expect (render_read db pin (scan_q "T"));
  Db.release_snapshot db pin;
  (* the next publish resumes enforcement past the released horizon *)
  ignore (Db.exec db "UPDATE T SET N = 99 WHERE K = 1");
  let final = Db.mvcc_stats db in
  checkb "released horizon reclaimed" true
    (final.Mvcc.versions_live < grown.Mvcc.versions_live
    && final.Mvcc.bytes_live < grown.Mvcc.bytes_live);
  (* lifting the budget stops eager sweeps *)
  Db.set_mvcc_budget db None;
  checkb "budget lifted" true (Db.mvcc_budget db = None)

let test_snapshot_too_old () =
  let db = Db.create ~wal:true () in
  ignore (Db.exec db "CREATE TABLE T (K INT, N INT); INSERT INTO T VALUES (1, 0)");
  let early = Db.current_snapshot_lsn db in
  for i = 1 to 40 do
    ignore (Db.exec db (Printf.sprintf "UPDATE T SET N = %d WHERE K = 1" i))
  done;
  let snap = Db.snapshot db in
  (* recent LSNs still resolve *)
  checkb "recent ASOF answers" true
    (String.length (render_read db snap (asof_q "T" (Db.snapshot_lsn snap))) > 0);
  (* below the horizon: the typed error, not a silently younger state *)
  (match render_read db snap (asof_q "T" early) with
  | _ -> Alcotest.fail "expected Snapshot_too_old"
  | exception Mvcc.Snapshot_too_old { table; lsn; floor } ->
      checks "table" "T" table;
      checki "lsn echoed" early lsn;
      checkb "floor above the asked LSN" true (floor > early));
  Db.release_snapshot db snap

let test_pin_holds_gc_horizon () =
  let db = Db.create ~wal:true () in
  ignore (Db.exec db "CREATE TABLE T (K INT, N INT); INSERT INTO T VALUES (1, 0)");
  let pin = Db.snapshot db in
  let pin_lsn = Db.snapshot_lsn pin in
  let expect = Rel.render (Db.query db (scan_q "T")) in
  for i = 1 to 40 do
    ignore (Db.exec db (Printf.sprintf "UPDATE T SET N = %d WHERE K = 1" i))
  done;
  (* the pin kept its versions: both the pinned snapshot itself and
     ASOF through a fresh snapshot still answer at pin_lsn *)
  checks "pinned snapshot still answers" expect (render_read db pin (scan_q "T"));
  let fresh = Db.snapshot db in
  checks "ASOF at pinned LSN through fresh snapshot" expect
    (render_read db fresh (asof_q "T" pin_lsn));
  Db.release_snapshot db fresh;
  Db.release_snapshot db pin;
  (* released: more commits may now reclaim past the old pin *)
  for i = 41 to 80 do
    ignore (Db.exec db (Printf.sprintf "UPDATE T SET N = %d WHERE K = 1" i))
  done;
  let snap = Db.snapshot db in
  (match render_read db snap (asof_q "T" pin_lsn) with
  | _ -> Alcotest.fail "expected Snapshot_too_old after release"
  | exception Mvcc.Snapshot_too_old _ -> ());
  Db.release_snapshot db snap

(* --- O(change) point writes ------------------------------------------------

   An UPDATE or DELETE by indexed key, and a subtable INSERT by key, each
   with its commit, reads the subtuples of the objects it changes and
   no others: the planner finds the target through the index, and the
   commit publishes only the touched root.  So the subtuple reads of
   each statement are the same on a table of 1,000 objects and on one
   of 8,000. *)
let subtuple_reads db =
  let s = Nf2_storage.Object_store.stats (Db.table_store db ~table:"ORDERS") in
  s.Nf2_storage.Object_store.md_reads + s.Nf2_storage.Object_store.data_reads

let point_write_reads n =
  (* loaded unlogged (the bulk load is not under test), then every
     measured statement runs as its own logged transaction *)
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE ORDERS (OID INT, CUST TEXT, LINES TABLE (SKU INT, QTY INT))");
  ignore
    (Db.exec db
       ("INSERT INTO ORDERS VALUES "
       ^ String.concat ", "
           (List.init n (fun k -> Printf.sprintf "(%d, 'C%d', {(%d, 1), (%d, 2)})" k k k (k + 1)))));
  ignore (Db.exec db "CREATE INDEX ON ORDERS (OID)");
  Db.attach_wal db;
  List.map
    (fun sql ->
      let before = subtuple_reads db in
      (match Db.exec db sql with
      | [ Db.Msg m ] -> checkb (sql ^ " changed one object") true (String.length m > 0 && m.[0] = '1')
      | _ -> Alcotest.fail sql);
      (sql, subtuple_reads db - before))
    [
      "UPDATE ORDERS SET CUST = 'changed' WHERE OID = 500";
      "DELETE FROM ORDERS WHERE OID = 501";
      "INSERT INTO ORDERS.LINES WHERE OID = 502 VALUES (7, 7)";
    ]

let test_point_writes_are_o_change () =
  let small = point_write_reads 1000 and large = point_write_reads 8000 in
  List.iter2
    (fun (sql, a) (_, b) ->
      checkb (Printf.sprintf "%s reads a few subtuples (%d)" sql a) true (a > 0 && a <= 20);
      checki (sql ^ ": same subtuple reads at 1k and 8k objects") a b)
    small large

(* --- Section 5 date-ASOF through the snapshot path ------------------------ *)

(* The paper's temporal queries must answer identically whether they run
   on the live engine or through a pinned MVCC snapshot: versioned
   tables carry a frozen date-ASOF reader into every published version. *)
let test_section5_through_snapshot () =
  let db = Db.create ~wal:true () in
  ignore
    (Db.exec db
       "CREATE TABLE DEPARTMENTS (DNO INT, MGRNO INT, PROJECTS TABLE (PNO INT, PNAME TEXT), BUDGET INT) WITH VERSIONS");
  ignore
    (Db.exec db "INSERT INTO DEPARTMENTS VALUES (314, 56194, {(17, 'CGA'), (23, 'HEAP')}, 320000)");
  ignore (Db.exec db "UPDATE DEPARTMENTS SET BUDGET = 500000 WHERE DNO = 314 AT DATE '1984-03-01'");
  let queries =
    [
      "SELECT y.PNO, y.PNAME FROM x IN DEPARTMENTS ASOF DATE '1984-01-15', y IN x.PROJECTS WHERE x.DNO = 314";
      "SELECT x.BUDGET FROM x IN DEPARTMENTS ASOF DATE '1984-01-15' WHERE x.DNO = 314";
      "SELECT x.BUDGET FROM x IN DEPARTMENTS ASOF DATE '1984-06-01' WHERE x.DNO = 314";
      "SELECT x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = 314";
    ]
  in
  let snap = Db.snapshot db in
  List.iter
    (fun q ->
      let live = Rel.render (Db.query db q) in
      checks q live (render_read db snap q))
    queries;
  (* and the snapshot stays at its LSN: a later mutation is invisible *)
  let before = render_read db snap "SELECT x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = 314" in
  ignore (Db.exec db "UPDATE DEPARTMENTS SET BUDGET = 1 WHERE DNO = 314 AT DATE '1985-01-01'");
  checks "pinned snapshot unaffected by later commit" before
    (render_read db snap "SELECT x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = 314");
  Db.release_snapshot db snap;
  let fresh = Db.snapshot db in
  checks "fresh snapshot sees the new commit" "1"
    (match Db.exec_read db fresh (stmt_of "SELECT x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = 314") with
    | Db.Rows rel -> (
        match Rel.tuples rel with
        | [ [ Value.Atom (Atom.Int b) ] ] -> string_of_int b
        | _ -> "?")
    | Db.Msg m -> m);
  Db.release_snapshot db fresh

(* Date ASOF on an unversioned table stays an error through the snapshot
   path too, while integer ASOF works on any table. *)
let test_asof_kinds () =
  let db = Db.create ~wal:true () in
  ignore (Db.exec db "CREATE TABLE PLAIN (K INT, N INT); INSERT INTO PLAIN VALUES (1, 10)");
  let lsn = Db.current_snapshot_lsn db in
  ignore (Db.exec db "UPDATE PLAIN SET N = 20 WHERE K = 1");
  let snap = Db.snapshot db in
  checkb "int ASOF on unversioned answers old state" true
    (let s = render_read db snap (asof_q "PLAIN" lsn) in
     let has needle =
       let nh = String.length s and nn = String.length needle in
       let rec go i = i + nn <= nh && (String.sub s i nn = needle || go (i + 1)) in
       go 0
     in
     has "10" && not (has "20"));
  (match render_read db snap "SELECT x.N FROM x IN PLAIN ASOF DATE '1984-01-01'" with
  | _ -> Alcotest.fail "DATE ASOF on an unversioned table should fail"
  | exception Nf2_lang.Eval.Eval_error _ -> ());
  Db.release_snapshot db snap

let () =
  Alcotest.run "mvcc"
    [
      ( "oracle",
        [
          Alcotest.test_case "differential vs full-copy model (1100 commits)" `Quick test_oracle_differential;
          Alcotest.test_case "unlogged, with failing scripts" `Quick test_oracle_unlogged;
        ] );
      ( "gc",
        [
          Alcotest.test_case "reclaims versions" `Quick test_gc_reclaims_versions;
          Alcotest.test_case "byte budget with pinned horizon" `Quick test_budget_with_pinned_horizon;
          Alcotest.test_case "snapshot too old (typed)" `Quick test_snapshot_too_old;
          Alcotest.test_case "pin holds the horizon" `Quick test_pin_holds_gc_horizon;
        ] );
      ( "writes",
        [ Alcotest.test_case "point writes read only what they change" `Quick test_point_writes_are_o_change ] );
      ( "asof",
        [
          Alcotest.test_case "Section 5 through snapshots" `Quick test_section5_through_snapshot;
          Alcotest.test_case "date vs lsn kinds" `Quick test_asof_kinds;
        ] );
    ]
