(* Tests for database persistence: save/load round-trips of page
   images, catalog, indexes, versioned tables, and tuple names. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module Rel = Nf2_algebra.Rel
module OS = Nf2_storage.Object_store
module P = Nf2_workload.Paper_data
module Db = Nf2.Db
module D = Nf2_storage.Disk
module FD = Nf2_storage.Faulty_disk

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let tmpfile name = Filename.concat (Filename.get_temp_dir_name ()) ("aimii_test_" ^ name ^ ".db")

let roundtrip name db =
  let path = tmpfile name in
  Db.save db path;
  let db' = Db.load path in
  Sys.remove path;
  db'

let rows db q = Rel.tuples (Db.query db q)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_basic_roundtrip () =
  let db = Nf2.Demo.create () in
  let db' = roundtrip "basic" db in
  (* all tables, all contents *)
  Alcotest.(check (list string)) "table names" (Db.table_names db) (Db.table_names db');
  List.iter
    (fun name ->
      let a = Db.query db (Printf.sprintf "SELECT * FROM %s" name) in
      let b = Db.query db' (Printf.sprintf "SELECT * FROM %s" name) in
      checkb (name ^ " identical") true (Rel.equal a b))
    (Db.table_names db)

let test_tids_survive () =
  let db = Nf2.Demo.create () in
  let roots_before = Db.table_roots db ~table:"DEPARTMENTS" in
  let db' = roundtrip "tids" db in
  let roots_after = Db.table_roots db' ~table:"DEPARTMENTS" in
  checkb "same root TIDs" true (List.equal Nf2_storage.Tid.equal roots_before roots_after);
  (* a tuple fetched by its old TID is intact *)
  checkb "fetch by old TID" true
    (Value.equal_tuple
       (Db.fetch_tuple db ~table:"DEPARTMENTS" (List.hd roots_before))
       (Db.fetch_tuple db' ~table:"DEPARTMENTS" (List.hd roots_before)))

let test_indexes_rebuilt () =
  let db = Nf2.Demo.create () in
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (PROJECTS.MEMBERS.FUNCTION)");
  ignore (Db.exec db "CREATE TEXT INDEX ON REPORTS (TITLE)");
  let db' = roundtrip "indexes" db in
  let r =
    rows db'
      "SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS : EXISTS z IN y.MEMBERS : z.FUNCTION = 'Consultant'"
  in
  checki "index answers after load" 2 (List.length r);
  checkb "index plan used" true
    (match Db.last_plan db' with [ p ] -> String.length p >= 4 && String.sub p 0 4 = "scan" | _ -> false);
  let r = rows db' "SELECT x.REPNO FROM x IN REPORTS WHERE x.TITLE CONTAINS '*onsist*'" in
  checki "text index after load" 1 (List.length r)

let test_versioned_tables_survive () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE D (DNO INT, BUDGET INT) WITH VERSIONS");
  ignore (Db.exec db "INSERT INTO D VALUES (314, 320000)");
  ignore (Db.exec db "UPDATE D SET BUDGET = 500000 WHERE DNO = 314 AT DATE '1984-06-01'");
  ignore (Db.exec db "UPDATE D SET BUDGET = 700000 WHERE DNO = 314 AT DATE '1985-06-01'");
  let db' = roundtrip "versions" db in
  (* current state *)
  (match rows db' "SELECT x.BUDGET FROM x IN D" with
  | [ [ Value.Atom (Atom.Int 700000) ] ] -> ()
  | _ -> Alcotest.fail "current");
  (* full history still foldable *)
  (match rows db' "SELECT x.BUDGET FROM x IN D ASOF DATE '1984-01-15'" with
  | [ [ Value.Atom (Atom.Int 320000) ] ] -> ()
  | _ -> Alcotest.fail "asof old");
  (match rows db' "SELECT x.BUDGET FROM x IN D ASOF DATE '1984-12-01'" with
  | [ [ Value.Atom (Atom.Int 500000) ] ] -> ()
  | _ -> Alcotest.fail "asof mid");
  (* and the clock still enforces monotonicity after load *)
  try
    ignore (Db.exec db' "UPDATE D SET BUDGET = 1 WHERE DNO = 314 AT DATE '1980-01-01'");
    Alcotest.fail "expected monotonicity error"
  with Nf2_temporal.Version_store.Temporal_error _ -> ()

let test_tnames_survive () =
  let db = Nf2.Demo.create () in
  let root = List.hd (Db.table_roots db ~table:"DEPARTMENTS") in
  let token = Db.tname_subobject db ~table:"DEPARTMENTS" root [ OS.Attr "PROJECTS"; OS.Elem 0 ] in
  let before = Db.resolve_tname db token in
  let db' = roundtrip "tnames" db in
  let after = Db.resolve_tname db' token in
  checkb "t-name resolves identically after load" true (Value.equal_v before after);
  (* new tokens do not collide with persisted ones *)
  let fresh = Db.tname_object db' ~table:"DEPARTMENTS" root in
  checkb "fresh token distinct" true (fresh <> token)

let test_mutations_after_load () =
  let db = Nf2.Demo.create () in
  let db' = roundtrip "mutate" db in
  ignore (Db.exec db' "INSERT INTO DEPARTMENTS.EQUIP WHERE DNO = 314 VALUES (9, 'LASER')");
  ignore (Db.exec db' "UPDATE DEPARTMENTS SET BUDGET = 999 WHERE DNO = 417");
  ignore (Db.exec db' "DELETE FROM DEPARTMENTS WHERE DNO = 218");
  checki "two departments left" 2 (List.length (rows db' "SELECT x.DNO FROM x IN DEPARTMENTS"));
  (match rows db' "SELECT e.TYPE FROM x IN DEPARTMENTS, e IN x.EQUIP WHERE x.DNO = 314 AND e.QU = 9" with
  | [ [ Value.Atom (Atom.Str "LASER") ] ] -> ()
  | _ -> Alcotest.fail "post-load insert");
  (* save/load again: second generation *)
  let db'' = roundtrip "mutate2" db' in
  checki "second generation" 2 (List.length (rows db'' "SELECT x.DNO FROM x IN DEPARTMENTS"))

let test_malformed_file_rejected () =
  let path = tmpfile "garbage" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "NOT A DATABASE");
  (try
     ignore (Db.load path);
     Alcotest.fail "expected Db_error"
   with Db.Db_error _ -> ());
  Sys.remove path

(* The physical header's third byte once flagged page compression.
   Images and catalog payloads are written with it off — the format
   older builds wrote with compression off, so those still load — and
   one with it on is refused, not misread. *)
let test_compression_flag_refused () =
  let db = Nf2.Demo.create () in
  let path = tmpfile "compressed" in
  Db.save db path;
  let image = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  (* magic (8 bytes), page size 4096 (2-byte uvarint), layout, clustering *)
  let flag = 8 + 2 + 2 in
  checkb "written with the flag off" true (Bytes.get image flag = '\000');
  Bytes.set image flag '\001';
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc image);
  (try
     ignore (Db.load path);
     Alcotest.fail "image with page compression loaded"
   with Db.Db_error _ -> ());
  Sys.remove path;
  let wdb = Db.create ~wal:true () in
  ignore (Db.exec wdb "CREATE TABLE T (A INT)");
  ignore (Db.exec wdb "INSERT INTO T VALUES (1)");
  let payload =
    match (Nf2_storage.Recovery.replay (Db.crash_image wdb)).Nf2_storage.Recovery.catalog with
    | Some p -> Bytes.of_string p
    | None -> Alcotest.fail "no catalog payload in the log"
  in
  Db.replicate_catalog wdb (Bytes.to_string payload);
  Bytes.set payload 2 '\001';
  try
    Db.replicate_catalog wdb (Bytes.to_string payload);
    Alcotest.fail "catalog payload with page compression applied"
  with Db.Db_error _ -> ()

(* --- log file: crash-durable image + WAL files ----------------------------

   [Db.open_files] keeps the last checkpoint's image in one file and the
   WAL's durable bytes since then in another.  A "crash" below drops the
   handle without closing or checkpointing anything: what the files
   hold is all the next open sees, exactly as after [kill -9]. *)

module Wal = Nf2_storage.Wal

let fresh_files name =
  let image = tmpfile (name ^ "_img") and log = tmpfile (name ^ "_log") in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ image; log; image ^ ".tmp" ];
  (image, log)

let remove_files (image, log) =
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ image; log; image ^ ".tmp" ]

let open_files (image, log) = Db.open_files ~image ~log ()
let count db q = List.length (rows db q)
let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path data = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)
let wal_of db = Option.get (Db.wal db)

let test_log_crash_recovery () =
  let files = fresh_files "lf_crash" in
  let db = open_files files in
  ignore (Db.exec db "CREATE TABLE T (A INT, XS TABLE (X INT))");
  ignore (Db.exec db "INSERT INTO T VALUES (1, {(10)}), (2, {})");
  ignore (Db.exec db "UPDATE T SET A = A + 100 WHERE A = 2");
  ignore (Db.exec db "INSERT INTO T.XS WHERE A = 102 VALUES (20)");
  (* crash 1: nothing was ever checkpointed after the open *)
  let db2 = open_files files in
  (match rows db2 "SELECT t.A, COUNT(t.XS) AS N FROM t IN T ORDER BY A" with
  | [ [ Value.Atom (Atom.Int 1); Value.Atom (Atom.Int 1) ];
      [ Value.Atom (Atom.Int 102); Value.Atom (Atom.Int 1) ] ] ->
      ()
  | _ -> Alcotest.fail "recovered state");
  (* work continues and reaches the restarted log; crash 2 *)
  ignore (Db.exec db2 "INSERT INTO T VALUES (3, {})");
  let db3 = open_files files in
  checki "three rows after second crash" 3 (count db3 "SELECT t.A FROM t IN T");
  remove_files files

let test_log_checkpoint_restarts () =
  let ((_, log) as files) = fresh_files "lf_ckpt" in
  let db = open_files files in
  ignore (Db.exec db "CREATE TABLE T (A INT)");
  ignore (Db.exec db "INSERT INTO T VALUES (1), (2)");
  checkb "log holds the commits" true ((Unix.stat log).Unix.st_size > 1000);
  ignore (Db.wal_checkpoint db);
  checkb "log restarted by the checkpoint" true ((Unix.stat log).Unix.st_size < 64);
  ignore (Db.exec db "INSERT INTO T VALUES (3)");
  let db2 = open_files files in
  checki "all three rows" 3 (count db2 "SELECT t.A FROM t IN T");
  remove_files files

let test_log_torn_tail () =
  let ((_, log) as files) = fresh_files "lf_torn" in
  let db = open_files files in
  ignore (Db.exec db "CREATE TABLE T (A INT)");
  ignore (Db.exec db "INSERT INTO T VALUES (1)");
  ignore (Db.exec db "INSERT INTO T VALUES (2)");
  (* the last fsync tore: its commit record lost its final bytes *)
  let data = read_file log in
  write_file log (String.sub data 0 (String.length data - 3));
  let db2 = open_files files in
  checki "committed prefix survives, torn commit dropped" 1 (count db2 "SELECT t.A FROM t IN T");
  remove_files files

let test_log_queries_append_nothing () =
  let ((_, log) as files) = fresh_files "lf_query" in
  let db = open_files files in
  Nf2.Demo.load db;
  let size () = (Unix.stat log).Unix.st_size in
  let before = size () in
  ignore (Db.exec db "SELECT x.DNO FROM x IN DEPARTMENTS");
  ignore (Db.exec db "EXPLAIN SELECT x.DNO FROM x IN DEPARTMENTS");
  checki "no log bytes for reads" before (size ());
  remove_files files

let test_log_txn_atomicity () =
  let files = fresh_files "lf_txn" in
  let db = open_files files in
  ignore (Db.exec db "CREATE TABLE T (A INT)");
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "INSERT INTO T VALUES (1)");
  ignore (Db.exec db "COMMIT");
  (* crash with a transaction still open *)
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "INSERT INTO T VALUES (2)");
  ignore (Db.exec db "INSERT INTO T VALUES (3)");
  let db2 = open_files files in
  (match rows db2 "SELECT t.A FROM t IN T" with
  | [ [ Value.Atom (Atom.Int 1) ] ] -> ()
  | _ -> Alcotest.fail "only the committed insert survives");
  remove_files files

(* The file is a byte-exact mirror of the WAL's durable prefix since the
   last restart (the open and every checkpoint restart it). *)
let test_log_mirrors_durable_prefix () =
  let ((_, log) as files) = fresh_files "lf_mirror" in
  let db = open_files files in
  let w = wal_of db in
  let base = ref (String.length (Wal.durable_contents w)) in
  let check what =
    let d = Wal.durable_contents w in
    Alcotest.(check (option string))
      what
      (Some (String.sub d !base (String.length d - !base)))
      (Wal.file_records log)
  in
  check "after open";
  List.iter
    (fun stmt ->
      ignore (Db.exec db stmt);
      check stmt)
    [
      "CREATE TABLE T (A INT, XS TABLE (X INT))";
      "INSERT INTO T VALUES (1, {(10), (11)})";
      "UPDATE T SET A = 2 WHERE A = 1";
    ];
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "INSERT INTO T VALUES (3, {})");
  ignore (Db.exec db "COMMIT");
  check "after COMMIT";
  ignore (Db.wal_checkpoint db);
  base := String.length (Wal.durable_contents w);
  check "after checkpoint";
  ignore (Db.exec db "DELETE FROM T WHERE A = 3");
  check "after a commit past the checkpoint";
  remove_files files

(* A torn log fsync tears the file the same way it tears the durable
   prefix; the torn commit is dropped on the next open. *)
let test_log_torn_fsync () =
  let ((_, log) as files) = fresh_files "lf_tornsync" in
  let db = open_files files in
  let w = wal_of db in
  let base = String.length (Wal.durable_contents w) in
  ignore (Db.exec db "CREATE TABLE T (A INT)");
  ignore (Db.exec db "INSERT INTO T VALUES (1)");
  let fd = FD.arm ~wal:w (Db.disk db) (FD.Torn_sync 1) in
  (try
     ignore (Db.exec db "INSERT INTO T VALUES (2)");
     Alcotest.fail "expected simulated crash"
   with D.Crash _ -> ());
  checkb "the torn fsync fired" true (FD.fired fd);
  let d = Wal.durable_contents w in
  Alcotest.(check (option string))
    "file = torn durable prefix"
    (Some (String.sub d base (String.length d - base)))
    (Wal.file_records log);
  checki "only the first insert survives" 1 (count (open_files files) "SELECT t.A FROM t IN T");
  remove_files files

let test_log_old_journal_refused () =
  let ((_, log) as files) = fresh_files "lf_journal" in
  (* a statement journal as older builds wrote it *)
  let journal = "22\nCREATE TABLE T (A INT)\n" in
  write_file log journal;
  (try
     ignore (open_files files);
     Alcotest.fail "statement journal opened as a log"
   with Db.Db_error _ -> ());
  Alcotest.(check string) "the journal is left as it was" journal (read_file log);
  remove_files files

(* The two-bug regression: a script whose second statement fails.  The
   live session and the one recovered after a crash agree. *)
let test_log_failed_script () =
  let files = fresh_files "lf_failed" in
  let db = open_files files in
  ignore (Db.exec db "CREATE TABLE T (A INT)");
  (try
     ignore (Db.exec db "INSERT INTO T VALUES (1); INSERT INTO NOPE VALUES (2)");
     Alcotest.fail "script with a missing table ran"
   with Db.Db_error _ -> ());
  let live = count db "SELECT t.A FROM t IN T" in
  let db2 = open_files files in
  checki "live and recovered row counts agree" live (count db2 "SELECT t.A FROM t IN T");
  checki "the failed script applied nothing" 0 live;
  remove_files files

let test_log_stale_tmp_ignored () =
  let ((image, _) as files) = fresh_files "lf_tmp" in
  let db = open_files files in
  ignore (Db.exec db "CREATE TABLE T (A INT)");
  ignore (Db.exec db "INSERT INTO T VALUES (1), (2)");
  ignore (Db.wal_checkpoint db);
  (* a crash mid-save left a half-written temp image behind *)
  write_file (image ^ ".tmp") "AIMII001 half an ima";
  checki "the image loads" 2 (count (Db.load image) "SELECT t.A FROM t IN T");
  let db2 = open_files files in
  checki "the open ignores the temp file" 2 (count db2 "SELECT t.A FROM t IN T");
  checkb "the next save replaced it" false (Sys.file_exists (image ^ ".tmp"));
  remove_files files

(* A crash after the checkpoint's rename but before the log restart:
   the new image sits next to the old log.  The old log's redo is
   byte-exact and idempotent over the newer image, with or without the
   checkpoint record that follows the rename. *)
let test_log_crash_before_restart () =
  let ((_, log) as files) = fresh_files "lf_rename" in
  let db = open_files files in
  ignore (Db.exec db "CREATE TABLE T (A INT, XS TABLE (X INT))");
  ignore (Db.exec db "INSERT INTO T VALUES (1, {(10)}), (2, {(20), (21)})");
  ignore (Db.exec db "UPDATE T SET A = 12 WHERE A = 2");
  ignore (Db.exec db "DELETE FROM T WHERE A = 1");
  let old_log = read_file log in
  let w = wal_of db in
  let d0 = String.length (Wal.durable_contents w) in
  ignore (Db.wal_checkpoint db);
  let d = Wal.durable_contents w in
  let ckpt_record = String.sub d d0 (String.length d - d0) in
  let pages = D.export_pages (Db.disk db) in
  let state = Rel.render (Db.query db "SELECT t.A, t.XS FROM t IN T") in
  List.iter
    (fun (what, log_bytes) ->
      write_file log log_bytes;
      let db2 = open_files files in
      Alcotest.(check string) (what ^ ": checkpointed state") state
        (Rel.render (Db.query db2 "SELECT t.A, t.XS FROM t IN T"));
      checkb (what ^ ": pages byte-identical") true (D.export_pages (Db.disk db2) = pages))
    [ ("before the checkpoint record", old_log); ("after it", old_log ^ ckpt_record) ];
  (* the checkpoint an open takes, over a log that ends in a loser *)
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "INSERT INTO T VALUES (3, {(30)})");
  let old_log = read_file log in
  let db2 = open_files files in
  let pages = D.export_pages (Db.disk db2) in
  write_file log old_log;
  let db3 = open_files files in
  Alcotest.(check string) "after the open: checkpointed state" state
    (Rel.render (Db.query db3 "SELECT t.A, t.XS FROM t IN T"));
  checkb "after the open: pages byte-identical" true (D.export_pages (Db.disk db3) = pages);
  remove_files files

(* --- transactions ------------------------------------------------------- *)

let test_txn_rollback () =
  let db = Nf2.Demo.create () in
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (DNO)");
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "DELETE FROM DEPARTMENTS WHERE DNO = 314");
  ignore (Db.exec db "UPDATE DEPARTMENTS SET BUDGET = 1 WHERE DNO = 218");
  ignore (Db.exec db "INSERT INTO DEPARTMENTS.EQUIP WHERE DNO = 417 VALUES (5, 'X')");
  ignore (Db.exec db "CREATE TABLE TMP (A INT, XS TABLE (X INT))");
  ignore (Db.exec db "INSERT INTO TMP VALUES (1, {(2)})");
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (BUDGET)");
  checki "mid-txn state visible" 2 (List.length (rows db "SELECT x.DNO FROM x IN DEPARTMENTS"));
  checki "mid-txn table visible" 1 (List.length (rows db "SELECT t.A FROM t IN TMP"));
  ignore (Db.exec db "ROLLBACK");
  checkb "table created in the txn is gone" false (List.mem "TMP" (Db.table_names db));
  ignore (rows db "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET = 440000");
  checkb "index created in the txn is gone" false
    (List.exists (fun p -> contains p "BUDGET") (Db.last_plan db));
  (* everything restored, including nested contents and index answers *)
  checki "3 departments back" 3 (List.length (rows db "SELECT x.DNO FROM x IN DEPARTMENTS"));
  (match rows db "SELECT x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = 218" with
  | [ [ Value.Atom (Atom.Int 440000) ] ] -> ()
  | _ -> Alcotest.fail "budget restored");
  checki "equip restored" 7
    (List.length (rows db "SELECT e.TYPE FROM x IN DEPARTMENTS, e IN x.EQUIP WHERE x.DNO = 417"));
  let r = rows db "SELECT x.MGRNO FROM x IN DEPARTMENTS WHERE x.DNO = 314" in
  checki "index works after rollback" 1 (List.length r)

(* ROLLBACK keeps the database's own buffer pool: a scan in a 4-frame
   pool evicts as much after the rollback as before it. *)
let test_txn_rollback_keeps_pool () =
  let db = Db.create ~frames:4 () in
  ignore (Db.exec db "CREATE TABLE T (A INT, XS TABLE (X INT))");
  for i = 1 to 200 do
    ignore (Db.exec db (Printf.sprintf "INSERT INTO T VALUES (%d, {(%d), (%d)})" i i (i + 1)))
  done;
  let scan_evictions () =
    let q = "SELECT t.A, x.X FROM t IN T, x IN t.XS" in
    ignore (rows db q);
    let before = (Nf2_storage.Buffer_pool.stats (Db.pool db)).Nf2_storage.Buffer_pool.evictions in
    ignore (rows db q);
    (Nf2_storage.Buffer_pool.stats (Db.pool db)).Nf2_storage.Buffer_pool.evictions - before
  in
  let before = scan_evictions () in
  checkb "the scan evicts in a 4-frame pool" true (before > 0);
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "DELETE FROM T WHERE A = 7");
  ignore (Db.exec db "ROLLBACK");
  checki "same evictions after the rollback" before (scan_evictions ())

let test_txn_attaches_wal () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE T (A INT)");
  ignore (Db.exec db "INSERT INTO T VALUES (1)");
  checkb "autocommit work stays unlogged" true (Db.wal db = None);
  ignore (Db.exec db "BEGIN");
  checkb "BEGIN attached the log" true (Db.wal db <> None);
  ignore (Db.exec db "INSERT INTO T VALUES (2)");
  ignore (Db.exec db "ROLLBACK");
  checki "rolled back through the log" 1 (List.length (rows db "SELECT t.A FROM t IN T"));
  (* a script may open and close its own transaction, also once logged *)
  ignore (Db.exec db "BEGIN; INSERT INTO T VALUES (3); COMMIT; INSERT INTO T VALUES (4)");
  ignore (Db.exec db "BEGIN; INSERT INTO T VALUES (5); ROLLBACK");
  checki "script-level transactions" 3 (List.length (rows db "SELECT t.A FROM t IN T"))

let test_txn_commit () =
  let db = Nf2.Demo.create () in
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "DELETE FROM DEPARTMENTS WHERE DNO = 314");
  ignore (Db.exec db "COMMIT");
  checki "delete persisted" 2 (List.length (rows db "SELECT x.DNO FROM x IN DEPARTMENTS"));
  (* after COMMIT a new transaction can start *)
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "DELETE FROM DEPARTMENTS WHERE DNO = 218");
  ignore (Db.exec db "ROLLBACK");
  checki "second txn rolled back" 2 (List.length (rows db "SELECT x.DNO FROM x IN DEPARTMENTS"))

(* --- physical recovery (WAL; the full matrix lives in test_wal.ml) ------ *)

(* A torn page write — half old image, half new — round-trips through
   crash recovery: the log's images heal the page. *)
let test_torn_page_roundtrip () =
  let db = Db.create ~page_size:256 ~wal:true () in
  ignore (Db.exec db "CREATE TABLE T (A INT, XS TABLE (X INT))");
  ignore (Db.exec db "INSERT INTO T VALUES (1, {(10)}), (2, {(20), (21)})");
  ignore (Db.wal_checkpoint db);
  ignore (Db.exec db "UPDATE T SET A = A + 100 WHERE A = 2");
  (* the flush of the updated page tears half-way through *)
  let fd = FD.arm ~wal:(Option.get (Db.wal db)) (Db.disk db) (FD.Torn_write 1) in
  (try
     Nf2_storage.Buffer_pool.flush_all (Db.pool db);
     Alcotest.fail "expected simulated crash"
   with D.Crash _ -> ());
  FD.disarm fd;
  checkb "the torn write fired" true (FD.fired fd);
  let db2 = Db.recover_from_image (Db.crash_image db) in
  (* the committed update survives despite the torn data page *)
  (match rows db2 "SELECT t.A FROM t IN T ORDER BY A" with
  | [ [ Value.Atom (Atom.Int 1) ]; [ Value.Atom (Atom.Int 102) ] ] -> ()
  | _ -> Alcotest.fail "torn page not healed");
  checki "nested contents intact" 2
    (List.length (rows db2 "SELECT x.X FROM t IN T, x IN t.XS WHERE t.A = 102"))

(* Work, sharp checkpoint, more work, crash: recovery replays from the
   checkpoint and keeps everything committed on both sides of it. *)
let test_wal_checkpoint_then_crash () =
  let db = Db.create ~page_size:256 ~frames:8 ~wal:true () in
  ignore (Db.exec db "CREATE TABLE T (A INT, XS TABLE (X INT))");
  ignore (Db.exec db "INSERT INTO T VALUES (1, {(10)}), (2, {})");
  ignore (Db.wal_checkpoint db);
  ignore (Db.exec db "INSERT INTO T VALUES (3, {(30), (31)})");
  ignore (Db.exec db "UPDATE T SET A = 200 WHERE A = 2");
  (* machine dies with the post-checkpoint work only in log + frames *)
  let db2 = Db.recover_from_image (Db.crash_image db) in
  (match rows db2 "SELECT t.A FROM t IN T ORDER BY A" with
  | [ [ Value.Atom (Atom.Int 1) ]; [ Value.Atom (Atom.Int 3) ]; [ Value.Atom (Atom.Int 200) ] ] -> ()
  | _ -> Alcotest.fail "post-checkpoint commits lost");
  (* recovery must have started from the checkpoint, not the log head *)
  let img = Db.crash_image db in
  let o = Nf2_storage.Recovery.replay img in
  checkb "replay window starts at the checkpoint" true
    (List.length o.Nf2_storage.Recovery.committed <= 2)

let test_txn_errors () =
  let db = Db.create () in
  (try
     ignore (Db.exec db "COMMIT");
     Alcotest.fail "commit w/o begin"
   with Db.Db_error _ -> ());
  (try
     ignore (Db.exec db "ROLLBACK");
     Alcotest.fail "rollback w/o begin"
   with Db.Db_error _ -> ());
  ignore (Db.exec db "BEGIN");
  try
    ignore (Db.exec db "BEGIN");
    Alcotest.fail "nested begin"
  with Db.Db_error _ -> ()

let () =
  Alcotest.run "persistence"
    [
      ( "save/load",
        [
          Alcotest.test_case "basic roundtrip" `Quick test_basic_roundtrip;
          Alcotest.test_case "TIDs survive" `Quick test_tids_survive;
          Alcotest.test_case "indexes rebuilt" `Quick test_indexes_rebuilt;
          Alcotest.test_case "versioned tables" `Quick test_versioned_tables_survive;
          Alcotest.test_case "tuple names" `Quick test_tnames_survive;
          Alcotest.test_case "mutations after load" `Quick test_mutations_after_load;
          Alcotest.test_case "malformed file" `Quick test_malformed_file_rejected;
          Alcotest.test_case "compression flag refused" `Quick test_compression_flag_refused;
        ] );
      ( "log file",
        [
          Alcotest.test_case "crash recovery" `Quick test_log_crash_recovery;
          Alcotest.test_case "checkpoint restarts the log" `Quick test_log_checkpoint_restarts;
          Alcotest.test_case "torn tail" `Quick test_log_torn_tail;
          Alcotest.test_case "queries append no bytes" `Quick test_log_queries_append_nothing;
          Alcotest.test_case "txn atomicity" `Quick test_log_txn_atomicity;
          Alcotest.test_case "mirrors the durable prefix" `Quick test_log_mirrors_durable_prefix;
          Alcotest.test_case "torn fsync tears the file" `Quick test_log_torn_fsync;
          Alcotest.test_case "old journal refused" `Quick test_log_old_journal_refused;
          Alcotest.test_case "failed script recovers alike" `Quick test_log_failed_script;
          Alcotest.test_case "stale temp image ignored" `Quick test_log_stale_tmp_ignored;
          Alcotest.test_case "crash before the log restart" `Quick test_log_crash_before_restart;
        ] );
      ( "wal",
        [
          Alcotest.test_case "torn page roundtrip" `Quick test_torn_page_roundtrip;
          Alcotest.test_case "checkpoint then crash" `Quick test_wal_checkpoint_then_crash;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "rollback" `Quick test_txn_rollback;
          Alcotest.test_case "commit" `Quick test_txn_commit;
          Alcotest.test_case "rollback keeps the pool" `Quick test_txn_rollback_keeps_pool;
          Alcotest.test_case "BEGIN attaches the log" `Quick test_txn_attaches_wal;
          Alcotest.test_case "errors" `Quick test_txn_errors;
        ] );
    ]
