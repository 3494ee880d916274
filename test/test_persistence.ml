(* Tests for database persistence: save/load round-trips of page
   images, catalog, indexes, versioned tables, and tuple names. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module Rel = Nf2_algebra.Rel
module OS = Nf2_storage.Object_store
module P = Nf2_workload.Paper_data
module Db = Nf2.Db

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

(* --- journaling and crash recovery ------------------------------------- *)

let test_journal_recovery () =
  let dbp = tmpfile "jr_db" and jp = tmpfile "jr_journal" in
  if Sys.file_exists jp then Sys.remove jp;
  if Sys.file_exists dbp then Sys.remove dbp;
  (* session 1: work without ever checkpointing, then "crash" *)
  let db = Db.create () in
  Db.attach_journal db jp;
  ignore (Db.exec db "CREATE TABLE T (A INT, XS TABLE (X INT))");
  ignore (Db.exec db "INSERT INTO T VALUES (1, {(10)}), (2, {})");
  ignore (Db.exec db "UPDATE T SET A = A + 100 WHERE A = 2");
  ignore (Db.exec db "INSERT INTO T.XS WHERE A = 102 VALUES (20)");
  (* crash: drop the handle without saving *)
  Db.detach_journal db;
  (* recovery replays everything from the journal *)
  let db2 = Db.recover ~db_path:dbp ~journal_path:jp () in
  (match rows db2 "SELECT t.A, COUNT(t.XS) AS N FROM t IN T ORDER BY A" with
  | [ [ Value.Atom (Atom.Int 1); Value.Atom (Atom.Int 1) ];
      [ Value.Atom (Atom.Int 102); Value.Atom (Atom.Int 1) ] ] ->
      ()
  | _ -> Alcotest.fail "recovered state");
  (* work continues and is journaled again *)
  ignore (Db.exec db2 "INSERT INTO T VALUES (3, {})");
  Db.detach_journal db2;
  let db3 = Db.recover ~db_path:dbp ~journal_path:jp () in
  checki "three rows after second crash" 3 (List.length (rows db3 "SELECT t.A FROM t IN T"));
  Db.detach_journal db3;
  Sys.remove jp

let test_checkpoint_truncates_journal () =
  let dbp = tmpfile "cp_db" and jp = tmpfile "cp_journal" in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ dbp; jp ];
  let db = Db.create () in
  Db.attach_journal db jp;
  ignore (Db.exec db "CREATE TABLE T (A INT)");
  ignore (Db.exec db "INSERT INTO T VALUES (1), (2)");
  Db.checkpoint db ~db_path:dbp;
  (* post-checkpoint journal only holds later statements *)
  ignore (Db.exec db "INSERT INTO T VALUES (3)");
  Db.detach_journal db;
  checkb "journal small after checkpoint" true
    ((Unix.stat jp).Unix.st_size < 64);
  let db2 = Db.recover ~db_path:dbp ~journal_path:jp () in
  checki "all three rows" 3 (List.length (rows db2 "SELECT t.A FROM t IN T"));
  Db.detach_journal db2;
  List.iter Sys.remove [ dbp; jp ]

let test_recovery_tolerates_torn_tail () =
  let dbp = tmpfile "tt_db" and jp = tmpfile "tt_journal" in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ dbp; jp ];
  let db = Db.create () in
  Db.attach_journal db jp;
  ignore (Db.exec db "CREATE TABLE T (A INT)");
  ignore (Db.exec db "INSERT INTO T VALUES (1)");
  Db.detach_journal db;
  (* simulate a torn write: append garbage *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 jp in
  output_string oc "999\nINSERT INTO T VAL";
  close_out oc;
  let db2 = Db.recover ~db_path:dbp ~journal_path:jp () in
  checki "committed entries survive, torn tail dropped" 1
    (List.length (rows db2 "SELECT t.A FROM t IN T"));
  Db.detach_journal db2;
  Sys.remove jp

let test_queries_not_journaled () =
  let jp = tmpfile "q_journal" in
  if Sys.file_exists jp then Sys.remove jp;
  let db = Nf2.Demo.create () in
  Db.attach_journal db jp;
  ignore (Db.exec db "SELECT x.DNO FROM x IN DEPARTMENTS");
  ignore (Db.exec db "EXPLAIN SELECT x.DNO FROM x IN DEPARTMENTS");
  Db.detach_journal db;
  checkb "journal empty" true ((Unix.stat jp).Unix.st_size = 0);
  Sys.remove jp


(* --- transactions ------------------------------------------------------- *)

let test_txn_rollback () =
  let db = Nf2.Demo.create () in
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (DNO)");
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "DELETE FROM DEPARTMENTS WHERE DNO = 314");
  ignore (Db.exec db "UPDATE DEPARTMENTS SET BUDGET = 1 WHERE DNO = 218");
  ignore (Db.exec db "INSERT INTO DEPARTMENTS.EQUIP WHERE DNO = 417 VALUES (5, 'X')");
  checki "mid-txn state visible" 2 (List.length (rows db "SELECT x.DNO FROM x IN DEPARTMENTS"));
  ignore (Db.exec db "ROLLBACK");
  (* everything restored, including nested contents and index answers *)
  checki "3 departments back" 3 (List.length (rows db "SELECT x.DNO FROM x IN DEPARTMENTS"));
  (match rows db "SELECT x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = 218" with
  | [ [ Value.Atom (Atom.Int 440000) ] ] -> ()
  | _ -> Alcotest.fail "budget restored");
  checki "equip restored" 7
    (List.length (rows db "SELECT e.TYPE FROM x IN DEPARTMENTS, e IN x.EQUIP WHERE x.DNO = 417"));
  let r = rows db "SELECT x.MGRNO FROM x IN DEPARTMENTS WHERE x.DNO = 314" in
  checki "index works after rollback" 1 (List.length r)

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

let test_txn_journal_atomicity () =
  let dbp = tmpfile "txn_db" and jp = tmpfile "txn_journal" in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ dbp; jp ];
  let db = Db.create () in
  Db.attach_journal db jp;
  ignore (Db.exec db "CREATE TABLE T (A INT)");
  (* committed transaction: journaled *)
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "INSERT INTO T VALUES (1)");
  ignore (Db.exec db "COMMIT");
  (* crashed transaction: buffered entries never reach the journal *)
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "INSERT INTO T VALUES (2)");
  (* "crash" before COMMIT *)
  Db.detach_journal db;
  let db2 = Db.recover ~db_path:dbp ~journal_path:jp () in
  (match rows db2 "SELECT t.A FROM t IN T" with
  | [ [ Value.Atom (Atom.Int 1) ] ] -> ()
  | _ -> Alcotest.fail "only the committed insert survives");
  Db.detach_journal db2;
  Sys.remove jp

(* --- physical recovery (WAL; the full matrix lives in test_wal.ml) ------ *)

module D = Nf2_storage.Disk
module FD = Nf2_storage.Faulty_disk

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
      ( "journal",
        [
          Alcotest.test_case "crash recovery" `Quick test_journal_recovery;
          Alcotest.test_case "checkpoint truncates" `Quick test_checkpoint_truncates_journal;
          Alcotest.test_case "torn tail" `Quick test_recovery_tolerates_torn_tail;
          Alcotest.test_case "queries not journaled" `Quick test_queries_not_journaled;
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
          Alcotest.test_case "journal atomicity" `Quick test_txn_journal_atomicity;
          Alcotest.test_case "errors" `Quick test_txn_errors;
        ] );
    ]
