(* Replication-tier tests: WAL log shipping from a primary server to
   read-only replicas.

   Covered here: catch-up from an empty replica and from an arbitrary
   LSN after an applier restart, identical nested NF² query results on
   both sides of the stream, the read-only SQLSTATE on replicas,
   link-fault injection (sever at the k-th batch) with reconnect
   convergence, a replica process crash mid-apply recovering from its
   own local checkpoint, and promotion of a replica to a standalone
   primary — including undo of a transaction the dead primary never
   resolved, and onward log shipping from the promoted node. *)

module P = Nf2_server.Protocol
module Client = Nf2_server.Client
module Server = Nf2_server.Server
module Repl = Nf2_repl.Repl
module Db = Nf2.Db
module Wal = Nf2_storage.Wal
module Rel = Nf2_algebra.Rel

let checkb msg expected actual = Alcotest.(check bool) msg expected actual
let checki msg expected actual = Alcotest.(check int) msg expected actual

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- helpers ------------------------------------------------------------- *)

let config =
  {
    Server.default_config with
    Server.port = 0;
    lock_timeout = 5.0;
    group_window = 0.001;
    idle_timeout = 0.;
  }

(* A primary server with log shipping attached, torn down afterwards. *)
let with_primary ?db (f : Server.t -> Repl.Primary.t -> 'a) : 'a =
  let db = match db with Some db -> db | None -> Db.create ~wal:true () in
  let srv = Server.start ~db config in
  let p = Repl.attach srv in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv p)

let conn (srv : Server.t) = Client.connect ~host:"127.0.0.1" ~port:(Server.port srv)

let expect_ok c sql =
  match Client.request c (P.Query sql) with
  | Some (P.Error { code; message }) ->
      Alcotest.fail (Printf.sprintf "%s -> %s %s" sql code message)
  | Some r -> r
  | None -> Alcotest.fail ("server hung up on: " ^ sql)

let rows c sql =
  match expect_ok c sql with
  | P.Result_table { rows; _ } -> rows
  | _ -> Alcotest.fail ("expected rows from: " ^ sql)

let primary_durable (srv : Server.t) = Wal.durable_lsn (Option.get (Db.wal (Server.db srv)))

(* Block until the replica has applied everything the primary has made
   durable so far. *)
let catch_up ?(timeout = 10.) rep srv =
  checkb "replica caught up" true (Repl.Replica.wait_applied ~timeout rep (primary_durable srv))

(* Same logical state, compared table by table (cf. test_wal). *)
let same_state msg (a : Db.t) (b : Db.t) =
  Alcotest.(check (list string)) (msg ^ ": table names") (Db.table_names a) (Db.table_names b);
  List.iter
    (fun name ->
      let q = Printf.sprintf "SELECT * FROM %s" name in
      checkb (Printf.sprintf "%s: %s identical" msg name) true
        (Rel.equal (Db.query a q) (Db.query b q)))
    (Db.table_names a)

(* The paper's nested shape: departments with an EQUIP subtable,
   touched by table- and subtable-level DML. *)
let nested_fixture c =
  ignore
    (expect_ok c
       "CREATE TABLE DEPT (DNO INT, NAME TEXT, BUDGET INT, EQUIP TABLE (QU INT, KIND TEXT))");
  ignore
    (expect_ok c
       "INSERT INTO DEPT VALUES (1, 'Tooling', 100, {(1, 'DRILL'), (2, 'LATHE')}), (2, \
        'Assembly', 200, {(3, 'ROBOT')})");
  ignore (expect_ok c "INSERT INTO DEPT VALUES (3, 'Paint', 300, {(4, 'SPRAY'), (5, 'OVEN')})");
  ignore (expect_ok c "UPDATE DEPT SET BUDGET = BUDGET + 50 WHERE DNO = 2");
  ignore (expect_ok c "INSERT INTO DEPT.EQUIP WHERE DNO = 1 VALUES (7, 'PRESS')")

let nested_q = "SELECT x.DNO, x.NAME, x.BUDGET, x.EQUIP FROM x IN DEPT"

(* --- catch-up from empty, read-only serving ------------------------------ *)

let test_catch_up_and_read_only () =
  with_primary (fun srv p ->
      let c = conn srv in
      nested_fixture c;
      let rep = Repl.Replica.create () in
      let rsrv = Repl.Replica.serve rep config in
      Fun.protect
        ~finally:(fun () ->
          Repl.Replica.stop rep;
          Server.stop rsrv)
        (fun () ->
          Repl.Replica.start rep ~host:"127.0.0.1" ~port:(Server.port srv);
          catch_up rep srv;
          (* identical nested rows over the wire, replica vs primary *)
          let rc = conn rsrv in
          Alcotest.(check (list (list string)))
            "nested select identical" (rows c nested_q) (rows rc nested_q);
          (* mutations and explicit transactions refused with 25006 *)
          (match Client.request rc (P.Query "INSERT INTO DEPT VALUES (9, 'X', 9, {})") with
          | Some (P.Error { code; _ }) ->
              Alcotest.(check string) "insert refused" P.err_read_only code
          | _ -> Alcotest.fail "replica accepted a write");
          (match Client.request rc P.Begin with
          | Some (P.Error { code; _ }) ->
              Alcotest.(check string) "begin refused" P.err_read_only code
          | _ -> Alcotest.fail "replica accepted BEGIN");
          (* replication gauges on both ends of the stream *)
          (match Client.request rc P.Metrics_prom with
          | Some (P.Metrics_text s) ->
              checkb "replica exports its applied LSN" true (contains s "aimii_repl_applied_lsn");
              checkb "replica exports its lag" true (contains s "aimii_repl_lag_records")
          | _ -> Alcotest.fail "expected replica metrics");
          (match Client.request c P.Metrics_prom with
          | Some (P.Metrics_text s) ->
              checkb "primary exports connected replicas" true
                (contains s "aimii_repl_replicas_connected")
          | _ -> Alcotest.fail "expected primary metrics");
          (* primary-side lag accounting converges to zero *)
          let target = primary_durable srv in
          let rec settled n =
            match Repl.Primary.replicas p with
            | [ st ] when st.Repl.Primary.applied_lsn >= target || n = 0 -> st
            | [ _ ] ->
                Thread.delay 0.01;
                settled (n - 1)
            | l -> Alcotest.fail (Printf.sprintf "expected one link, got %d" (List.length l))
          in
          let st = settled 200 in
          checkb "link connected" true st.Repl.Primary.connected;
          checki "acked applied LSN caught up" target st.Repl.Primary.applied_lsn;
          checkb "batches shipped" true (st.Repl.Primary.batches >= 1);
          (* the same link state is queryable as an NF² relation over
             the wire, ack/lag nested per link (SYS_REPLICATION) *)
          (match
             rows c
               "SELECT r.RID, r.CONNECTED, g.APPLIED_LSN, g.LAG FROM r IN SYS_REPLICATION, g \
                IN r.PROGRESS"
           with
          | [ [ _; connected; applied; lag ] ] ->
              Alcotest.(check string) "SYS link connected" "TRUE" connected;
              checki "SYS applied LSN caught up" target (int_of_string applied);
              checki "SYS lag zero" 0 (int_of_string lag)
          | l -> Alcotest.fail (Printf.sprintf "expected one SYS_REPLICATION row, got %d" (List.length l)));
          (* a replication frame outside its stream is a protocol error *)
          (match Client.request c (P.Repl_ack { applied_lsn = 0 }) with
          | Some (P.Error { code; _ }) ->
              Alcotest.(check string) "stray ack refused" P.err_protocol code
          | _ -> Alcotest.fail "expected protocol error for stray Repl_ack");
          (* a handshake beyond the durable LSN is refused outright *)
          let c2 = conn srv in
          (match Client.request c2 (P.Repl_handshake { start_lsn = 1_000_000 }) with
          | Some (P.Error { code; _ }) ->
              Alcotest.(check string) "future handshake refused" P.err_protocol code
          | _ -> Alcotest.fail "expected refusal of a future handshake");
          Client.close c2;
          Client.close rc;
          Client.close c))

(* --- catch-up from an arbitrary LSN after a restart ---------------------- *)

let test_catch_up_after_restart () =
  with_primary (fun srv p ->
      let c = conn srv in
      nested_fixture c;
      let rep = Repl.Replica.create () in
      Repl.Replica.start rep ~host:"127.0.0.1" ~port:(Server.port srv);
      catch_up rep srv;
      Repl.Replica.stop rep;
      let mid = Repl.Replica.applied_lsn rep in
      checkb "applied a prefix" true (mid > 0);
      (* the primary moves on while the replica is down *)
      ignore (expect_ok c "INSERT INTO DEPT VALUES (5, 'Quality', 400, {(9, 'GAUGE')})");
      ignore (expect_ok c "DELETE FROM DEPT.EQUIP WHERE QU = 5");
      ignore (expect_ok c "UPDATE DEPT SET NAME = 'Refit' WHERE DNO = 3");
      (* restart: the handshake resumes from the old applied LSN *)
      Repl.Replica.start rep ~host:"127.0.0.1" ~port:(Server.port srv);
      catch_up rep srv;
      checkb "applied advanced past the restart point" true (Repl.Replica.applied_lsn rep > mid);
      same_state "after restart catch-up" (Server.db srv) (Repl.Replica.db rep);
      checki "both links accounted for" 2 (List.length (Repl.Primary.replicas p));
      Repl.Replica.stop rep;
      Client.close c)

(* --- link-fault matrix ---------------------------------------------------- *)

(* Heartbeats keep the batch counter moving, so a link fault armed on
   the k-th send arrives even on an idle link; wait up to 10 s for it. *)
let wait_fault p =
  let rec go n =
    if Repl.Primary.faults_fired p >= 1 || n = 0 then ()
    else begin
      Thread.delay 0.02;
      go (n - 1)
    end
  in
  go 500

let test_link_fault_matrix () =
  (* sever the stream at exactly the k-th batch send: for every cut
     point the replica must reconnect, resume from its applied LSN, and
     converge without diverging from the primary *)
  for k = 1 to 5 do
    with_primary (fun srv p ->
        let c = conn srv in
        nested_fixture c;
        Repl.Primary.set_link_fault p (Some (Repl.Drop_at k));
        let rep = Repl.Replica.create () in
        Repl.Replica.start ~retry:0.01 rep ~host:"127.0.0.1" ~port:(Server.port srv);
        catch_up rep srv;
        wait_fault p;
        checki (Printf.sprintf "fault at batch %d fired once" k) 1 (Repl.Primary.faults_fired p);
        (* the stream still moves after the cut *)
        ignore
          (expect_ok c (Printf.sprintf "INSERT INTO DEPT VALUES (%d, 'After', %d, {})" (10 + k) k));
        catch_up rep srv;
        checkb "replica reconnected" true (Repl.Replica.reconnects rep >= 1);
        same_state (Printf.sprintf "drop at batch %d" k) (Server.db srv) (Repl.Replica.db rep);
        Repl.Replica.stop rep;
        Client.close c)
  done;
  (* a recurring fault: every 3rd batch send dies mid-stream, yet the
     replica converges through reconnects *)
  with_primary (fun srv p ->
      let c = conn srv in
      ignore (expect_ok c "CREATE TABLE T (K INT, V INT)");
      Repl.Primary.set_link_fault p (Some (Repl.Drop_every 3));
      let rep = Repl.Replica.create () in
      Repl.Replica.start ~retry:0.01 rep ~host:"127.0.0.1" ~port:(Server.port srv);
      for i = 1 to 15 do
        ignore (expect_ok c (Printf.sprintf "INSERT INTO T VALUES (%d, %d)" i (i * i)))
      done;
      catch_up rep srv;
      checki "replica has every row" 15
        (List.length (Rel.tuples (Db.query (Repl.Replica.db rep) "SELECT * FROM T")));
      same_state "drop every 3rd batch" (Server.db srv) (Repl.Replica.db rep);
      (* the primary may coalesce the 15 inserts into fewer than 3
         batches; heartbeats still reach the third send *)
      wait_fault p;
      checkb "recurring fault fired" true (Repl.Primary.faults_fired p >= 1);
      (* and the replica converges after the fault, not only before it *)
      ignore (expect_ok c "INSERT INTO T VALUES (16, 256)");
      catch_up rep srv;
      checki "replica has every row after the fault" 16
        (List.length (Rel.tuples (Db.query (Repl.Replica.db rep) "SELECT * FROM T")));
      same_state "drop every 3rd batch, after the fault" (Server.db srv) (Repl.Replica.db rep);
      Repl.Replica.stop rep;
      Client.close c)

(* --- replica crash mid-apply, local checkpoint, catch-up ------------------ *)

let test_replica_crash_restart () =
  with_primary (fun srv _p ->
      let c = conn srv in
      nested_fixture c;
      let rep = Repl.Replica.create () in
      Repl.Replica.start rep ~host:"127.0.0.1" ~port:(Server.port srv);
      catch_up rep srv;
      Repl.Replica.stop rep;
      (* local durability point: catch-up resumes here after the crash *)
      ignore (Repl.Replica.checkpoint rep);
      let at_ckpt = Repl.Replica.applied_lsn rep in
      (* the primary moves on *)
      ignore (expect_ok c "INSERT INTO DEPT VALUES (6, 'Forge', 600, {(11, 'ANVIL')})");
      ignore (expect_ok c "UPDATE DEPT SET BUDGET = BUDGET * 2 WHERE DNO = 1");
      (* the applier dies mid-batch: the hook allows three records of
         the new stream, then kills the process *)
      let budget = ref 3 in
      Repl.Replica.set_apply_hook rep
        (Some
           (fun _ ->
             if !budget <= 0 then failwith "simulated replica crash";
             decr budget));
      (match Repl.Replica.run_once rep ~host:"127.0.0.1" ~port:(Server.port srv) with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "the apply hook should have killed the applier");
      checki "applied watermark did not advance past the dead batch" at_ckpt
        (Repl.Replica.applied_lsn rep);
      (* process crash: volatile state dies; the local disk image and
         WAL durable prefix are recovered into a fresh replica *)
      let rep2 = Repl.Replica.crash_restart rep in
      checki "restart resumes from the checkpointed applied LSN" at_ckpt
        (Repl.Replica.applied_lsn rep2);
      Repl.Replica.start rep2 ~host:"127.0.0.1" ~port:(Server.port srv);
      catch_up rep2 srv;
      same_state "after crash restart" (Server.db srv) (Repl.Replica.db rep2);
      Repl.Replica.stop rep2;
      Client.close c)

(* --- snapshot reads on a replica ------------------------------------------ *)

let stmt_of q =
  match Nf2_lang.Parser.parse_script q with
  | [ s ] -> s
  | _ -> Alcotest.fail ("expected one statement: " ^ q)

(* Readers on a replica run on MVCC snapshots published at the shipped
   commit's LSN, so mid-catch-up they must see commit-consistent cross-
   table states — never table X from one shipped commit and table Y from
   another — and, taking no lock or latch, they can never block the
   applier: catch-up completes while 4 reader threads hammer the
   snapshot path continuously. *)
let test_replica_snapshot_reads () =
  with_primary (fun srv _p ->
      let c = conn srv in
      (* both tables appear in one commit, and every later commit writes
         the same row to both: X = Y at every commit boundary *)
      ignore (Client.request c P.Begin);
      ignore (expect_ok c "CREATE TABLE X (K INT, V INT)");
      ignore (expect_ok c "CREATE TABLE Y (K INT, V INT)");
      ignore (Client.request c P.Commit);
      for i = 1 to 30 do
        ignore (Client.request c P.Begin);
        ignore (expect_ok c (Printf.sprintf "INSERT INTO X VALUES (%d, %d)" i (i * i)));
        ignore (expect_ok c (Printf.sprintf "INSERT INTO Y VALUES (%d, %d)" i (i * i)));
        ignore (Client.request c P.Commit)
      done;
      let rep = Repl.Replica.create () in
      (* slow the applier so catch-up is still in flight while readers run *)
      Repl.Replica.set_apply_hook rep (Some (fun _ -> Thread.delay 0.0005));
      let rdb = Repl.Replica.db rep in
      let stop = Atomic.make false in
      let torn = Atomic.make 0 and reads = Atomic.make 0 in
      let scan snap q =
        (* a table the snapshot does not know yet reads as absent *)
        match Db.render_result (Db.exec_read rdb snap (stmt_of q)) with
        | s -> s
        | exception Nf2_lang.Eval.Eval_error _ -> "<absent>"
      in
      let reader () =
        while not (Atomic.get stop) do
          let snap = Db.snapshot rdb in
          let rx = scan snap "SELECT t.K, t.V FROM t IN X" in
          let ry = scan snap "SELECT t.K, t.V FROM t IN Y" in
          Db.release_snapshot rdb snap;
          if rx <> ry then Atomic.incr torn;
          Atomic.incr reads;
          (* yield the runtime lock between scans: the readers must load
             the snapshot path continuously, not starve the applier out
             of its scheduling slice (systhreads share one lock) *)
          Thread.yield ()
        done
      in
      let threads = List.init 4 (fun _ -> Thread.create reader ()) in
      Repl.Replica.start rep ~host:"127.0.0.1" ~port:(Server.port srv);
      (* lock-free readers cannot stall the applier: catch-up completes
         under continuous snapshot-read load *)
      catch_up rep srv;
      Atomic.set stop true;
      List.iter Thread.join threads;
      checki "no torn cross-table snapshot mid-catch-up" 0 (Atomic.get torn);
      checkb "readers made progress during catch-up" true (Atomic.get reads > 50);
      (* quiesced: the snapshot LSN has advanced and never leads the
         applied LSN *)
      let snap_lsn = Db.current_snapshot_lsn rdb in
      checkb "snapshot LSN advanced" true (snap_lsn > 0);
      checkb "snapshot LSN within applied LSN" true (snap_lsn <= Repl.Replica.applied_lsn rep);
      same_state "replica converged under read load" (Server.db srv) rdb;
      Repl.Replica.stop rep;
      Client.close c)

(* --- commits that carry no catalog ---------------------------------------- *)

(* A commit that leaves the catalog alone ships without a payload; the
   replica then refreshes from its own catalog (the one last shipped)
   at that commit, so a batch of such commits still makes its rows
   visible, on the live path and to snapshot readers.  Promotion
   afterwards works as ever. *)
let test_payloadless_batch () =
  with_primary (fun srv _p ->
      let c = conn srv in
      nested_fixture c;
      let rep = Repl.Replica.create () in
      Repl.Replica.start rep ~host:"127.0.0.1" ~port:(Server.port srv);
      catch_up rep srv;
      Repl.Replica.stop rep;
      let w = Option.get (Db.wal (Server.db srv)) in
      let since = Wal.last_lsn w in
      ignore (expect_ok c "UPDATE DEPT SET BUDGET = 7 WHERE DNO = 3");
      (* new subtable rows land on their object's own page; a new
         object would take a page of its own, and change the catalog *)
      ignore (expect_ok c "INSERT INTO DEPT.EQUIP WHERE DNO = 2 VALUES (8, 'VISE')");
      ignore (expect_ok c "INSERT INTO DEPT.EQUIP WHERE DNO = 3 VALUES (9, 'RULE'), (10, 'FILE')");
      let payloads =
        List.filter_map
          (fun (lsn, r) -> match r with Wal.Commit { payload; _ } when lsn > since -> Some payload | _ -> None)
          (Wal.records_of_string (Wal.contents w))
      in
      checki "three commits" 3 (List.length payloads);
      checkb "none carries the catalog" true (List.for_all Option.is_none payloads);
      (* the applier was down: the three commits arrive as one batch *)
      Repl.Replica.start rep ~host:"127.0.0.1" ~port:(Server.port srv);
      catch_up rep srv;
      let rdb = Repl.Replica.db rep in
      same_state "payload-less batch" (Server.db srv) rdb;
      let q = "SELECT x.DNO, x.BUDGET, x.EQUIP FROM x IN DEPT WHERE x.DNO >= 2" in
      let snap = Db.snapshot rdb in
      let on_snapshot =
        match Db.exec_read rdb snap (Nf2_lang.Parser.parse_script q |> List.hd) with
        | Db.Rows r -> r
        | Db.Msg m -> Alcotest.fail m
      in
      Db.release_snapshot rdb snap;
      checkb "snapshot readers see the new rows" true (Rel.equal (Db.query (Server.db srv) q) on_snapshot);
      Repl.Replica.stop rep;
      Client.close c;
      (* promotion: the promoted node writes, and recovers what it wrote *)
      ignore (Repl.Replica.promote rep);
      ignore (Db.exec rdb "UPDATE DEPT SET BUDGET = 9 WHERE DNO = 3");
      ignore (Db.exec rdb "INSERT INTO DEPT VALUES (5, 'After', 5, {(11, 'AWL')})");
      same_state "promoted node recovers" (Db.recover_from_image (Db.crash_image rdb)) rdb;
      checki "promoted node answers" 4 (List.length (Rel.tuples (Db.query rdb "SELECT x.DNO FROM x IN DEPT"))))

(* --- promotion ------------------------------------------------------------ *)

let test_promote () =
  let pdb = Db.create ~wal:true () in
  let psrv = Server.start ~db:pdb config in
  ignore (Repl.attach psrv);
  let c = conn psrv in
  nested_fixture c;
  (* an unresolved transaction on the primary: its update records become
     durable (a forced log flush stands in for a concurrent session's
     group-commit fsync), but its COMMIT never happens *)
  ignore (Client.request c P.Begin);
  ignore (expect_ok c "UPDATE DEPT SET BUDGET = 999999 WHERE DNO = 1");
  ignore (expect_ok c "INSERT INTO DEPT VALUES (8, 'Doomed', 8, {})");
  Wal.flush (Option.get (Db.wal pdb));
  let dead_durable = Wal.durable_lsn (Option.get (Db.wal pdb)) in
  let rep = Repl.Replica.create () in
  let rsrv = Repl.Replica.serve rep config in
  Repl.Replica.start rep ~host:"127.0.0.1" ~port:(Server.port psrv);
  checkb "replica reached the dying primary's durable LSN" true
    (Repl.Replica.wait_applied rep dead_durable);
  (* the primary dies with the transaction still open *)
  Server.stop psrv;
  (* promotion over the wire, as aimsh's \promote issues it *)
  let rc = conn rsrv in
  (match Client.request rc P.Promote with
  | Some (P.Row_count { message; _ }) ->
      checkb "promote reports the undo" true (contains message "1 unresolved transaction(s)")
  | r ->
      Alcotest.fail
        (Printf.sprintf "promote failed: %s"
           (match r with Some (P.Error { message; _ }) -> message | _ -> "?")));
  checkb "no longer read-only" false (Repl.Replica.read_only rep);
  (* only committed state survived: the unresolved transaction's update
     was undone and its insert never became visible *)
  (match rows rc "SELECT x.BUDGET FROM x IN DEPT WHERE x.DNO = 1" with
  | [ [ b ] ] -> Alcotest.(check string) "uncommitted update undone" "100" b
  | _ -> Alcotest.fail "expected one DNO=1 row");
  checki "uncommitted insert gone" 0 (List.length (rows rc "SELECT * FROM x IN DEPT WHERE x.DNO = 8"));
  (* the promoted node accepts writes, including explicit transactions *)
  ignore (expect_ok rc "INSERT INTO DEPT VALUES (20, 'New', 1, {(30, 'VISE')})");
  checkb "begin accepted after promote" true
    (match Client.request rc P.Begin with Some (P.Row_count _) -> true | _ -> false);
  ignore (expect_ok rc "UPDATE DEPT SET BUDGET = 120 WHERE DNO = 20");
  checkb "commit accepted" true
    (match Client.request rc P.Commit with Some (P.Row_count _) -> true | _ -> false);
  (* promoting twice is a no-op *)
  (match Client.request rc P.Promote with
  | Some (P.Row_count { message; _ }) -> checkb "idempotent" true (contains message "already a primary")
  | _ -> Alcotest.fail "second promote should answer");
  (* the promoted node passes crash recovery *)
  let img = Db.crash_image (Repl.Replica.db rep) in
  same_state "promoted node recovers" (Db.recover_from_image img) (Repl.Replica.db rep);
  (* and ships its own log onward: a second-tier replica catches up *)
  let rep2 = Repl.Replica.create () in
  Repl.Replica.start rep2 ~host:"127.0.0.1" ~port:(Server.port rsrv);
  checkb "chained replica caught up" true
    (Repl.Replica.wait_applied rep2 (Wal.durable_lsn (Option.get (Db.wal (Repl.Replica.db rep)))));
  same_state "chained replica" (Repl.Replica.db rep) (Repl.Replica.db rep2);
  Repl.Replica.stop rep2;
  Client.close rc;
  (try Client.close c with _ -> ());
  Repl.Replica.stop rep;
  Server.stop rsrv

let () =
  Alcotest.run "repl"
    [
      ( "shipping",
        [
          Alcotest.test_case "catch-up from empty + read-only serving" `Quick
            test_catch_up_and_read_only;
          Alcotest.test_case "catch-up from an arbitrary LSN" `Quick test_catch_up_after_restart;
        ] );
      ( "snapshot reads",
        [ Alcotest.test_case "consistent at applied LSN mid-catch-up" `Quick test_replica_snapshot_reads ]
      );
      ("faults", [ Alcotest.test_case "link-fault matrix" `Quick test_link_fault_matrix ]);
      ( "local durability",
        [ Alcotest.test_case "crash mid-apply, checkpoint restart" `Quick test_replica_crash_restart ]
      );
      ("promotion", [ Alcotest.test_case "promote after primary death" `Quick test_promote ]);
      ( "catalog payloads",
        [ Alcotest.test_case "a batch of payload-less commits" `Quick test_payloadless_batch ] );
    ]
