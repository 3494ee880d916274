(* Server tier tests: wire-protocol round trips (property-tested),
   concurrent sessions over real sockets (isolation, no lost updates,
   admission control), and a kill-the-server-mid-commit run that
   recovers through the WAL with group commit enabled. *)

module P = Nf2_server.Protocol
module Client = Nf2_server.Client
module Server = Nf2_server.Server
module Session = Nf2_server.Session
module Metrics = Nf2_server.Metrics
module Db = Nf2.Db
module Wal = Nf2_storage.Wal
module FD = Nf2_storage.Faulty_disk
module Atom = Nf2_model.Atom
module OS = Nf2_storage.Object_store
module Rewrite = Nf2_lang.Rewrite

let checkb msg expected actual = Alcotest.(check bool) msg expected actual
let checki msg expected actual = Alcotest.(check int) msg expected actual

(* --- protocol: round trips ---------------------------------------------- *)

let gen_atom : Atom.t QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Atom.Int i) int;
        map (fun f -> Atom.Float f) (float_bound_inclusive 1e9);
        map (fun s -> Atom.Str s) (string_size (int_bound 20));
        map (fun b -> Atom.Bool b) bool;
        map (fun d -> Atom.Date d) (int_range (-100000) 100000);
        return Atom.Null;
      ])

let gen_request : P.request QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> P.Query s) (string_size (int_bound 200));
        map (fun s -> P.Prepare s) (string_size (int_bound 200));
        map2
          (fun id params -> P.Execute_prepared { id; params })
          (int_bound 1000)
          (list_size (int_bound 8) gen_atom);
        map (fun l -> P.Repl_handshake { start_lsn = l }) (int_bound 1_000_000);
        map (fun l -> P.Repl_ack { applied_lsn = l }) (int_bound 1_000_000);
        (* %.17g encoding round-trips every finite double exactly *)
        map (fun f -> P.Set_slow_query (Some f)) (float_bound_inclusive 1e6);
        (* decode rejects implausible shard identities, so generate
           only coherent ones: 0 <= shard_id < nshards *)
        (int_range 1 8 >>= fun nshards ->
         map2
           (fun map_version shard_id -> P.Shard_join { map_version; shard_id; nshards })
           (int_bound 1000)
           (int_bound (nshards - 1)));
        map2
          (fun map_version sql -> P.Shard_route { map_version; sql })
          (int_bound 1000)
          (string_size (int_bound 200));
        oneofl
          [
            P.Begin; P.Commit; P.Rollback; P.Ping; P.Metrics; P.Metrics_prom; P.Quit; P.Promote;
            P.Sys_reset; P.Set_slow_query None; P.Shard_map_get;
          ];
      ])

let gen_response : P.response QCheck.Gen.t =
  QCheck.Gen.(
    let str = string_size (int_bound 30) in
    oneof
      [
        (int_range 0 5 >>= fun ncols ->
         map2
           (fun columns rows -> P.Result_table { columns; rows })
           (list_size (return ncols) str)
           (list_size (int_bound 10) (list_size (return ncols) str)));
        map2 (fun affected message -> P.Row_count { affected; message }) (int_bound 10000) str;
        map2 (fun id nparams -> P.Prepared { id; nparams }) (int_bound 1000) (int_bound 20);
        map2 (fun code message -> P.Error { code; message }) str str;
        map (fun s -> P.Metrics_text s) (string_size (int_bound 500));
        map2
          (fun records durable_lsn -> P.Repl_batch { records; durable_lsn })
          (string_size (int_bound 120))
          (int_bound 1_000_000);
        map2
          (fun version shards -> P.Shard_map { version; shards })
          (int_bound 1000)
          (list_size (int_bound 6)
             (map2
                (fun (sh_id, sh_addr) (sh_state, sh_routed, sh_fanout, sh_errors) ->
                  { P.sh_id; sh_addr; sh_state; sh_routed; sh_fanout; sh_errors })
                (pair (int_bound 64) str)
                (quad (oneofl [ "up"; "down"; "replica-reads" ]) (int_bound 10000)
                   (int_bound 10000) (int_bound 10000))));
        oneofl [ P.Pong; P.Bye ];
      ])

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request encode/decode round-trips" ~count:500
    (QCheck.make gen_request)
    (fun r -> P.decode_request (P.encode_request r) = r)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"response encode/decode round-trips" ~count:500
    (QCheck.make gen_response)
    (fun r -> P.decode_response (P.encode_response r) = r)

let test_protocol_malformed () =
  let bad f s = try ignore (f s); false with P.Protocol_error _ -> true in
  checkb "empty request payload" true (bad P.decode_request "");
  checkb "unknown request tag" true (bad P.decode_request "\xff");
  checkb "unknown response tag" true (bad P.decode_response "\xfe");
  checkb "trailing bytes" true (bad P.decode_request (P.encode_request P.Ping ^ "x"))

(* Decode must fail *closed*: truncating or corrupting a frame of any
   tag yields a decoded value or [Protocol_error] — never a stray
   exception (Codec error, Invalid_argument) or an implausible-count
   allocation. *)
let fuzz_corpus =
  let reqs =
    [
      P.Query "SELECT x.A FROM x IN T WHERE x.K = 1";
      P.Prepare "SELECT x.A FROM x IN T WHERE x.K = ?";
      P.Execute_prepared { id = 3; params = [ Atom.Int 42; Atom.Str "x"; Atom.Null ] };
      P.Begin;
      P.Commit;
      P.Rollback;
      P.Ping;
      P.Metrics;
      P.Metrics_prom;
      P.Quit;
      P.Repl_handshake { start_lsn = 12345 };
      P.Repl_ack { applied_lsn = 99 };
      P.Promote;
      P.Sys_reset;
      P.Set_slow_query (Some 0.25);
      P.Set_slow_query None;
      P.Shard_join { map_version = 3; shard_id = 1; nshards = 4 };
      P.Shard_route { map_version = 3; sql = "SELECT x.A FROM x IN T WHERE x.K = 1" };
      P.Shard_map_get;
    ]
  in
  let resps =
    [
      P.Result_table { columns = [ "A"; "B" ]; rows = [ [ "1"; "x" ]; [ "2"; "y" ] ] };
      P.Row_count { affected = 7; message = "7 row(s)" };
      P.Prepared { id = 3; nparams = 2 };
      P.Error { code = "42601"; message = "parse error" };
      P.Pong;
      P.Bye;
      P.Metrics_text "requests_query 1\n";
      P.Repl_batch { records = String.init 48 (fun i -> Char.chr (i * 5 mod 256)); durable_lsn = 7 };
      P.Shard_map
        {
          version = 2;
          shards =
            [
              { P.sh_id = 0; sh_addr = "127.0.0.1:7501"; sh_state = "up"; sh_routed = 12; sh_fanout = 4; sh_errors = 0 };
              { P.sh_id = 1; sh_addr = "127.0.0.1:7502"; sh_state = "down"; sh_routed = 3; sh_fanout = 4; sh_errors = 2 };
            ];
        };
    ]
  in
  (List.map P.encode_request reqs, List.map P.encode_response resps)

let test_decode_fuzz () =
  let total = ref 0 in
  let safe what dec s =
    incr total;
    match dec s with
    | _ -> ()
    | exception P.Protocol_error _ -> ()
    | exception e ->
        Alcotest.fail (Printf.sprintf "%s leaked %s on %S" what (Printexc.to_string e) s)
  in
  let hammer what dec frames =
    let prng = Prng.create 1986 in
    List.iter
      (fun s ->
        (* every truncation point *)
        for cut = 0 to String.length s - 1 do
          safe what dec (String.sub s 0 cut)
        done;
        (* random single-byte corruptions *)
        for _ = 1 to 200 do
          let b = Bytes.of_string s in
          Bytes.set b (Prng.int prng (String.length s)) (Char.chr (Prng.int prng 256));
          safe what dec (Bytes.to_string b)
        done;
        (* corruption and truncation combined *)
        for _ = 1 to 100 do
          let b = Bytes.of_string s in
          Bytes.set b (Prng.int prng (String.length s)) (Char.chr (Prng.int prng 256));
          safe what dec (Bytes.sub_string b 0 (Prng.int prng (String.length s)))
        done)
      frames
  in
  let reqs, resps = fuzz_corpus in
  hammer "decode_request" P.decode_request reqs;
  hammer "decode_response" P.decode_response resps;
  checkb "fuzz corpus exercised" true (!total > 1000)

(* --- helpers for socket tests ------------------------------------------- *)

let with_server ?(max_sessions = 16) ?(lock_timeout = 5.0) ?(group_commit = true)
    ?(group_window = 0.001) ?(domains = 0) ?db (f : Server.t -> 'a) : 'a =
  let config =
    {
      Server.default_config with
      Server.port = 0;
      max_sessions;
      lock_timeout;
      group_commit;
      group_window;
      idle_timeout = 0.;
      domains;
    }
  in
  let srv = Server.start ?db config in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let conn (srv : Server.t) = Client.connect ~host:"127.0.0.1" ~port:(Server.port srv)

let query c sql =
  match Client.request c (P.Query sql) with
  | Some r -> r
  | None -> Alcotest.fail ("server hung up on: " ^ sql)

let expect_ok c sql =
  match query c sql with
  | P.Error { code; message } -> Alcotest.fail (Printf.sprintf "%s -> %s %s" sql code message)
  | r -> r

let rows c sql =
  match expect_ok c sql with
  | P.Result_table { rows; _ } -> rows
  | _ -> Alcotest.fail ("expected rows from: " ^ sql)

(* --- basic request/response over a socket ------------------------------- *)

let test_server_basic () =
  with_server (fun srv ->
      let c = conn srv in
      checkb "ping" true (Client.request c P.Ping = Some P.Pong);
      ignore (expect_ok c "CREATE TABLE T (K INT, V TEXT)");
      (match expect_ok c "INSERT INTO T VALUES (1, 'one'), (2, 'two')" with
      | P.Row_count { affected; _ } -> checki "insert count" 2 affected
      | _ -> Alcotest.fail "expected row count");
      checki "select" 2 (List.length (rows c "SELECT * FROM x IN T"));
      (match query c "SELEC nonsense" with
      | P.Error { code; _ } -> Alcotest.(check string) "syntax code" P.err_syntax code
      | _ -> Alcotest.fail "expected syntax error");
      (match Client.request c P.Metrics with
      | Some (P.Metrics_text s) ->
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
            go 0
          in
          checkb "metrics mention queries" true (contains s "requests_query")
      | _ -> Alcotest.fail "expected metrics text");
      Client.close c)

let test_prepared_over_wire () =
  with_server (fun srv ->
      let c = conn srv in
      ignore (expect_ok c "CREATE TABLE T (K INT, V TEXT)");
      ignore (expect_ok c "INSERT INTO T VALUES (1, 'one'), (2, 'two')");
      let id =
        match Client.request c (P.Prepare "SELECT x.V FROM x IN T WHERE x.K = ?") with
        | Some (P.Prepared { id; nparams }) ->
            checki "nparams" 1 nparams;
            id
        | _ -> Alcotest.fail "prepare failed"
      in
      (match Client.request c (P.Execute_prepared { id; params = [ Atom.Int 2 ] }) with
      | Some (P.Result_table { rows = [ [ cell ] ]; _ }) ->
          Alcotest.(check string) "bound row" "'two'" cell
      | _ -> Alcotest.fail "execute failed");
      (match Client.request c (P.Execute_prepared { id; params = [] }) with
      | Some (P.Error { code; _ }) -> Alcotest.(check string) "arity code" P.err_semantic code
      | _ -> Alcotest.fail "expected arity error");
      Client.close c)

(* --- concurrency: isolation and lost updates ---------------------------- *)

let test_txn_isolation () =
  with_server ~lock_timeout:0.3 (fun srv ->
      let a = conn srv and b = conn srv and c = conn srv in
      ignore (expect_ok a "CREATE TABLE T (K INT, N INT)");
      ignore (expect_ok a "INSERT INTO T VALUES (1, 10)");
      checkb "begin" true (Client.request a P.Begin <> None);
      ignore (expect_ok a "UPDATE T SET N = 99 WHERE K = 1");
      (* b's read does not block behind a's exclusive lock: it runs on
         an MVCC snapshot and sees the last committed state *)
      (match rows b "SELECT x.N FROM x IN T" with
      | [ [ n ] ] -> Alcotest.(check string) "snapshot read sees pre-txn value" "10" n
      | _ -> Alcotest.fail "snapshot reader should not block behind the writer");
      (* a concurrent writer still conflicts: write-write is 2PL *)
      let timeouts0 = Metrics.get (Server.metrics srv) "lock_timeouts" in
      (match query c "UPDATE T SET N = 0 WHERE K = 1" with
      | P.Error { code; _ } -> Alcotest.(check string) "writer lock timeout" P.err_lock_timeout code
      | _ -> Alcotest.fail "second writer should time out while txn holds X lock");
      (* the timed-out request left the lock table: no waiter remains *)
      checki "no waiter after the timeout" 0
        (List.length (rows b "SELECT l.TXN FROM l IN SYS_LOCKS WHERE l.NWAITERS > 0"));
      checki "one lock timeout counted" (timeouts0 + 1)
        (Metrics.get (Server.metrics srv) "lock_timeouts");
      (match Client.request a P.Commit with
      | Some (P.Row_count _) -> ()
      | r -> Alcotest.fail (Printf.sprintf "commit failed: %s" (match r with Some (P.Error e) -> e.message | _ -> "?")));
      (* after commit the write is visible to b *)
      (match rows b "SELECT x.N FROM x IN T" with
      | [ [ n ] ] -> Alcotest.(check string) "post-commit read" "99" n
      | _ -> Alcotest.fail "expected one row");
      Client.close a;
      Client.close b;
      Client.close c)

(* An autocommit writer queued behind an open transaction waits in the
   lock table like any other lock request: SYS_LOCKS shows it under the
   holder's transaction-slot lock, the commit wakes it, and the wait is
   charged to its statement shape in SYS_STATEMENTS. *)
let test_slot_wait_is_lock_wait () =
  with_server (fun srv ->
      let c1 = conn srv and c2 = conn srv and c3 = conn srv in
      ignore (expect_ok c1 "CREATE TABLE T (K INT, A INT)");
      ignore (expect_ok c1 "INSERT INTO T VALUES (1, 10), (2, 20)");
      checkb "begin" true (Client.request c1 P.Begin <> None);
      ignore (expect_ok c1 "UPDATE T SET A = 99 WHERE K = 1");
      let waiter_result = ref None in
      let waiter =
        Thread.create
          (fun () -> waiter_result := Some (query c2 "UPDATE T SET A = A + 1 WHERE K = 2"))
          ()
      in
      let slot_waiters () =
        rows c3 "SELECT l.NWAITERS FROM l IN SYS_LOCKS WHERE l.PREDICATE = '#TXN_SLOT'"
      in
      let deadline = Unix.gettimeofday () +. 2.0 in
      let rec await_waiter () =
        match slot_waiters () with
        | [ [ "1" ] ] -> true
        | _ when Unix.gettimeofday () < deadline ->
            Thread.delay 0.01;
            await_waiter ()
        | _ -> false
      in
      let queued = await_waiter () in
      (match Client.request c1 P.Commit with
      | Some (P.Row_count _) -> ()
      | _ -> Alcotest.fail "commit failed");
      Thread.join waiter;
      checkb "the slot row showed the queued writer" true queued;
      (match !waiter_result with
      | Some (P.Row_count _) -> ()
      | _ -> Alcotest.fail "queued autocommit writer should succeed after the commit");
      (match
         rows c3
           "SELECT s.LOCK_WAIT_MS FROM s IN SYS_STATEMENTS WHERE s.SHAPE = 'UPDATE T SET A = (A + ?2) \
            WHERE K = ?1'"
       with
      | [ [ ms ] ] -> checkb "wait charged to the writer's shape" true (float_of_string ms > 0.)
      | _ -> Alcotest.fail "expected one SYS_STATEMENTS row for the writer's shape");
      checki "no waiter remains" 0
        (List.length (rows c3 "SELECT l.TXN FROM l IN SYS_LOCKS WHERE l.NWAITERS > 0"));
      Client.close c1;
      Client.close c2;
      Client.close c3)

let test_rollback_over_wire () =
  with_server (fun srv ->
      let c = conn srv in
      ignore (expect_ok c "CREATE TABLE T (K INT)");
      ignore (expect_ok c "INSERT INTO T VALUES (1)");
      ignore (Client.request c P.Begin);
      ignore (expect_ok c "INSERT INTO T VALUES (2)");
      ignore (Client.request c P.Rollback);
      checki "rollback undid the insert" 1 (List.length (rows c "SELECT * FROM x IN T"));
      (match Client.request c P.Commit with
      | Some (P.Error { code; _ }) -> Alcotest.(check string) "commit outside txn" P.err_txn_state code
      | _ -> Alcotest.fail "COMMIT without BEGIN should fail");
      Client.close c)

let test_no_lost_updates () =
  with_server ~lock_timeout:10. (fun srv ->
      let c0 = conn srv in
      ignore (expect_ok c0 "CREATE TABLE C (K INT, N INT)");
      ignore (expect_ok c0 "INSERT INTO C VALUES (1, 0)");
      Client.close c0;
      let nthreads = 4 and per_thread = 8 in
      let failures = Atomic.make 0 in
      let worker () =
        let c = conn srv in
        for _ = 1 to per_thread do
          match query c "UPDATE C SET N = N + 1 WHERE K = 1" with
          | P.Row_count _ -> ()
          | _ -> Atomic.incr failures
        done;
        Client.close c
      in
      let threads = List.init nthreads (fun _ -> Thread.create worker ()) in
      List.iter Thread.join threads;
      checki "no failed increments" 0 (Atomic.get failures);
      let c = conn srv in
      (match rows c "SELECT x.N FROM x IN C" with
      | [ [ n ] ] -> Alcotest.(check string) "all increments applied" (string_of_int (nthreads * per_thread)) n
      | _ -> Alcotest.fail "expected one row");
      Client.close c;
      (* concurrent autocommit writers should have shared at least one
         group-commit fsync *)
      match Db.wal (Server.db srv) with
      | Some w ->
          let s = Wal.stats w in
          checkb "group commit engaged" true (s.Wal.group_commit_batches > 0);
          checkb "batches cover all commits" true
            (s.Wal.group_commit_txns >= s.Wal.group_commit_batches)
      | None -> Alcotest.fail "server db should have a WAL")

let test_admission_control () =
  with_server ~max_sessions:2 (fun srv ->
      let a = conn srv and b = conn srv in
      checkb "a admitted" true (Client.request a P.Ping = Some P.Pong);
      checkb "b admitted" true (Client.request b P.Ping = Some P.Pong);
      let c = conn srv in
      (match Client.request c P.Ping with
      | Some (P.Error { code; _ }) -> Alcotest.(check string) "busy code" P.err_busy code
      | None -> () (* server closed before we read the busy frame: also a rejection *)
      | _ -> Alcotest.fail "third session should be rejected");
      Client.close c;
      Client.close a;
      (* a slot freed: a new connection is admitted again *)
      let rec retry n =
        let d = conn srv in
        match Client.request d P.Ping with
        | Some P.Pong -> Client.close d
        | _ when n > 0 ->
            Client.close d;
            Thread.delay 0.05;
            retry (n - 1)
        | _ -> Alcotest.fail "freed slot should admit a new session"
      in
      retry 20;
      Client.close b)

(* --- parallel reads: torn-read stress, counters, cached rewrites -------- *)

(* Fold the storage gauges into the server's registry and read one. *)
let gauge srv name =
  ignore (Session.render_metrics (Server.session_manager srv));
  Metrics.get (Server.metrics srv) name

(* A writer replaces one NF² object inside explicit transactions while
   reader threads scan its subtable through the lock-free MVCC snapshot
   read path.  Every committed state has [slots] subtable rows sharing
   a single GEN value, so any mixed-GEN or wrong-cardinality result is
   a torn read.  The counters must prove the path is truly lock-free:
   across the whole run the readers acquire zero predicate locks and
   zero shared engine-latch grants, and their scans perform zero
   object-store reads — a snapshot serves only frozen version chains.
   [indexed]: G has an index on ID, so every reader probes the index
   frozen with its snapshot — the writer re-inserts the object each
   generation, moving its root — and fetches the root from the version;
   the same counters must still read zero, and the plan counters must
   show one index scan per read. *)
let read_stress ~indexed () =
  (* domains:2 forces cross-domain dispatch even on a 1-core host *)
  with_server ~domains:2 ~lock_timeout:10. (fun srv ->
      let c0 = conn srv in
      let slots = 8 in
      ignore (expect_ok c0 "CREATE TABLE G (ID INT, XS TABLE (GEN INT, SLOT INT))");
      let subtable g =
        "{" ^ String.concat ", " (List.init slots (Printf.sprintf "(%d, %d)" g)) ^ "}"
      in
      ignore (expect_ok c0 (Printf.sprintf "INSERT INTO G VALUES (1, %s)" (subtable 0)));
      if indexed then begin
        (* other objects make the probe cheaper than a scan *)
        ignore
          (expect_ok c0
             ("INSERT INTO G VALUES "
             ^ String.concat ", " (List.init 64 (fun i -> Printf.sprintf "(%d, {(0, 0)})" (i + 2)))));
        ignore (expect_ok c0 "CREATE INDEX ON G (ID)")
      end;
      let shared_locks0 = gauge srv "lock_shared_acquired" in
      let read_grants0 = gauge srv "engine_read_grants" in
      let snapshot_reads0 = gauge srv "snapshot_reads" in
      let index_scans0 = gauge srv "plan_index_scans" in
      let torn = Atomic.make 0 and read_errors = Atomic.make 0 and write_errors = Atomic.make 0 in
      let writer () =
        let c = conn srv in
        for g = 1 to 15 do
          let step req ok =
            match Client.request c req with
            | Some r when ok r -> ()
            | _ -> Atomic.incr write_errors
          in
          let dml = function P.Row_count _ -> true | _ -> false in
          step P.Begin dml;
          step (P.Query "DELETE FROM G WHERE ID = 1") dml;
          step (P.Query (Printf.sprintf "INSERT INTO G VALUES (1, %s)" (subtable g))) dml;
          step P.Commit dml
        done;
        Client.close c
      in
      let reader () =
        let c = conn srv in
        for _ = 1 to 20 do
          (* GEN alone would dedupe to one row (set semantics); SLOT
             keeps the 8 rows distinct so cardinality is checkable *)
          match
            Client.request c (P.Query "SELECT x.GEN, x.SLOT FROM t IN G, x IN t.XS WHERE t.ID = 1")
          with
          | Some (P.Result_table { rows; _ }) -> (
              match List.map (function [ g; _ ] -> g | _ -> "?") rows with
              | g0 :: rest when List.length rest = slots - 1 && List.for_all (String.equal g0) rest
                -> ()
              | _ -> Atomic.incr torn)
          | _ -> Atomic.incr read_errors
        done;
        Client.close c
      in
      let threads = Thread.create writer () :: List.init 4 (fun _ -> Thread.create reader ()) in
      List.iter Thread.join threads;
      checki "no write errors" 0 (Atomic.get write_errors);
      checki "no read errors" 0 (Atomic.get read_errors);
      checki "no torn subtable reads" 0 (Atomic.get torn);
      (* the 4 x 20 stress reads all went through the snapshot path and
         acquired nothing: no predicate locks, no shared latch grants *)
      checkb "stress reads were snapshot reads" true (gauge srv "snapshot_reads" - snapshot_reads0 >= 80);
      checki "readers acquired zero predicate locks" shared_locks0 (gauge srv "lock_shared_acquired");
      checki "readers took zero shared engine-latch grants" read_grants0 (gauge srv "engine_read_grants");
      if indexed then
        checkb "every stress read probed the snapshot's index" true
          (gauge srv "plan_index_scans" - index_scans0 >= 80);
      (* counter reconciliation: a snapshot scan serves frozen version
         chains (an index probe, the indexes frozen with them), so R
         readers x Q scans perform exactly zero object-store reads while
         still returning every row *)
      let store = Db.table_store (Server.db srv) ~table:"G" in
      let q =
        "SELECT x.GEN, x.SLOT FROM t IN G, x IN t.XS" ^ if indexed then " WHERE t.ID = 1" else ""
      in
      let scan c =
        match Client.request c (P.Query q) with
        | Some (P.Result_table { rows; _ }) -> List.length rows
        | _ -> -1
      in
      OS.reset_stats store;
      let readers = 4 and scans = 5 in
      let bad = Atomic.make 0 in
      let rthreads =
        List.init readers (fun _ ->
            Thread.create
              (fun () ->
                let c = conn srv in
                for _ = 1 to scans do
                  if scan c <> slots then Atomic.incr bad
                done;
                Client.close c)
              ())
      in
      List.iter Thread.join rthreads;
      checki "all reconciliation scans returned the object" 0 (Atomic.get bad);
      let total = OS.stats store in
      checki "md_reads reconcile to zero" 0 total.OS.md_reads;
      checki "data_reads reconcile to zero" 0 total.OS.data_reads;
      checki "reads performed no subtuple writes" 0 total.OS.subtuple_writes;
      Client.close c0)

(* Preparing a statement rewrites it once; executions reuse the cached
   rewrite instead of re-running the rewriter per call. *)
let test_prepared_rewrite_once () =
  with_server (fun srv ->
      let c = conn srv in
      ignore (expect_ok c "CREATE TABLE T (K INT, V TEXT)");
      ignore (expect_ok c "INSERT INTO T VALUES (1, 'one'), (2, 'two')");
      let before = Rewrite.rewrite_count () in
      let id =
        match Client.request c (P.Prepare "SELECT x.V FROM x IN T WHERE x.K = ?") with
        | Some (P.Prepared { id; _ }) -> id
        | _ -> Alcotest.fail "prepare failed"
      in
      checki "prepare rewrites exactly once" 1 (Rewrite.rewrite_count () - before);
      for i = 1 to 3 do
        match Client.request c (P.Execute_prepared { id; params = [ Atom.Int (1 + (i mod 2)) ] }) with
        | Some (P.Result_table { rows = [ [ _ ] ]; _ }) -> ()
        | _ -> Alcotest.fail "execute failed"
      done;
      checki "executions reuse the cached rewrite" 1 (Rewrite.rewrite_count () - before);
      Client.close c)

let test_prometheus_read_gauges () =
  with_server (fun srv ->
      let c = conn srv in
      ignore (expect_ok c "CREATE TABLE T (K INT)");
      ignore (expect_ok c "INSERT INTO T VALUES (1)");
      checki "read row" 1 (List.length (rows c "SELECT x.K FROM x IN T"));
      let text =
        match Client.request c P.Metrics_prom with
        | Some (P.Metrics_text s) -> s
        | _ -> Alcotest.fail "expected prometheus text"
      in
      let contains needle =
        let nh = String.length text and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
        go 0
      in
      checkb "engine_readers_active exposed" true (contains "engine_readers_active");
      checkb "lock_shared_acquired exposed" true (contains "lock_shared_acquired");
      (* the SELECT above ran on an MVCC snapshot: no shared lock *)
      checkb "no shared grants under MVCC" true (contains "lock_shared_acquired 0\n");
      checkb "snapshot_reads counted" true (contains "snapshot_reads 1\n");
      checkb "mvcc_snapshot_lsn exposed" true (contains "mvcc_snapshot_lsn");
      checkb "snapshot lsn advanced" false (contains "mvcc_snapshot_lsn 0\n");
      checkb "mvcc_versions_live exposed" true (contains "mvcc_versions_live");
      checkb "mvcc_gc_reclaimed exposed" true (contains "mvcc_gc_reclaimed");
      Client.close c)

(* An ASOF below the version-GC horizon maps to the typed SQLSTATE on
   the wire instead of silently answering from a younger state. *)
let test_snapshot_too_old_over_wire () =
  with_server (fun srv ->
      let c = conn srv in
      ignore (expect_ok c "CREATE TABLE T (K INT)");
      Db.set_mvcc_retain (Server.db srv) 1;
      let early = Db.current_snapshot_lsn (Server.db srv) in
      for i = 1 to 10 do
        ignore (expect_ok c (Printf.sprintf "INSERT INTO T VALUES (%d)" i))
      done;
      (match query c (Printf.sprintf "SELECT x.K FROM x IN T ASOF %d" early) with
      | P.Error { code; message } ->
          Alcotest.(check string) "snapshot-too-old code" P.err_snapshot_too_old code;
          checkb "message names the horizon" true
            (let has needle =
               let nh = String.length message and nn = String.length needle in
               let rec go i = i + nn <= nh && (String.sub message i nn = needle || go (i + 1)) in
               go 0
             in
             has "snapshot too old" && has "GC horizon")
      | _ -> Alcotest.fail "expected snapshot-too-old error");
      (* recent LSNs still answer *)
      checki "recent ASOF rows" 10
        (List.length
           (rows c (Printf.sprintf "SELECT x.K FROM x IN T ASOF %d" (Db.current_snapshot_lsn (Server.db srv)))));
      Client.close c)

(* --- crash during concurrent commits ------------------------------------ *)

(* Kill the "machine" at the k-th WAL fsync while several sessions
   insert concurrently under group commit, then recover from the
   surviving image.  Per session, the recovered rows must be a prefix
   of that session's insert order: commits are appended in order, so
   durability may cut a suffix but never punch a hole. *)
let test_crash_mid_commit_recovers () =
  let db = Db.create ~wal:true () in
  with_server ~db ~lock_timeout:10. (fun srv ->
      let c0 = conn srv in
      ignore (expect_ok c0 "CREATE TABLE K (T INT, I INT)");
      Client.close c0;
      let fd = FD.arm ~wal:(Option.get (Db.wal db)) (Db.disk db) (FD.Crash_at_sync 4) in
      let nthreads = 4 and per_thread = 25 in
      let worker t () =
        let c = conn srv in
        (try
           let i = ref 0 in
           let continue = ref true in
           while !continue && !i < per_thread do
             (match query c (Printf.sprintf "INSERT INTO K VALUES (%d, %d)" t !i) with
             | P.Row_count _ -> incr i
             | P.Error _ -> continue := false
             | _ -> continue := false);
             ()
           done
         with _ -> ());
        try Client.close c with _ -> ()
      in
      let threads = List.init nthreads (fun t -> Thread.create (worker t) ()) in
      List.iter Thread.join threads;
      checkb "fault fired" true (FD.fired fd);
      FD.disarm fd);
  (* the server is stopped; recover from the crash image *)
  let img = Db.crash_image db in
  let recovered = Db.recover_from_image img in
  let rel = Db.query recovered "SELECT x.T, x.I FROM x IN K" in
  let by_thread = Hashtbl.create 4 in
  List.iter
    (fun tup ->
      match tup with
      | [ Nf2_model.Value.Atom (Atom.Int t); Nf2_model.Value.Atom (Atom.Int i) ] ->
          Hashtbl.replace by_thread t (i :: Option.value (Hashtbl.find_opt by_thread t) ~default:[])
      | _ -> Alcotest.fail "unexpected row shape")
    (Nf2_algebra.Rel.tuples rel);
  Hashtbl.iter
    (fun t is ->
      let sorted = List.sort compare is in
      let expected = List.init (List.length sorted) Fun.id in
      checkb
        (Printf.sprintf "thread %d rows form a prefix (got %s)" t
           (String.concat "," (List.map string_of_int sorted)))
        true (sorted = expected))
    by_thread

let props = List.map QCheck_alcotest.to_alcotest [ prop_request_roundtrip; prop_response_roundtrip ]

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        Alcotest.test_case "malformed payloads" `Quick test_protocol_malformed
        :: Alcotest.test_case "truncation/corruption fuzz" `Quick test_decode_fuzz
        :: props );
      ( "sessions",
        [
          Alcotest.test_case "basic round trips" `Quick test_server_basic;
          Alcotest.test_case "prepared statements" `Quick test_prepared_over_wire;
          Alcotest.test_case "transaction isolation" `Quick test_txn_isolation;
          Alcotest.test_case "slot waits are lock waits" `Quick test_slot_wait_is_lock_wait;
          Alcotest.test_case "rollback" `Quick test_rollback_over_wire;
          Alcotest.test_case "no lost updates" `Quick test_no_lost_updates;
          Alcotest.test_case "admission control" `Quick test_admission_control;
        ] );
      ( "parallel reads",
        [
          Alcotest.test_case "concurrent read stress" `Quick (read_stress ~indexed:false);
          Alcotest.test_case "concurrent indexed read stress" `Quick (read_stress ~indexed:true);
          Alcotest.test_case "prepared rewrite cached" `Quick test_prepared_rewrite_once;
          Alcotest.test_case "prometheus read gauges" `Quick test_prometheus_read_gauges;
          Alcotest.test_case "snapshot too old on the wire" `Quick test_snapshot_too_old_over_wire;
        ] );
      ( "crash",
        [ Alcotest.test_case "crash mid-commit recovers" `Quick test_crash_mid_commit_recovers ] );
    ]
