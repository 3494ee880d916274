(* Sharding tests: the shard map (deterministic, balanced consistent
   hashing), the fan-in merge operators, a randomized differential
   oracle (the same workload against one unsharded node and a 2-shard
   cluster must be indistinguishable), and the failure paths — a killed
   shard yields typed errors while survivors keep serving, a stale
   shard-map route self-heals, a hung shard trips the gather deadline,
   and a shard with a replica falls back to it for reads. *)

module P = Nf2_server.Protocol
module Client = Nf2_server.Client
module Server = Nf2_server.Server
module Repl = Nf2_repl.Repl
module Db = Nf2.Db
module Wal = Nf2_storage.Wal
module Merge = Nf2_algebra.Merge
module Shard_map = Nf2_shard.Shard_map
module Pool = Nf2_shard.Pool
module Coord = Nf2_shard.Coord
module Metrics = Nf2_server.Metrics

let checkb msg expected actual = Alcotest.(check bool) msg expected actual
let checki msg expected actual = Alcotest.(check int) msg expected actual
let checks msg expected actual = Alcotest.(check string) msg expected actual

(* --- shard map ----------------------------------------------------------- *)

let mk_members n =
  List.init n (fun id ->
      { Shard_map.id; primary = { Shard_map.host = "10.0.0.1"; port = 7500 + id }; replica = None })

let test_map_deterministic () =
  let m1 = Shard_map.create (mk_members 4) in
  let m2 = Shard_map.create (mk_members 4) in
  for i = 0 to 499 do
    let k = string_of_int i in
    checki ("key " ^ k) (Shard_map.shard_of_key m1 k) (Shard_map.shard_of_key m2 k)
  done

let test_map_balance () =
  let m = Shard_map.create (mk_members 4) in
  let counts = Array.make 4 0 in
  for i = 0 to 3999 do
    let s = Shard_map.shard_of_key m (string_of_int i) in
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri
    (fun i c ->
      checkb (Printf.sprintf "shard %d owns a sane arc (%d keys)" i c) true (c > 400 && c < 2000))
    counts

(* Adding one shard moves only the keys on the arcs the newcomer takes
   over — the consistent-hashing stability property. *)
let test_map_stability () =
  let m4 = Shard_map.create (mk_members 4) in
  let m5 = Shard_map.create (mk_members 5) in
  let moved = ref 0 and total = 2000 in
  for i = 0 to total - 1 do
    let k = string_of_int i in
    let a = Shard_map.shard_of_key m4 k and b = Shard_map.shard_of_key m5 k in
    if a <> b then begin
      incr moved;
      checki ("moved key lands on the new shard: " ^ k) 4 b
    end
  done;
  checkb
    (Printf.sprintf "moved fraction near 1/5 (moved %d/%d)" !moved total)
    true
    (!moved > total / 10 && !moved < total * 2 / 5)

let test_parse_member () =
  let m = Shard_map.parse_member ~id:2 "10.1.2.3:7501+10.1.2.4:7502" in
  checki "id" 2 m.Shard_map.id;
  checks "primary" "10.1.2.3:7501" (Shard_map.addr_string m.Shard_map.primary);
  (match m.Shard_map.replica with
  | Some r -> checks "replica" "10.1.2.4:7502" (Shard_map.addr_string r)
  | None -> Alcotest.fail "expected a replica");
  let bare = Shard_map.parse_member ~id:0 "localhost" in
  checki "default port" 5433 bare.Shard_map.primary.Shard_map.port

(* --- merge operators ----------------------------------------------------- *)

let test_merge_union_dedup () =
  let parts = [ [ [ "1"; "a" ]; [ "2"; "b" ] ]; [ [ "2"; "b" ]; [ "3"; "c" ] ] ] in
  checki "union keeps duplicates" 4 (List.length (Merge.union parts));
  checki "dedup drops cross-shard duplicates" 3 (List.length (Merge.union ~dedup:true parts))

let test_merge_sorted () =
  let keys = [ { Merge.index = 0; descending = false } ] in
  let parts = [ [ [ "1" ]; [ "4" ]; [ "9" ] ]; [ [ "2" ]; [ "10" ] ]; [] ] in
  Alcotest.(check (list (list string)))
    "numeric k-way merge"
    [ [ "1" ]; [ "2" ]; [ "4" ]; [ "9" ]; [ "10" ] ]
    (Merge.merge_sorted ~keys parts);
  let desc = [ { Merge.index = 0; descending = true } ] in
  Alcotest.(check (list (list string)))
    "descending merge"
    [ [ "9" ]; [ "4" ]; [ "2" ] ]
    (Merge.merge_sorted ~keys:desc [ [ [ "9" ]; [ "2" ] ]; [ [ "4" ] ] ])

let test_merge_reaggregate () =
  Alcotest.(check (list string))
    "sum/min/max/count across partials"
    [ "10"; "2"; "9"; "5" ]
    (Merge.reaggregate
       ~spec:[ Merge.C_sum; Merge.C_min; Merge.C_max; Merge.C_count ]
       [ [ "4"; "3"; "9"; "2" ]; [ "6"; "2"; "7"; "3" ] ]);
  Alcotest.(check (list string))
    "empty partials are skipped"
    [ "6" ]
    (Merge.reaggregate ~spec:[ Merge.C_sum ] [ []; [ "6" ] ])

(* --- cluster scaffolding -------------------------------------------------- *)

let server_config =
  {
    Server.default_config with
    Server.port = 0;
    lock_timeout = 5.0;
    group_window = 0.001;
    idle_timeout = 0.;
  }

(* [n] shard servers plus a coordinator over them, all in-process. *)
let with_cluster ?(n = 2) ?(gather_deadline = 5.0) ?replica_for
    (f : Coord.t -> Server.t array -> 'a) : 'a =
  let shards = Array.init n (fun _ -> Server.start server_config) in
  let replica =
    match replica_for with
    | None -> None
    | Some shard_id ->
        ignore (Repl.attach shards.(shard_id));
        let rep = Repl.Replica.create () in
        let rsrv = Repl.Replica.serve rep server_config in
        Repl.Replica.start rep ~host:"127.0.0.1" ~port:(Server.port shards.(shard_id));
        Some (shard_id, rep, rsrv)
  in
  let members =
    List.init n (fun id ->
        {
          Shard_map.id;
          primary = { Shard_map.host = "127.0.0.1"; port = Server.port shards.(id) };
          replica =
            (match replica with
            | Some (sid, _, rsrv) when sid = id ->
                Some { Shard_map.host = "127.0.0.1"; port = Server.port rsrv }
            | _ -> None);
        })
  in
  let coord = Coord.start { Coord.default_config with gather_deadline; members } in
  Fun.protect
    ~finally:(fun () ->
      Coord.stop coord;
      (match replica with
      | Some (_, rep, rsrv) ->
          Repl.Replica.stop rep;
          Server.stop rsrv
      | None -> ());
      Array.iter (fun s -> try Server.stop s with _ -> ()) shards)
    (fun () -> f coord shards)

let connect_coord (coord : Coord.t) = Client.connect ~host:"127.0.0.1" ~port:(Coord.port coord)

let query c sql =
  match Client.request c (P.Query sql) with
  | Some r -> r
  | None -> Alcotest.fail ("coordinator hung up on: " ^ sql)

let expect_ok c sql =
  match query c sql with
  | P.Error { code; message } -> Alcotest.fail (Printf.sprintf "%s -> %s %s" sql code message)
  | r -> r

let expect_code c msg code sql =
  match query c sql with
  | P.Error { code = actual; _ } -> checks msg code actual
  | _ -> Alcotest.fail (msg ^ ": expected error " ^ code)

(* A key (rendered INT literal) the coordinator's map places on shard
   [target] — ports are ephemeral, so the placement must be computed,
   not assumed. *)
let key_on (coord : Coord.t) (target : int) : int =
  let map = Coord.shard_map coord in
  let rec go k =
    if k > 100_000 then Alcotest.fail "no key found for shard"
    else if Shard_map.shard_of_key map (string_of_int k) = target then k
    else go (k + 1)
  in
  go 1

(* --- differential oracle -------------------------------------------------

   The same statement stream runs against an unsharded in-process
   database and the 2-shard cluster.  Results must be indistinguishable:
   identical rows (exactly, for ORDER BY; as multisets otherwise,
   mirroring set semantics), identical affected counts, identical error
   codes. *)

let norm rows = List.sort compare rows

let compare_responses ~(sql : string) (oracle : P.response) (sharded : P.response) =
  let ordered =
    (* crude but honest: the workload below only says ORDER BY in the
       outer query *)
    let rec has i =
      i + 8 <= String.length sql && (String.sub sql i 8 = "ORDER BY" || has (i + 1))
    in
    has 0
  in
  match (oracle, sharded) with
  | P.Result_table { columns = oc; rows = ors }, P.Result_table { columns = sc; rows = srs } ->
      Alcotest.(check (list string)) (sql ^ ": columns") oc sc;
      if ordered then Alcotest.(check (list (list string))) (sql ^ ": ordered rows") ors srs
      else Alcotest.(check (list (list string))) (sql ^ ": row multiset") (norm ors) (norm srs)
  | P.Row_count { affected = oa; _ }, P.Row_count { affected = sa; _ } ->
      checki (sql ^ ": affected") oa sa
  | P.Error { code = oc; _ }, P.Error { code = sc; _ } -> checks (sql ^ ": error code") oc sc
  | _ ->
      let shape = function
        | P.Result_table _ -> "rows"
        | P.Row_count _ -> "count"
        | P.Error { code; _ } -> "error " ^ code
        | _ -> "other"
      in
      Alcotest.fail
        (Printf.sprintf "%s: response shapes diverge (oracle %s, sharded %s)" sql (shape oracle)
           (shape sharded))

let oracle_workload () : string list =
  let prng = Prng.create 1986 in
  let names = [| "SALES"; "ENG"; "OPS"; "HR"; "LAB" |] in
  let inserts =
    List.init 20 (fun i ->
        let dno = i + 1 in
        let nemps = 1 + Prng.int prng 3 in
        let emps =
          String.concat ", "
            (List.init nemps (fun j -> Printf.sprintf "(%d, 'E%d_%d')" ((dno * 10) + j) dno j))
        in
        Printf.sprintf "(%d, '%s', %d, {%s})" dno names.(Prng.int prng 5) (50 + Prng.int prng 50)
          emps)
  in
  [
    "CREATE TABLE DEPT (DNO INT, DNAME TEXT, BUDGET INT, EMPS TABLE (ENO INT, NAME TEXT))";
    "INSERT INTO DEPT VALUES " ^ String.concat ", " inserts;
    (* point lookups: pinned on the cluster *)
    "SELECT * FROM D IN DEPT WHERE D.DNO = 3";
    "SELECT D.DNAME, D.EMPS FROM D IN DEPT WHERE D.DNO = 17";
    (* fan-out scans, nested projections, root-local aggregates *)
    "SELECT * FROM D IN DEPT";
    "SELECT D.DNO, D.EMPS FROM D IN DEPT WHERE D.BUDGET > 60";
    "SELECT D.DNO, COUNT(D.EMPS) AS NEMPS FROM D IN DEPT";
    "SELECT D.DNO, MAX(D.EMPS.ENO) AS TOP FROM D IN DEPT WHERE D.DNO < 12";
    (* navigation into subtables *)
    "SELECT E.NAME FROM D IN DEPT, E IN D.EMPS WHERE D.DNO = 7";
    "SELECT DISTINCT D.DNAME FROM D IN DEPT";
    (* ordered results: exact merge discipline *)
    "SELECT D.DNO, D.DNAME FROM D IN DEPT ORDER BY D.DNO";
    "SELECT D.DNO, D.BUDGET FROM D IN DEPT ORDER BY D.BUDGET DESC, D.DNO";
    "SELECT DISTINCT D.DNAME FROM D IN DEPT ORDER BY D.DNAME";
    "SELECT D.DNAME AS N, D.DNO FROM D IN DEPT WHERE D.BUDGET > 55 ORDER BY D.DNO DESC";
    (* DML: pinned, broadcast, and inside subtables *)
    "UPDATE DEPT SET DNAME = 'PINNED' WHERE DNO = 5";
    "UPDATE DEPT SET BUDGET = BUDGET + 1 WHERE BUDGET < 60";
    "INSERT INTO DEPT.EMPS WHERE DNO = 9 VALUES (999, 'NEW_HIRE')";
    "UPDATE DEPT.EMPS SET NAME = 'RENAMED' WHERE ENO = 999";
    "SELECT E.ENO, E.NAME FROM D IN DEPT, E IN D.EMPS WHERE D.DNO = 9";
    "DELETE FROM DEPT.EMPS WHERE ENO = 999";
    "DELETE FROM DEPT WHERE DNO = 13";
    "DELETE FROM DEPT WHERE BUDGET > 95";
    "SELECT D.DNO, D.DNAME, D.BUDGET, D.EMPS FROM D IN DEPT ORDER BY D.DNO";
    (* errors must be typed identically where the single node also
       refuses, and the final state must still agree afterwards *)
    "SELECT * FROM D IN NO_SUCH_TABLE";
    "SELECT * FROM D IN DEPT ORDER BY D.DNO";
  ]

let test_differential_oracle () =
  let oracle_srv = Server.start server_config in
  Fun.protect
    ~finally:(fun () -> Server.stop oracle_srv)
    (fun () ->
      with_cluster ~n:2 (fun coord shards ->
          let oc = Client.connect ~host:"127.0.0.1" ~port:(Server.port oracle_srv) in
          let sc = connect_coord coord in
          List.iter
            (fun sql ->
              let o = query oc sql in
              let s = query sc sql in
              compare_responses ~sql o s)
            (oracle_workload ());
          (* the data really is partitioned: each shard holds a proper,
             non-empty subset of the surviving roots *)
          let shard_counts =
            Array.to_list
              (Array.map
                 (fun s ->
                   let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port s) in
                   let n =
                     match Client.request c (P.Query "SELECT D.DNO FROM D IN DEPT") with
                     | Some (P.Result_table { rows; _ }) -> List.length rows
                     | _ -> Alcotest.fail "shard scan failed"
                   in
                   Client.close c;
                   n)
                 shards)
          in
          List.iter
            (fun n -> checkb "each shard holds a non-empty proper subset" true (n > 0 && n < 18))
            shard_counts;
          Client.close oc;
          Client.close sc))

(* --- routing-only behaviours -------------------------------------------- *)

let test_refusals_and_explain () =
  with_cluster ~n:2 (fun coord _ ->
      let c = connect_coord coord in
      ignore (expect_ok c "CREATE TABLE T (K INT, V TEXT)");
      ignore (expect_ok c "INSERT INTO T VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd')");
      expect_code c "cross-shard join refused" P.err_feature
        "SELECT A.K FROM A IN T, B IN T WHERE A.K = B.K";
      expect_code c "BEGIN refused" P.err_feature "BEGIN";
      expect_code c "integer ASOF refused" P.err_feature "SELECT * FROM X IN T ASOF 5";
      expect_code c "partition-key update refused" P.err_feature "UPDATE T SET K = 9 WHERE K = 1";
      (match Client.request c P.Begin with
      | Some (P.Error { code; _ }) -> checks "wire BEGIN refused" P.err_feature code
      | _ -> Alcotest.fail "expected BEGIN refusal");
      (* EXPLAIN of a fan-out carries the gather and one scan per shard *)
      (match expect_ok c "EXPLAIN SELECT X.V FROM X IN T WHERE X.K > 1" with
      | P.Row_count { message; _ } ->
          let has needle =
            let nh = String.length message and nn = String.length needle in
            let rec go i = i + nn <= nh && (String.sub message i nn = needle || go (i + 1)) in
            go 0
          in
          checkb "shard-gather in plan" true (has "shard-gather 2 shard(s)");
          checkb "scan for shard 0" true (has "shard-scan shard=0");
          checkb "scan for shard 1" true (has "shard-scan shard=1");
          checkb "inner plans travel" true (has "seq-scan T")
      | _ -> Alcotest.fail "expected EXPLAIN text");
      (* SYS queries answer locally, and SYS_SHARDS is a relation *)
      (match expect_ok c "SELECT S.SHARD, S.STATE FROM S IN SYS_SHARDS" with
      | P.Result_table { rows; _ } ->
          checki "one SYS_SHARDS row per shard" 2 (List.length rows);
          List.iter (function [ _; st ] -> checks "state up" "'up'" st | _ -> ()) rows
      | _ -> Alcotest.fail "expected SYS_SHARDS rows");
      expect_code c "SYS x sharded mix refused" P.err_feature
        "SELECT S.SHARD FROM S IN SYS_SHARDS, X IN T";
      Client.close c)

let test_prepared_routed () =
  with_cluster ~n:2 (fun coord _ ->
      let c = connect_coord coord in
      ignore (expect_ok c "CREATE TABLE T (K INT, V TEXT)");
      ignore (expect_ok c "INSERT INTO T VALUES (1, 'one'), (2, 'two'), (3, 'three')");
      let id =
        match Client.request c (P.Prepare "SELECT X.V FROM X IN T WHERE X.K = ?") with
        | Some (P.Prepared { id; nparams }) ->
            checki "nparams" 1 nparams;
            id
        | _ -> Alcotest.fail "prepare failed"
      in
      (match Client.request c (P.Execute_prepared { id; params = [ Nf2_model.Atom.Int 2 ] }) with
      | Some (P.Result_table { rows = [ [ v ] ]; _ }) -> checks "bound pinned row" "'two'" v
      | _ -> Alcotest.fail "execute failed");
      Client.close c)

(* --- failure paths -------------------------------------------------------- *)

let test_kill_one_shard () =
  with_cluster ~n:2 (fun coord shards ->
      let c = connect_coord coord in
      ignore (expect_ok c "CREATE TABLE T (K INT, V TEXT)");
      let k0 = key_on coord 0 and k1 = key_on coord 1 in
      ignore (expect_ok c (Printf.sprintf "INSERT INTO T VALUES (%d, 'on0'), (%d, 'on1')" k0 k1));
      Server.stop shards.(0);
      (* fan-out needs both shards: typed shard-down, not a hang *)
      expect_code c "fan-out hits the dead shard" P.err_shard_down "SELECT * FROM X IN T";
      (* statements pinned to the survivor keep being served *)
      (match expect_ok c (Printf.sprintf "SELECT X.V FROM X IN T WHERE X.K = %d" k1) with
      | P.Result_table { rows = [ [ v ] ]; _ } -> checks "survivor still serves" "'on1'" v
      | _ -> Alcotest.fail "pinned read on the survivor failed");
      expect_code c "pinned write to the dead shard" P.err_shard_down
        (Printf.sprintf "UPDATE T SET V = 'x' WHERE K = %d" k0);
      (* the health surface saw it *)
      (match expect_ok c "SELECT S.SHARD, S.STATE FROM S IN SYS_SHARDS ORDER BY S.SHARD" with
      | P.Result_table { rows = [ [ _; s0 ]; [ _; s1 ] ]; _ } ->
          checks "shard 0 down" "'down'" s0;
          checks "shard 1 up" "'up'" s1
      | _ -> Alcotest.fail "expected two SYS_SHARDS rows");
      (match Client.request c P.Shard_map_get with
      | Some (P.Shard_map { shards = infos; _ }) ->
          checkb "map reports the down shard" true
            (List.exists (fun i -> i.P.sh_state = "down" && i.P.sh_errors > 0) infos)
      | _ -> Alcotest.fail "expected a shard map");
      Client.close c)

(* The coordinator's shard gauges are read, not refreshed: once a
   fan-out has found shard 0 dead, SYS_METRICS and the registry both
   say one shard is up — with no \metrics request or SYS_SHARDS query
   first to bring a copy up to date. *)
let test_shard_gauges_live () =
  with_cluster ~n:2 (fun coord shards ->
      let c = connect_coord coord in
      ignore (expect_ok c "CREATE TABLE T (K INT, V TEXT)");
      checki "both shards up" 2 (Metrics.get (Coord.metrics coord) "shards_up");
      Server.stop shards.(0);
      expect_code c "fan-out hits the dead shard" P.err_shard_down "SELECT * FROM X IN T";
      (match expect_ok c "SELECT m.VALUE FROM m IN SYS_METRICS WHERE m.NAME = 'shards_up'" with
      | P.Result_table { rows = [ [ v ] ]; _ } ->
          checkb "SYS_METRICS shards_up" true (float_of_string v = 1.)
      | _ -> Alcotest.fail "expected one shards_up row");
      checki "registry shards_up" 1 (Metrics.get (Coord.metrics coord) "shards_up");
      Client.close c)

(* Another coordinator re-joins a shard at a different map version; our
   pooled connections are now stale, and the next route must
   re-handshake and succeed rather than surface 55S01 to the client. *)
let test_stale_route_self_heals () =
  with_cluster ~n:2 (fun coord shards ->
      let c = connect_coord coord in
      ignore (expect_ok c "CREATE TABLE T (K INT)");
      ignore (expect_ok c "INSERT INTO T VALUES (1), (2), (3)");
      checki "warm-up scan" 3
        (match expect_ok c "SELECT X.K FROM X IN T" with
        | P.Result_table { rows; _ } -> List.length rows
        | _ -> -1);
      (* usurp shard 0's identity at a different version *)
      let u = Client.connect ~host:"127.0.0.1" ~port:(Server.port shards.(0)) in
      (match Client.request u (P.Shard_join { map_version = 99; shard_id = 0; nshards = 2 }) with
      | Some (P.Row_count _) -> ()
      | _ -> Alcotest.fail "usurper join failed");
      Client.close u;
      (* the very next fan-out must still answer *)
      checki "fan-out after usurpation" 3
        (match expect_ok c "SELECT X.K FROM X IN T" with
        | P.Result_table { rows; _ } -> List.length rows
        | _ -> -1);
      (match expect_ok c "SELECT S.SHARD, S.COUNTS FROM S IN SYS_SHARDS" with
      | P.Result_table { rows; _ } ->
          checkb "a stale retry was recorded" true
            (List.exists
               (fun row -> List.exists (fun cell ->
                    let nh = String.length cell in
                    let needle = "('stale_retries', 1)" in
                    let nn = String.length needle in
                    let rec go i = i + nn <= nh && (String.sub cell i nn = needle || go (i + 1)) in
                    go 0)
                  row)
               rows)
      | _ -> Alcotest.fail "expected SYS_SHARDS rows");
      Client.close c)

(* A shard that acknowledges the handshake and then never answers: the
   statement must come back 57S02 within the gather deadline. *)
let test_gather_deadline () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 8;
  let port = match Unix.getsockname listener with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
  let hang = Thread.create (fun () ->
      try
        while true do
          let fd, _ = Unix.accept listener in
          ignore
            (Thread.create
               (fun () ->
                 try
                   let rec loop () =
                     match P.recv_request fd with
                     | Some (P.Shard_join _) ->
                         P.send_response fd (P.Row_count { affected = 0; message = "joined" });
                         loop ()
                     | Some _ -> Thread.delay 3600. (* swallow the route, never answer *)
                     | None -> ()
                   in
                   loop ()
                 with _ -> ())
               ())
        done
      with _ -> ())
    ()
  in
  ignore hang;
  let members = [ { Shard_map.id = 0; primary = { Shard_map.host = "127.0.0.1"; port }; replica = None } ] in
  let coord = Coord.start { Coord.default_config with gather_deadline = 0.6; members } in
  Fun.protect
    ~finally:(fun () ->
      Coord.stop coord;
      try Unix.close listener with _ -> ())
    (fun () ->
      let c = connect_coord coord in
      let t0 = Unix.gettimeofday () in
      expect_code c "hung shard times out typed" P.err_shard_timeout "SELECT * FROM X IN T";
      let dt = Unix.gettimeofday () -. t0 in
      checkb (Printf.sprintf "bounded by the deadline (%.2fs)" dt) true (dt < 5.0);
      Client.close c)

(* A shard with a streaming replica: when the primary drops, pinned and
   fan-out *reads* keep answering from the replica, writes fail typed,
   and SYS_SHARDS says replica-reads. *)
let test_replica_fallback () =
  with_cluster ~n:2 ~replica_for:0 (fun coord shards ->
      let c = connect_coord coord in
      ignore (expect_ok c "CREATE TABLE T (K INT, V TEXT)");
      let k0 = key_on coord 0 and k1 = key_on coord 1 in
      ignore (expect_ok c (Printf.sprintf "INSERT INTO T VALUES (%d, 'on0'), (%d, 'on1')" k0 k1));
      (* let the replica catch up before the primary dies *)
      Thread.delay 0.3;
      Server.stop shards.(0);
      let rec settle n =
        match query c (Printf.sprintf "SELECT X.V FROM X IN T WHERE X.K = %d" k0) with
        | P.Result_table { rows = [ [ v ] ]; _ } -> checks "replica served the read" "'on0'" v
        | P.Error _ when n > 0 ->
            Thread.delay 0.2;
            settle (n - 1)
        | r ->
            Alcotest.fail
              (match r with
              | P.Error { code; message } -> "replica fallback failed: " ^ code ^ " " ^ message
              | _ -> "unexpected response shape")
      in
      settle 25;
      (* cross-shard read: one leg live, one leg via replica *)
      (match expect_ok c "SELECT X.K FROM X IN T" with
      | P.Result_table { rows; _ } -> checki "fan-out spans the replica" 2 (List.length rows)
      | _ -> Alcotest.fail "fan-out read failed");
      (match expect_ok c "SELECT S.SHARD, S.STATE FROM S IN SYS_SHARDS ORDER BY S.SHARD" with
      | P.Result_table { rows = [ [ _; s0 ]; _ ]; _ } -> checks "replica-reads state" "'replica-reads'" s0
      | _ -> Alcotest.fail "expected SYS_SHARDS rows");
      (* a write cannot fall back: typed shard-down (and the health
         state reflects the failed primary again) *)
      expect_code c "write to the dead primary fails typed" P.err_shard_down
        (Printf.sprintf "UPDATE T SET V = 'x' WHERE K = %d" k0);
      Client.close c)

(* --- the coordinator on the server loop ----------------------------------

   The coordinator is a request handler on Server's connection loop, so
   admission control, the idle timeout and the graceful stop hold for
   its clients exactly as for a plain node's. *)

let with_coord ~(server : Server.config) (f : Coord.t -> 'a) : 'a =
  let shard = Server.start server_config in
  let members =
    [ { Shard_map.id = 0; primary = { Shard_map.host = "127.0.0.1"; port = Server.port shard }; replica = None } ]
  in
  let coord = Coord.start ~server { Coord.default_config with members } in
  Fun.protect
    ~finally:(fun () ->
      Coord.stop coord;
      Server.stop shard)
    (fun () -> f coord)

(* A bare socket: reads what the loop sends unprompted (the Busy and
   idle-timeout frames) without a request racing the server's close. *)
let raw_connect (coord : Coord.t) =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Coord.port coord));
  fd

let test_coord_admission () =
  with_coord ~server:{ server_config with Server.max_sessions = 1 } (fun coord ->
      let a = connect_coord coord in
      checkb "first client admitted" true (Client.request a P.Ping = Some P.Pong);
      let fd = raw_connect coord in
      (match P.recv_response fd with
      | Some (P.Error { code; _ }) -> checks "second client busy" P.err_busy code
      | _ -> Alcotest.fail "second client should be refused with Busy");
      checkb "refused connection closed" true (P.recv_response fd = None);
      Unix.close fd;
      Client.close a;
      (* the slot frees once the first client's worker has exited *)
      let rec retry n =
        let b = connect_coord coord in
        match Client.request b P.Ping with
        | Some P.Pong -> Client.close b
        | _ when n > 0 ->
            Client.close b;
            Thread.delay 0.05;
            retry (n - 1)
        | _ -> Alcotest.fail "freed slot should admit the second client"
      in
      retry 40;
      checkb "rejection counted" true (Metrics.get (Coord.metrics coord) "connections_rejected" >= 1))

let test_coord_idle_timeout () =
  with_coord ~server:{ server_config with Server.idle_timeout = 0.3 } (fun coord ->
      let fd = raw_connect coord in
      (match P.recv_response fd with
      | Some (P.Error { code; message }) ->
          checks "idle close is a protocol error" P.err_protocol code;
          checks "idle message" "idle timeout, closing session" message
      | _ -> Alcotest.fail "silent client should be told it idled out");
      checkb "idle connection closed" true (P.recv_response fd = None);
      Unix.close fd;
      checki "idle close counted" 1 (Metrics.get (Coord.metrics coord) "sessions_idle_closed"))

let test_coord_stop_with_idle_client () =
  let shard = Server.start server_config in
  let members =
    [ { Shard_map.id = 0; primary = { Shard_map.host = "127.0.0.1"; port = Server.port shard }; replica = None } ]
  in
  let coord = Coord.start ~server:server_config { Coord.default_config with members } in
  let c = connect_coord coord in
  ignore (expect_ok c "CREATE TABLE T (K INT)");
  let stopped = Atomic.make false in
  ignore (Thread.create (fun () -> Coord.stop coord; Atomic.set stopped true) ());
  let rec wait n = if not (Atomic.get stopped) && n > 0 then (Thread.delay 0.05; wait (n - 1)) in
  wait 100;
  checkb "stop returns with an idle client connected" true (Atomic.get stopped);
  checkb "the idle client was disconnected" true (Client.request c P.Ping = None);
  Client.close c;
  Server.stop shard

let () =
  Alcotest.run "shard"
    [
      ( "map",
        [
          Alcotest.test_case "deterministic placement" `Quick test_map_deterministic;
          Alcotest.test_case "balanced arcs" `Quick test_map_balance;
          Alcotest.test_case "consistent-hash stability" `Quick test_map_stability;
          Alcotest.test_case "member parsing" `Quick test_parse_member;
        ] );
      ( "merge",
        [
          Alcotest.test_case "union and dedup" `Quick test_merge_union_dedup;
          Alcotest.test_case "k-way ordered merge" `Quick test_merge_sorted;
          Alcotest.test_case "re-aggregation" `Quick test_merge_reaggregate;
        ] );
      ( "differential",
        [
          Alcotest.test_case "1 node vs 2-shard cluster" `Quick test_differential_oracle;
          Alcotest.test_case "refusals, EXPLAIN, SYS_SHARDS" `Quick test_refusals_and_explain;
          Alcotest.test_case "prepared statements route" `Quick test_prepared_routed;
        ] );
      ( "faults",
        [
          Alcotest.test_case "kill one shard" `Quick test_kill_one_shard;
          Alcotest.test_case "shard gauges read live" `Quick test_shard_gauges_live;
          Alcotest.test_case "stale route self-heals" `Quick test_stale_route_self_heals;
          Alcotest.test_case "gather deadline" `Quick test_gather_deadline;
          Alcotest.test_case "replica read fallback" `Quick test_replica_fallback;
        ] );
      ( "server loop",
        [
          Alcotest.test_case "admission control" `Quick test_coord_admission;
          Alcotest.test_case "idle timeout" `Quick test_coord_idle_timeout;
          Alcotest.test_case "stop with an idle client" `Quick test_coord_stop_with_idle_client;
        ] );
    ]
