(* Cost-based planner + volcano executor battery.

   Three layers:
   - operator units for [Nf2_plan.Exec] (laziness, order, hash build);
   - plan-shape assertions: the planner must pick the access path the
     cost model promises at a given cardinality (index for selective
     equality, seq-scan when every row matches, intersection for the
     paper's Fig 7b conjunction, index paths on MVCC snapshots through
     the indexes frozen with each version);
   - a differential harness: every query runs once with the planner
     free and once with [set_plan_force_seq] — rendered results must be
     byte-equal, including ASOF reads, pinned-snapshot reads, and reads
     inside an open transaction. *)

module Atom = Nf2_model.Atom
module Value = Nf2_model.Value
module Rel = Nf2_algebra.Rel
module Tid = Nf2_storage.Tid
module Db = Nf2.Db
module Exec = Nf2_plan.Exec
module Plan = Nf2_plan.Plan
module Parser = Nf2_lang.Parser

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let is_infix needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* Offset of the first occurrence of [needle] in [hay]. *)
let index_of needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i =
    if i + n > h then Alcotest.failf "%S not in %s" needle hay
    else if String.sub hay i n = needle then i
    else go (i + 1)
  in
  go 0

(* --- Exec operator units ------------------------------------------------- *)

let test_exec_combinators () =
  Alcotest.(check (list int)) "of_list/to_list" [ 1; 2; 3 ] (Exec.to_list (Exec.of_list [ 1; 2; 3 ]));
  Alcotest.(check (list int)) "map" [ 2; 4 ] (Exec.to_list (Exec.map (( * ) 2) (Exec.of_list [ 1; 2 ])));
  Alcotest.(check (list int)) "filter" [ 2; 4 ]
    (Exec.to_list (Exec.filter (fun x -> x mod 2 = 0) (Exec.of_list [ 1; 2; 3; 4 ])));
  (* flat_map is depth-first in outer order: the nested-loop contract *)
  Alcotest.(check (list int)) "flat_map dfs" [ 10; 11; 20; 21 ]
    (Exec.to_list (Exec.flat_map (fun x -> [ x; x + 1 ]) (Exec.of_list [ 10; 20 ])));
  Alcotest.(check (list int)) "empty source" [] (Exec.to_list (Exec.of_list []));
  Alcotest.(check (list int)) "singleton" [ 7 ] (Exec.to_list (Exec.singleton 7))

let test_exec_laziness () =
  (* a pipeline built but never pulled does no work, and each pull
     expands only as much of the outer iterator as it needs *)
  let expanded = ref 0 in
  let it =
    Exec.flat_map
      (fun x ->
        incr expanded;
        [ x; x ])
      (Exec.of_list [ 1; 2; 3 ])
  in
  checki "no expansion before first pull" 0 !expanded;
  (match it () with Some 1 -> () | _ -> Alcotest.fail "first element");
  (match it () with Some 1 -> () | _ -> Alcotest.fail "second element");
  checki "one outer element expanded" 1 !expanded;
  ignore (Exec.to_list it);
  checki "each outer element expanded once" 3 !expanded

let test_exec_hash_build () =
  let probe =
    Exec.hash_build ~key:(fun x -> if x > 0 then Some (string_of_int (x mod 2)) else None) [ 1; 2; 3; -5 ]
  in
  Alcotest.(check (list int)) "probe odd, input order" [ 1; 3 ] (probe "1");
  Alcotest.(check (list int)) "probe even" [ 2 ] (probe "0");
  Alcotest.(check (list int)) "probe miss" [] (probe "9")

(* Candidate-set intersection: the linear merge over TID-sorted sets
   must equal the quadratic membership filter it replaced. *)
let prop_intersect_sorted =
  let tid_set =
    QCheck.(
      map
        (fun l -> List.sort_uniq Tid.compare (List.map (fun (p, s) -> { Tid.page = p; slot = s }) l))
        (small_list (pair (int_bound 6) (int_bound 6))))
  in
  let show l = String.concat ";" (List.map (fun t -> Printf.sprintf "%d.%d" t.Tid.page t.Tid.slot) l) in
  QCheck.Test.make ~name:"merge intersection = filter reference" ~count:500
    (QCheck.set_print (fun (a, b) -> show a ^ " | " ^ show b) (QCheck.pair tid_set tid_set))
    (fun (a, b) ->
      Nf2_plan.Driver.intersect_sorted a b = List.filter (fun t -> List.exists (Tid.equal t) b) a)

(* --- plan shapes ---------------------------------------------------------- *)

let demo_db () = Nf2.Demo.create ()

let tree_of db q =
  ignore (Db.exec1 db ("EXPLAIN " ^ q));
  match Db.last_plan_tree db with Some t -> t | None -> Alcotest.fail "no plan tree"

let test_explain_is_non_executing () =
  let db = demo_db () in
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (DNO)");
  let before = Nf2_storage.Buffer_pool.stats (Db.pool db) in
  let t = tree_of db "SELECT x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = 314" in
  let after = Nf2_storage.Buffer_pool.stats (Db.pool db) in
  checkb "index-scan chosen" true (Plan.uses_op "index-scan" t);
  checki "no pool traffic from EXPLAIN" before.Nf2_storage.Buffer_pool.hits
    after.Nf2_storage.Buffer_pool.hits;
  (* the planner's access counters do not move either: nothing executed *)
  let pc = Db.planner_counters db in
  checki "no scans counted" 0 (pc.Db.seq_scans + pc.Db.index_scans + pc.Db.index_intersections)

let test_plan_shapes () =
  let db = demo_db () in
  (* no index: sequential scan *)
  let t = tree_of db "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 314" in
  checkb "seq without index" true (Plan.uses_op "seq-scan" t);
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (DNO)");
  let t = tree_of db "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 314" in
  checkb "index-scan on selective equality" true (Plan.uses_op "index-scan" t);
  checkb "filter above access" true (Plan.uses_op "filter" t);
  checkb "project on top" true (Plan.uses_op "project" t);
  (* the paper's Fig 7b conjunction: two hierarchical indexes intersect *)
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (PROJECTS.PNO)");
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (PROJECTS.MEMBERS.FUNCTION)");
  let t =
    tree_of db
      "SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS : (y.PNO = 17 AND EXISTS z IN y.MEMBERS : z.FUNCTION = 'Consultant')"
  in
  checkb "index-intersect for Fig 7b" true (Plan.uses_op "index-intersect" t);
  (* ORDER BY adds a sort; set semantics add distinct *)
  let t = tree_of db "SELECT x.DNO FROM x IN DEPARTMENTS ORDER BY x.DNO" in
  checkb "sort for ORDER BY" true (Plan.uses_op "sort" t);
  let t = tree_of db "SELECT x.DNO FROM x IN DEPARTMENTS" in
  checkb "distinct for set result" true (Plan.uses_op "distinct" t);
  (* force_seq ablation: same query, no index ops *)
  Db.set_plan_force_seq db true;
  let t = tree_of db "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 314" in
  checkb "force_seq suppresses index" true
    (Plan.uses_op "seq-scan" t && not (Plan.exists (fun n -> n.Plan.op = "index-scan") t));
  Db.set_plan_force_seq db false

let test_stats_flip_to_seq () =
  (* one distinct key over many rows: selectivity 1 — the index fetches
     every object and must lose to the scan *)
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE U (K INT, V INT)");
  for i = 1 to 50 do
    ignore (Db.exec db (Printf.sprintf "INSERT INTO U VALUES (7, %d)" i))
  done;
  ignore (Db.exec db "CREATE INDEX ON U (K)");
  let t = tree_of db "SELECT x.V FROM x IN U WHERE x.K = 7" in
  checkb "useless index rejected" true (Plan.uses_op "seq-scan" t);
  (* many distinct keys: the same query shape flips to the index *)
  ignore (Db.exec db "CREATE TABLE W (K INT, V INT)");
  for i = 1 to 50 do
    ignore (Db.exec db (Printf.sprintf "INSERT INTO W VALUES (%d, %d)" i i))
  done;
  ignore (Db.exec db "CREATE INDEX ON W (K)");
  let t = tree_of db "SELECT x.V FROM x IN W WHERE x.K = 7" in
  checkb "selective index chosen" true (Plan.uses_op "index-scan" t)

let test_snapshot_plans_use_indexes () =
  (* a snapshot plans on the indexes frozen with its versions: after a
     live UPDATE moves DNO 314 to 999, the snapshot's index still finds
     314 and knows nothing of 999, and the live index says the reverse *)
  let db = demo_db () in
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (DNO)");
  let snap = Db.snapshot db in
  let point dno = Printf.sprintf "SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = %d" dno in
  let old_object = Rel.render (Db.query db (point 314)) in
  ignore (Db.exec db "UPDATE DEPARTMENTS SET DNO = 999 WHERE DNO = 314");
  let stmt q =
    match Parser.parse_script q with [ s ] -> s | _ -> Alcotest.fail "one stmt"
  in
  (match Db.exec_read db snap (stmt ("EXPLAIN " ^ point 314)) with
  | Db.Msg m ->
      checkb "index-scan follows the snapshot note" true
        (index_of "snapshot @ LSN" m < index_of "index-scan" m)
  | Db.Rows _ -> Alcotest.fail "EXPLAIN returned rows");
  (match Db.last_plan_tree db with
  | Some t -> checkb "snapshot plan probes the index" true (Plan.uses_op "index-scan" t)
  | None -> Alcotest.fail "no tree");
  let rows r = match r with Db.Rows rel -> Rel.cardinality rel | Db.Msg m -> Alcotest.fail m in
  let before = (Db.planner_counters db).Db.index_scans in
  (match Db.exec_read db snap (stmt (point 314)) with
  | Db.Rows rel -> checks "snapshot returns the old object" old_object (Rel.render rel)
  | Db.Msg m -> Alcotest.fail m);
  checki "snapshot read of 314 is one index scan" (before + 1) (Db.planner_counters db).Db.index_scans;
  checki "snapshot knows no 999" 0 (rows (Db.exec_read db snap (stmt (point 999))));
  checki "live knows no 314" 0 (rows (Db.exec1 db (point 314)));
  checki "live finds 999" 1 (rows (Db.exec1 db (point 999)));
  Db.release_snapshot db snap

let test_planner_counters () =
  let db = demo_db () in
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (DNO)");
  let base = Db.planner_counters db in
  ignore (Db.query db "SELECT x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = 314");
  let pc = Db.planner_counters db in
  checki "one index scan" (base.Db.index_scans + 1) pc.Db.index_scans;
  ignore (Db.query db "SELECT x.DNO FROM x IN DEPARTMENTS");
  let pc2 = Db.planner_counters db in
  checki "one seq scan" (pc.Db.seq_scans + 1) pc2.Db.seq_scans

(* A nested SELECT is a planned block like any other: its accesses are
   counted once per activation (three departments, three activations). *)
let test_nested_counters () =
  let db = demo_db () in
  ignore (Db.exec db "CREATE INDEX ON EMPLOYEES_1NF (EMPNO)");
  let q =
    "SELECT x.DNO, (SELECT e.LNAME FROM e IN EMPLOYEES_1NF WHERE e.EMPNO = 39582) = WHO FROM x \
     IN DEPARTMENTS"
  in
  let delta f =
    let a = Db.planner_counters db in
    f ();
    let b = Db.planner_counters db in
    (b.Db.seq_scans - a.Db.seq_scans, b.Db.index_scans - a.Db.index_scans)
  in
  let seq, idx = delta (fun () -> ignore (Db.query db q)) in
  checki "outer block scans once" 1 seq;
  checki "nested block probes per activation" 3 idx;
  Db.set_plan_force_seq db true;
  let seq, idx = delta (fun () -> ignore (Db.query db q)) in
  Db.set_plan_force_seq db false;
  checki "forced seq reaches the nested block" 4 seq;
  checki "no index probe when forced" 0 idx

(* Plans depend on the AST, the catalog and the statistics only, so a
   nested block is planned on its first activation and reused: the
   statistics provider sees the nested table once, not once per outer
   row. *)
let test_nested_plan_once () =
  let db = demo_db () in
  let asked = ref 0 in
  let stats name =
    if String.uppercase_ascii name = "EMPLOYEES_1NF" then incr asked;
    None
  in
  let q =
    Parser.parse_query_string
      "SELECT x.DNO, (SELECT e.LNAME FROM e IN EMPLOYEES_1NF WHERE e.EMPNO = x.MGRNO) = MGR FROM \
       x IN DEPARTMENTS"
  in
  let rel, _ = Nf2_plan.Driver.run ~stats (Db.catalog db) q in
  checki "three departments" 3 (Rel.cardinality rel);
  checki "nested block planned once" 1 !asked

(* --- differential: planner-chosen vs forced sequential -------------------- *)

let differential_queries =
  [
    "SELECT * FROM DEPARTMENTS";
    "SELECT x.DNO, x.MGRNO FROM x IN DEPARTMENTS WHERE x.DNO = 314";
    "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET >= 320000 AND x.BUDGET < 440000";
    "SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS : y.PNO = 17";
    "SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS : (y.PNO = 17 AND EXISTS z \
     IN y.MEMBERS : z.FUNCTION = 'Consultant')";
    "SELECT x.DNO, y.PNO FROM x IN DEPARTMENTS, y IN x.PROJECTS WHERE EXISTS z IN y.MEMBERS : \
     z.FUNCTION = 'Consultant'";
    "SELECT x.DNO, (SELECT y.PNO FROM y IN x.PROJECTS) = PROJECTS FROM x IN DEPARTMENTS";
    "SELECT x.DNO FROM x IN DEPARTMENTS ORDER BY x.BUDGET DESC";
    "SELECT d.DNO, e.ENO FROM d IN DEPARTMENTS, e IN EMPS WHERE d.MGRNO = e.ENO";
    "SELECT d.DNO, e.NAME FROM d IN DEPARTMENTS, e IN EMPS WHERE d.MGRNO = e.ENO ORDER BY d.DNO";
    "SELECT x.REPNO FROM x IN REPORTS WHERE x.TITLE CONTAINS '*onsisten*'";
    "SELECT x.DNO FROM x IN DEPARTMENTS WHERE ALL y IN x.PROJECTS : y.PNO > 0";
    (* nested blocks: an indexed constant predicate on a stored first
       range, and correlated equi-join sub-blocks with and without
       ORDER BY (Ex7's nested-to-flat join) *)
    "SELECT x.DNO, (SELECT e.LNAME, e.FNAME FROM e IN EMPLOYEES_1NF WHERE e.EMPNO = 39582) = WHO \
     FROM x IN DEPARTMENTS";
    "SELECT x.DNO, (SELECT e.NAME FROM e IN EMPS WHERE e.ENO = 123) = WHO FROM x IN DEPARTMENTS \
     WHERE x.DNO = 218";
    "SELECT x.DNO, (SELECT e.LNAME, z.FUNCTION FROM y IN x.PROJECTS, z IN y.MEMBERS, e IN \
     EMPLOYEES_1NF WHERE z.EMPNO = e.EMPNO) = STAFF FROM x IN DEPARTMENTS";
    "SELECT x.DNO, (SELECT e.LNAME, z.FUNCTION FROM y IN x.PROJECTS, z IN y.MEMBERS, e IN \
     EMPLOYEES_1NF WHERE z.EMPNO = e.EMPNO ORDER BY z.FUNCTION) = STAFF FROM x IN DEPARTMENTS";
    "SELECT d.DNO, (SELECT e.LNAME FROM m IN MEMBERS_1NF, e IN EMPLOYEES_1NF WHERE m.DNO = d.DNO \
     AND m.EMPNO = e.EMPNO) = STAFF FROM d IN DEPARTMENTS";
    "SELECT d.DNO, (SELECT e.LNAME, m.FUNCTION FROM m IN MEMBERS_1NF, e IN EMPLOYEES_1NF WHERE \
     m.DNO = d.DNO AND m.EMPNO = e.EMPNO ORDER BY m.FUNCTION DESC) = STAFF FROM d IN DEPARTMENTS";
    (* the equi conjunct of w names the later range z, and the outer
       block binds a z too: it must not become w's join probe *)
    "SELECT z.EMPNO, (SELECT w.PNO FROM d IN DEPARTMENTS_1NF, w IN MEMBERS_1NF, z IN \
     EMPLOYEES_1NF WHERE w.EMPNO = z.EMPNO AND w.DNO = d.DNO) = P FROM z IN EMPLOYEES_1NF WHERE \
     z.EMPNO = 39582";
  ]

let both_ways db q =
  Db.set_plan_force_seq db false;
  let auto = Rel.render (Db.query db q) in
  Db.set_plan_force_seq db true;
  let seq = Rel.render (Db.query db q) in
  Db.set_plan_force_seq db false;
  (auto, seq)

(* The paper's tables plus a flat side table, with every index kind the
   differential queries can use. *)
let differential_db () =
  let db = demo_db () in
  (* a flat side table for equi-join shapes *)
  ignore (Db.exec db "CREATE TABLE EMPS (ENO INT, NAME TEXT)");
  List.iter
    (fun (eno, name) -> ignore (Db.exec db (Printf.sprintf "INSERT INTO EMPS VALUES (%d, '%s')" eno name)))
    [ (110, "Smith"); (123, "Jones"); (201, "Chen"); (301, "Date") ];
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (DNO)");
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (PROJECTS.PNO)");
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (PROJECTS.MEMBERS.FUNCTION)");
  ignore (Db.exec db "CREATE INDEX ON EMPS (ENO)");
  ignore (Db.exec db "CREATE INDEX ON EMPLOYEES_1NF (EMPNO)");
  ignore (Db.exec db "CREATE TEXT INDEX ON REPORTS (TITLE)");
  db

let test_differential () =
  let db = differential_db () in
  List.iter
    (fun q ->
      let auto, seq = both_ways db q in
      checks q seq auto)
    differential_queries

(* Live tables vs a snapshot of them: every read statement has one
   implementation over a read view, so the live view and the view of a
   snapshot pinned right after the last commit render each statement
   the same, planner free or forced sequential.  The snapshot carries
   the indexes frozen at that commit, so both views also plan alike:
   every statement's plan tree has the same operators, plain EXPLAIN
   renders the same tree (the snapshot adds only its note line), and
   EXPLAIN ANALYZE is compared on its result line. *)
let test_live_vs_snapshot () =
  let db = differential_db () in
  let lsn0 = Db.current_snapshot_lsn db in
  ignore (Db.exec db "UPDATE DEPARTMENTS SET BUDGET = 1 WHERE DNO = 314");
  ignore (Db.exec db "CREATE TABLE HIST (K INT, N INT) WITH VERSIONS");
  ignore (Db.exec db "INSERT INTO HIST VALUES (1, 10)");
  ignore (Db.exec db "UPDATE HIST SET N = 20 WHERE K = 1 AT DATE '1985-01-01'");
  let battery =
    differential_queries
    @ [
        "SHOW TABLES";
        "DESCRIBE DEPARTMENTS";
        "DESCRIBE SYS_WAL";
        Printf.sprintf "SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS ASOF %d" lsn0;
        "SELECT x.N FROM x IN HIST ASOF DATE '1984-06-01'";
        "SELECT x.N FROM x IN HIST ASOF DATE '1985-06-01'";
        "EXPLAIN ANALYZE SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 314";
        "EXPLAIN ANALYZE SELECT d.DNO, e.NAME FROM d IN DEPARTMENTS, e IN EMPS WHERE d.MGRNO = e.ENO";
      ]
    @ List.map (fun q -> "EXPLAIN " ^ q) differential_queries
  in
  let render r =
    let s = Db.render_result r in
    let lines = String.split_on_char '\n' s in
    match List.find_opt (String.starts_with ~prefix:"result:") lines with
    | Some line when String.starts_with ~prefix:"plan:" s -> line
    | _ -> String.concat "\n" (List.filter (fun l -> not (is_infix "snapshot @ LSN" l)) lines)
  in
  let rec ops (n : Plan.node) = n.Plan.op :: List.concat_map ops n.Plan.children in
  let plan_ops () = Option.fold ~none:[] ~some:ops (Db.last_plan_tree db) in
  let snap = Db.snapshot db in
  List.iter
    (fun force_seq ->
      Db.set_plan_force_seq db force_seq;
      List.iter
        (fun q ->
          let stmt =
            match Parser.parse_script q with [ s ] -> s | _ -> Alcotest.fail "one stmt"
          in
          let what = Printf.sprintf "%s (force_seq %b)" q force_seq in
          let live = render (Db.exec_stmt db stmt) in
          let live_ops = plan_ops () in
          checks what live (render (Db.exec_read db snap stmt));
          Alcotest.(check (list string)) (what ^ ": plan operators") live_ops (plan_ops ()))
        battery)
    [ false; true ];
  Db.set_plan_force_seq db false;
  Db.release_snapshot db snap

(* Randomized workload over generator-scale data: every query template is
   instantiated with PRNG-drawn constants (some hitting, some missing) and
   run through both access paths.  Deterministic via Prng, so a failure
   reproduces; the failing query text is the check name. *)
let test_differential_randomized () =
  let module G = Nf2_workload.Generator in
  let module P = Nf2_workload.Paper_data in
  let params = { G.default_dept_params with G.departments = 60; seed = 11 } in
  let db = Db.create () in
  Db.register_table db P.departments (G.departments ~params ());
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (DNO)");
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (PROJECTS.PNO)");
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (PROJECTS.MEMBERS.FUNCTION)");
  let rng = Prng.create 2026 in
  let functions = [| "Leader"; "Consultant"; "Secretary"; "Staff"; "Engineer"; "Analyst" |] in
  let random_query () =
    (* dno in [100, 159] exists; [160, 170] misses.  pno in [2, 301]. *)
    let dno = Prng.in_range rng 100 170 in
    let pno = Prng.in_range rng 1 310 in
    let f = Prng.pick rng functions in
    let base =
      match Prng.int rng 6 with
      | 0 -> Printf.sprintf "SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = %d" dno
      | 1 ->
          let lo = Prng.in_range rng 100 900 * 1000 in
          Printf.sprintf
            "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET >= %d AND x.BUDGET < %d" lo
            (lo + (Prng.in_range rng 10 300 * 1000))
      | 2 ->
          Printf.sprintf "SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS : y.PNO = %d"
            pno
      | 3 ->
          Printf.sprintf
            "SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS : (y.PNO = %d AND \
             EXISTS z IN y.MEMBERS : z.FUNCTION = '%s')"
            pno f
      | 4 ->
          Printf.sprintf
            "SELECT x.DNO, y.PNO FROM x IN DEPARTMENTS, y IN x.PROJECTS WHERE x.DNO = %d AND \
             EXISTS z IN y.MEMBERS : z.FUNCTION = '%s'"
            dno f
      | _ ->
          Printf.sprintf
            "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO >= %d AND EXISTS y IN x.PROJECTS : \
             EXISTS z IN y.MEMBERS : z.FUNCTION = '%s'"
            dno f
    in
    if Prng.bool rng then base ^ " ORDER BY x.DNO DESC" else base
  in
  for _ = 1 to 50 do
    let q = random_query () in
    let auto, seq = both_ways db q in
    checks q seq auto
  done

(* Nested blocks over the flat table T (K, N), indexed on K: a constant
   indexed predicate, and a correlated self equi-join with and without
   ORDER BY. *)
let nested_snapshot_queries =
  [
    "SELECT x.K, (SELECT y.N FROM y IN T WHERE y.K = 3) = M FROM x IN T WHERE x.K < 6";
    "SELECT x.K, (SELECT z.K, z.N FROM y IN T, z IN T WHERE y.K = x.K AND z.N = y.N) = M FROM x \
     IN T WHERE x.K < 8";
    "SELECT x.K, (SELECT z.K, z.N FROM y IN T, z IN T WHERE y.K = x.K AND z.N = y.N ORDER BY \
     z.K DESC) = M FROM x IN T WHERE x.K < 8";
  ]

let test_differential_snapshot_and_txn () =
  let db = Db.create ~wal:true () in
  ignore (Db.exec db "CREATE TABLE T (K INT, N INT)");
  for i = 1 to 20 do
    ignore (Db.exec db (Printf.sprintf "INSERT INTO T VALUES (%d, %d)" i (i * i)))
  done;
  ignore (Db.exec db "CREATE INDEX ON T (K)");
  let lsn0 = Db.current_snapshot_lsn db in
  for i = 1 to 5 do
    ignore (Db.exec db (Printf.sprintf "UPDATE T SET N = 0 WHERE K = %d" i))
  done;
  let stmt_of q =
    match Parser.parse_script q with [ s ] -> s | _ -> Alcotest.fail "one stmt"
  in
  let snap = Db.snapshot db in
  let read q =
    Db.set_plan_force_seq db false;
    let auto = Db.render_result (Db.exec_read db snap (stmt_of q)) in
    Db.set_plan_force_seq db true;
    let seq = Db.render_result (Db.exec_read db snap (stmt_of q)) in
    Db.set_plan_force_seq db false;
    checks q seq auto
  in
  read "SELECT x.K, x.N FROM x IN T WHERE x.K = 3";
  read (Printf.sprintf "SELECT x.K, x.N FROM x IN T ASOF %d WHERE x.K = 3" lsn0);
  List.iter read nested_snapshot_queries;
  Db.release_snapshot db snap;
  (* reads inside an open transaction see uncommitted rows identically *)
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "INSERT INTO T VALUES (99, 1)");
  let auto, seq = both_ways db "SELECT x.N FROM x IN T WHERE x.K = 99" in
  checks "in-txn read" seq auto;
  checkb "uncommitted row visible" true (auto <> "");
  List.iter
    (fun q ->
      let auto, seq = both_ways db q in
      checks ("in-txn " ^ q) seq auto)
    (nested_snapshot_queries
    @ [ "SELECT x.K, (SELECT y.N FROM y IN T WHERE y.K = 99) = M FROM x IN T WHERE x.K < 3" ]);
  ignore (Db.exec db "ROLLBACK")

(* --- DML differential: planned targets vs forced-seq targets -------------

   An UPDATE, DELETE or subtable INSERT finds its objects through the
   planner; under [set_plan_force_seq] it visits every object.  Each
   statement below runs on two identical fresh databases, one each way:
   the affected count and every table's physical image (objects in
   scan order) must be byte-equal, and indexed reads afterwards must
   still agree with scans (the indexes were maintained). *)

let dml_db () =
  let module G = Nf2_workload.Generator in
  let module P = Nf2_workload.Paper_data in
  let db = Db.create () in
  let depts = G.departments ~params:{ G.default_dept_params with G.departments = 60; seed = 5 } () in
  Db.register_table db P.departments depts;
  Db.register_table db P.employees_1nf
    (List.filter
       (function Value.Atom (Atom.Int e) :: _ -> e < 10200 | _ -> false)
       (G.employees_for ~seed:5 depts));
  Db.register_table db P.reports (G.reports ~params:{ G.default_report_params with G.reports = 60 } ());
  ignore (Db.exec db "CREATE TABLE SHADOW (K INT, SUB TABLE (K INT, V INT))");
  ignore
    (Db.exec db
       ("INSERT INTO SHADOW VALUES "
       ^ String.concat ", "
           (List.init 40 (fun i -> Printf.sprintf "(%d, {(%d, 1), (%d, 2)})" (i mod 8) (i mod 5) i))));
  List.iter
    (fun ddl -> ignore (Db.exec db ddl))
    [
      "CREATE INDEX ON DEPARTMENTS (DNO)";
      "CREATE INDEX ON DEPARTMENTS (BUDGET)";
      "CREATE INDEX ON DEPARTMENTS (PROJECTS.PNO)";
      "CREATE INDEX ON DEPARTMENTS (PROJECTS.MEMBERS.FUNCTION)";
      "CREATE INDEX ON EMPLOYEES_1NF (EMPNO)";
      "CREATE TEXT INDEX ON REPORTS (TITLE)";
      "CREATE INDEX ON SHADOW (K)";
    ];
  db

let dml_tables = [ "DEPARTMENTS"; "EMPLOYEES_1NF"; "REPORTS"; "SHADOW" ]

(* Every object of every table, in scan order. *)
let table_image db =
  String.concat "\n"
    (List.concat_map
       (fun table ->
         table
         :: List.map
              (fun r -> Value.render_tuple (Db.fetch_tuple db ~table r))
              (Db.table_roots db ~table))
       dml_tables)

let dml_reads =
  [
    "SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = 117";
    "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO >= 1150";
    "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET < 400000";
    "SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS : y.PNO = 999";
    "SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS : EXISTS z IN y.MEMBERS : \
     z.FUNCTION = 'Boss'";
    "SELECT x.REPNO FROM x IN REPORTS WHERE x.TITLE CONTAINS '*computer*'";
    "SELECT x.K, x.SUB FROM x IN SHADOW WHERE x.K = 3";
  ]

(* (statement, access the planned run must take: `Index, `Intersect,
   `Seq for no index path, `Mixed for probed targets whose SET runs a
   scanning nested block) *)
let dml_statements =
  [
    (* value, range, CONTAINS, hierarchical intersection *)
    ("UPDATE DEPARTMENTS SET BUDGET = 1 WHERE DNO = 117", `Index);
    (* each bound of a range is its own candidate set *)
    ("UPDATE DEPARTMENTS SET MGRNO = 7 WHERE BUDGET >= 300000 AND BUDGET < 330000", `Intersect);
    ("DELETE FROM DEPARTMENTS WHERE DNO >= 150 AND DNO < 153", `Intersect);
    ("DELETE FROM REPORTS WHERE TITLE CONTAINS '*minicomputer*'", `Index);
    ( "UPDATE DEPARTMENTS SET BUDGET = 2 WHERE EXISTS y IN PROJECTS : (y.PNO = 17 AND EXISTS z \
       IN y.MEMBERS : z.FUNCTION = 'Consultant')",
      `Intersect );
    ("DELETE FROM DEPARTMENTS WHERE EXISTS y IN PROJECTS : y.PNO = 42", `Index);
    ("UPDATE DEPARTMENTS SET BUDGET = 5 WHERE DNO = 999", `Index);
    (* no index path: OR, a nested SELECT, EXISTS over a stored table,
       ALL, no WHERE at all *)
    ("DELETE FROM DEPARTMENTS WHERE DNO = 120 OR DNO = 121", `Seq);
    ( "UPDATE DEPARTMENTS SET BUDGET = 3 WHERE MGRNO = (SELECT e.EMPNO FROM e IN EMPLOYEES_1NF \
       WHERE e.EMPNO + 0 = 10001)",
      `Seq );
    ("UPDATE DEPARTMENTS SET BUDGET = 4 WHERE EXISTS e IN EMPLOYEES_1NF : e.EMPNO = MGRNO", `Seq);
    ("DELETE FROM DEPARTMENTS WHERE ALL y IN PROJECTS : y.PNO > 100", `Seq);
    ("UPDATE DEPARTMENTS SET BUDGET = 0", `Seq);
    (* each SET sees the targets changed before it: targets must be
       visited in scan order whichever path found them *)
    ( "UPDATE DEPARTMENTS SET BUDGET = MAX((SELECT x.BUDGET FROM x IN DEPARTMENTS)) + 1 WHERE \
       DNO >= 140",
      `Mixed );
    (* a SET of the indexed key: onto a fresh key, and onto a taken one *)
    ("UPDATE DEPARTMENTS SET DNO = DNO + 1000 WHERE DNO >= 150", `Index);
    ("UPDATE DEPARTMENTS SET DNO = 118 WHERE DNO = 117", `Index);
    (* subtable DML: a root conjunct probes, the element conjunct
       re-checks *)
    ("DELETE FROM DEPARTMENTS.PROJECTS WHERE DNO = 130 AND PNO > 0", `Index);
    ("UPDATE DEPARTMENTS.PROJECTS SET PNAME = 'X' WHERE DNO = 131 AND PNAME <> 'Y'", `Index);
    ("INSERT INTO DEPARTMENTS.PROJECTS WHERE DNO = 132 VALUES (999, 'NEW', {(1, 'Staff')})", `Index);
    ( "UPDATE DEPARTMENTS.PROJECTS.MEMBERS SET FUNCTION = 'Boss' WHERE DNO = 133 AND FUNCTION = \
       'Staff'",
      `Index );
    ( "DELETE FROM DEPARTMENTS.PROJECTS WHERE DNO = 134 AND EXISTS z IN MEMBERS : z.FUNCTION = \
       'Leader'",
      `Index );
    ("UPDATE DEPARTMENTS.PROJECTS SET PNAME = 'Z' WHERE PNO > 200", `Seq);
    (* the element's K shadows the row's indexed K: no root probe *)
    ("DELETE FROM SHADOW.SUB WHERE K = 3", `Seq);
    ("UPDATE SHADOW.SUB SET V = 9 WHERE K = 3 AND V = 1", `Seq);
    ("INSERT INTO SHADOW.SUB WHERE K = 3 VALUES (7, 7)", `Index);
  ]

let access_delta db f =
  let a = Db.planner_counters db in
  let r = f () in
  let b = Db.planner_counters db in
  ( r,
    ( b.Db.seq_scans - a.Db.seq_scans,
      b.Db.index_scans - a.Db.index_scans,
      b.Db.index_intersections - a.Db.index_intersections ) )

let test_dml_differential () =
  List.iter
    (fun (stmt, expect) ->
      let run force_seq =
        let db = dml_db () in
        Db.set_plan_force_seq db force_seq;
        let msg, counts = access_delta db (fun () -> Db.render_result (Db.exec1 db stmt)) in
        Db.set_plan_force_seq db false;
        (db, msg, table_image db, counts)
      in
      let pdb, pmsg, pimage, (pseq, pidx, pisect) = run false in
      let _, smsg, simage, (sseq, sidx, sisect) = run true in
      checks (stmt ^ ": affected") smsg pmsg;
      checks (stmt ^ ": resulting tables") simage pimage;
      (* top-level access of the statement itself; nested blocks add
         their own (the nested SELECT probes EMPLOYEES_1NF) *)
      let got =
        if pisect > 0 then `Intersect
        else if pidx > 0 then if pseq = 0 then `Index else `Mixed
        else `Seq
      in
      let name = function
        | `Index -> "index"
        | `Intersect -> "intersect"
        | `Mixed -> "index + nested scans"
        | `Seq -> "seq"
      in
      checks (stmt ^ ": planned access") (name expect) (name got);
      checki (stmt ^ ": forced-seq probes nothing") 0 (sidx + sisect);
      checkb (stmt ^ ": forced-seq scans") true (sseq >= 1);
      List.iter
        (fun q ->
          let auto, seq = both_ways pdb q in
          checks (stmt ^ " then " ^ q) seq auto)
        dml_reads)
    dml_statements

let () =
  Alcotest.run "plan"
    [
      ( "exec",
        [
          Alcotest.test_case "combinators" `Quick test_exec_combinators;
          Alcotest.test_case "laziness" `Quick test_exec_laziness;
          Alcotest.test_case "hash agg / build" `Quick test_exec_hash_build;
          QCheck_alcotest.to_alcotest prop_intersect_sorted;
        ] );
      ( "planner",
        [
          Alcotest.test_case "EXPLAIN does not execute" `Quick test_explain_is_non_executing;
          Alcotest.test_case "plan shapes" `Quick test_plan_shapes;
          Alcotest.test_case "cardinality flips the choice" `Quick test_stats_flip_to_seq;
          Alcotest.test_case "snapshot plans use indexes" `Quick test_snapshot_plans_use_indexes;
          Alcotest.test_case "access-path counters" `Quick test_planner_counters;
          Alcotest.test_case "nested block counters" `Quick test_nested_counters;
          Alcotest.test_case "nested block planned once" `Quick test_nested_plan_once;
        ] );
      ( "differential",
        [
          Alcotest.test_case "forced-seq vs planner" `Quick test_differential;
          Alcotest.test_case "randomized workload" `Quick test_differential_randomized;
          Alcotest.test_case "snapshots and transactions" `Quick test_differential_snapshot_and_txn;
          Alcotest.test_case "live vs snapshot" `Quick test_live_vs_snapshot;
          Alcotest.test_case "DML: forced-seq vs planner" `Quick test_dml_differential;
        ] );
    ]
