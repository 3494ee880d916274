(* Cost-based planner + compiled executor battery.

   Four layers:
   - the hash-join build of [Nf2_plan.Exec];
   - plan-shape assertions: the planner must pick the access path the
     cost model promises at a given cardinality (index for selective
     equality, seq-scan when every row matches, intersection for the
     paper's Fig 7b conjunction, index paths on MVCC snapshots through
     the indexes frozen with each version);
   - a differential harness: every query runs once with the planner
     free and once with [set_plan_force_seq] — rendered results must be
     byte-equal, including ASOF reads, pinned-snapshot reads, and reads
     inside an open transaction;
   - oracles: seeded random queries and DML statements checked against
     [Ref_eval], a name-keyed nested-loop interpreter. *)

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

(* --- hash-join build ------------------------------------------------------ *)

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
      Nf2_plan.Planner.intersect_sorted a b = List.filter (fun t -> List.exists (Tid.equal t) b) a)

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

(* WHERE pushdown.  In the nested-report unnest the DNO band is
   checked at range x, on the departments the index yields (the strict
   upper bound probes inclusively: 21), not on the 800 unnested
   bindings; EXPLAIN and EXPLAIN ANALYZE say where.  A conjunct with a
   division may raise, so it stays after all ranges. *)
let test_conjunct_placement () =
  let module G = Nf2_workload.Generator in
  let module P = Nf2_workload.Paper_data in
  let db = Db.create () in
  Db.register_table db P.departments
    (G.departments ~params:{ G.default_dept_params with G.departments = 400; seed = 1 } ());
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (DNO)");
  let unnest =
    "SELECT x.DNO, x.MGRNO, y.PNO, y.PNAME, z.EMPNO, z.FUNCTION FROM x IN DEPARTMENTS, y IN \
     x.PROJECTS, z IN y.MEMBERS WHERE x.DNO >= 200 AND x.DNO < 220"
  in
  let divided = unnest ^ " AND x.BUDGET / 1000 > 0" in
  let band = "filter at x: (x.DNO >= 200 AND x.DNO < 220)" in
  let explain = Db.render_result (Db.exec1 db ("EXPLAIN " ^ unnest)) in
  checkb ("EXPLAIN names x:\n" ^ explain) true (is_infix band explain);
  checkb "nothing after all ranges" false (is_infix "after all ranges" explain);
  let explain = Db.render_result (Db.exec1 db ("EXPLAIN " ^ divided)) in
  checkb ("division after all ranges:\n" ^ explain) true
    (is_infix band explain && is_infix "filter after all ranges: (x.BUDGET / 1000) > 0" explain);
  let analyze = Db.render_result (Db.exec1 db ("EXPLAIN ANALYZE " ^ unnest)) in
  checkb ("EXPLAIN ANALYZE names x and counts:\n" ^ analyze) true
    (is_infix band analyze && is_infix "filter.evals" analyze);
  let snap = Db.snapshot db in
  let evals sql label =
    let tr = Db.new_trace db in
    (match Db.exec_read ~trace:tr db snap (Parser.parse_one sql) with
    | Db.Rows rel -> checki (sql ^ ": rows") 800 (Rel.cardinality rel)
    | Db.Msg m -> Alcotest.fail m);
    match Nf2_obs.Trace.find tr label with
    | Some n -> List.assoc_opt "filter.evals" n.Nf2_obs.Trace.counters
    | None -> Alcotest.failf "no span %s" label
  in
  let checko = Alcotest.(check (option int)) in
  checko "band checked at x" (Some 21) (evals unnest "scan DEPARTMENTS");
  checko "nothing checked at z" None (evals unnest "unnest z IN y.MEMBERS");
  checko "the division is checked on every binding" (Some 800) (evals divided "query");
  checko "the band still prunes at x" (Some 21) (evals divided "scan DEPARTMENTS");
  Db.release_snapshot db snap

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

(* --- random NF2 queries against the reference evaluator ------------------

   A seeded generator writes SELECT blocks over DEPARTMENTS (two levels
   of subtables), EMPLOYEES_1NF, REPORTS (a list-valued AUTHORS) and
   the versioned HIST: ranges over subtables at depth 1-2, qualified and
   unqualified attributes, nested EXISTS / ALL, correlated nested
   SELECTs in the select list, list subscripts, CONTAINS, arithmetic,
   aggregates, ORDER BY (DESC, keys not selected), DISTINCT, ASOF and
   flat-to-nested joins.  Each query runs through [Ref_eval], a plain
   name-keyed nested-loop interpreter, and through the engine three
   ways: planned on the live tables, forced sequential, and on a
   snapshot.  Where the reference answers, every engine run must answer
   the same bytes; where it raises, the engine may raise or answer. *)

type kind = K_dept | K_proj | K_memb | K_equip | K_emp | K_rep | K_auth | K_desc | K_hist

let int_attrs = function
  | K_dept -> [ "DNO"; "MGRNO"; "BUDGET" ]
  | K_proj -> [ "PNO" ]
  | K_memb | K_emp -> [ "EMPNO" ]
  | K_equip -> [ "QU" ]
  | K_hist -> [ "K"; "N" ]
  | K_rep | K_auth | K_desc -> []

let str_attrs = function
  | K_proj -> [ "PNAME" ]
  | K_memb -> [ "FUNCTION" ]
  | K_equip -> [ "TYPE" ]
  | K_emp -> [ "LNAME"; "FNAME"; "SEX" ]
  | K_rep -> [ "REPNO"; "TITLE" ]
  | K_auth -> [ "NAME" ]
  | K_desc -> [ "WORD" ]
  | K_dept | K_hist -> []

let sub_attrs = function
  | K_dept -> [ ("PROJECTS", K_proj); ("EQUIP", K_equip) ]
  | K_proj -> [ ("MEMBERS", K_memb) ]
  | K_rep -> [ ("AUTHORS", K_auth); ("DESCRIPTORS", K_desc) ]
  | _ -> []

(* Every atom of the given tables, by attribute name: constants drawn
   from here hit. *)
let atom_pools (tables : (Nf2_model.Schema.table * Value.tuple list) list) =
  let module Schema = Nf2_model.Schema in
  let pools : (string, Atom.t list) Hashtbl.t = Hashtbl.create 32 in
  let add name a =
    let name = String.uppercase_ascii name in
    let old = Option.value ~default:[] (Hashtbl.find_opt pools name) in
    if not (List.mem a old) then Hashtbl.replace pools name (a :: old)
  in
  let rec walk (tbl : Schema.table) tup =
    List.iter2
      (fun (f : Schema.field) v ->
        match v with
        | Value.Atom (Atom.Str s as a) when not (String.contains s '\'') -> add f.Schema.name a
        | Value.Atom ((Atom.Int _ | Atom.Float _) as a) -> add f.Schema.name a
        | Value.Atom _ -> ()
        | Value.Table t -> (
            match f.Schema.attr with
            | Schema.Table sub -> List.iter (walk sub) t.Value.tuples
            | Schema.Atomic _ -> ()))
      tbl.Schema.fields tup
  in
  List.iter (fun (tbl, rows) -> List.iter (walk tbl) rows) tables;
  pools

(* A variable in scope: its name ("" writes its attributes unqualified,
   as DML predicates do) and what it ranges over. *)
type gvar = { gname : string; gkind : kind }

let query_gen rng pools =
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "V%d" !counter
  in
  let chance k = Prng.int rng 100 < k in
  let pick l = Prng.pick_list rng l in
  let lit = function
    | Atom.Int i -> string_of_int i
    | Atom.Float f -> Printf.sprintf "%.2f" f
    | Atom.Str s -> "'" ^ s ^ "'"
    | a -> Atom.to_string a
  in
  let const attr ~str =
    match Hashtbl.find_opt pools attr with
    | Some pool when chance 80 -> lit (pick pool)
    | _ -> if str then pick [ "'zz'"; "'Leader'"; "'PC/AT'" ] else string_of_int (Prng.int rng 1000)
  in
  let qual v a = if v.gname = "" then a else v.gname ^ "." ^ a in
  let with_attrs f scope = List.filter (fun v -> f v.gkind <> []) scope in
  (* an attribute reference: unqualified now and then (the innermost
     owner wins) *)
  let attr_ref v a = if chance 15 then a else qual v a in
  let int_path scope =
    match with_attrs int_attrs scope with
    | [] -> None
    | vs ->
        let v = pick vs in
        let a = pick (int_attrs v.gkind) in
        Some (attr_ref v a, a)
  in
  let arith (e, a) =
    if chance 80 then (e, a)
    else
      ( (match Prng.int rng 5 with
        | 0 -> e ^ " + 1"
        | 1 -> e ^ " * 2"
        | 2 -> e ^ " - 7"
        | 3 -> e ^ " / " ^ pick [ "2"; "0"; "1000" ]
        | _ -> "-" ^ e),
        a )
  in
  let cmp () = pick [ "="; "<>"; "<"; "<="; ">"; ">=" ] in
  let rec pred scope depth =
    let leaf () =
      match int_path scope with
      | Some p ->
          let e, a = arith p in
          Printf.sprintf "%s %s %s" e (cmp ()) (const a ~str:false)
      | None -> "1 = 1"
    in
    match Prng.int rng (if depth > 0 then 11 else 6) with
    | 0 | 1 | 2 -> leaf ()
    | 3 -> (
        match with_attrs str_attrs scope with
        | [] -> leaf ()
        | vs ->
            let v = pick vs in
            let a = pick (str_attrs v.gkind) in
            Printf.sprintf "%s %s %s" (attr_ref v a) (pick [ "="; "<>" ]) (const a ~str:true))
    | 4 -> (
        match with_attrs str_attrs scope with
        | [] -> leaf ()
        | vs ->
            let v = pick vs in
            let a = pick (str_attrs v.gkind) in
            let frag =
              match Hashtbl.find_opt pools a with
              | Some pool -> (
                  match pick pool with
                  | Atom.Str s when String.length s >= 3 ->
                      String.sub s (Prng.int rng (String.length s - 2)) 3
                  | _ -> "zz")
              | None -> "zz"
            in
            Printf.sprintf "%s CONTAINS '*%s*'" (qual v a) frag)
    | 5 -> (
        match List.filter (fun v -> v.gkind = K_rep) scope with
        | [] -> leaf ()
        | vs ->
            let v = pick vs in
            let k = Prng.in_range rng 1 3 in
            if chance 50 then Printf.sprintf "%s[%d].NAME = %s" (qual v "AUTHORS") k (const "NAME" ~str:true)
            else Printf.sprintf "%s[%d] = %s" (qual v "AUTHORS") k (const "NAME" ~str:true))
    | 6 | 7 -> (
        match with_attrs sub_attrs scope with
        | [] -> leaf ()
        | vs ->
            let v = pick vs in
            let sub, k = pick (sub_attrs v.gkind) in
            let w = { gname = fresh (); gkind = k } in
            let src = if chance 25 then sub else qual v sub in
            Printf.sprintf "%s %s IN %s : (%s)" (if chance 60 then "EXISTS" else "ALL") w.gname src
              (pred (w :: scope) (depth - 1)))
    | 8 -> Printf.sprintf "NOT (%s)" (pred scope (depth - 1))
    | 9 -> Printf.sprintf "(%s OR %s)" (pred scope (depth - 1)) (pred scope (depth - 1))
    | _ -> (
        match with_attrs sub_attrs scope with
        | [] -> leaf ()
        | vs ->
            let v = pick vs in
            let sub, _ = pick (sub_attrs v.gkind) in
            Printf.sprintf "COUNT(%s) %s %d" (qual v sub) (cmp ()) (Prng.int rng 4))
  in
  let where scope depth n =
    List.init n (fun _ -> pred scope depth) |> String.concat " AND "
  in
  (* a nested SELECT over a subtable of [v], correlated or not *)
  let rec nested scope depth =
    match with_attrs sub_attrs scope with
    | [] -> None
    | vs ->
        let v = pick vs in
        let sub, k = pick (sub_attrs v.gkind) in
        let w = { gname = fresh (); gkind = k } in
        let scope' = w :: scope in
        let items =
          List.init (Prng.in_range rng 1 2) (fun _ -> item scope' (depth - 1) ~allow_agg:false)
        in
        let wh = if chance 40 then " WHERE " ^ where scope' 1 1 else "" in
        let ob =
          if chance 25 then
            match int_path [ w ] with Some (e, _) -> " ORDER BY " ^ e ^ if chance 50 then " DESC" else "" | None -> ""
          else ""
        in
        Some
          (Printf.sprintf "(SELECT %s%s FROM %s IN %s%s%s)" (if chance 20 then "DISTINCT " else "")
             (String.concat ", " items) w.gname (qual v sub) wh ob)
  and item scope depth ~allow_agg =
    let plain () =
      let v = pick scope in
      let attrs = int_attrs v.gkind @ str_attrs v.gkind in
      if attrs = [] then v.gname ^ "." ^ fst (List.hd (sub_attrs v.gkind)) else attr_ref v (pick attrs)
    in
    match Prng.int rng 9 with
    | 0 | 1 | 2 -> plain ()
    | 3 -> ( match int_path scope with Some p -> fst (arith p) | None -> plain ())
    | 4 when depth > 0 -> (
        match nested scope depth with Some s -> s ^ " = " ^ String.uppercase_ascii (fresh ()) | None -> plain ())
    | 5 when allow_agg -> (
        match with_attrs sub_attrs scope with
        | [] -> plain ()
        | vs -> (
            let v = pick vs in
            let sub, k = pick (sub_attrs v.gkind) in
            match int_attrs k with
            | a :: _ ->
                Printf.sprintf "%s(%s.%s)" (pick [ "COUNT"; "SUM"; "MIN"; "MAX"; "AVG" ]) (qual v sub) a
            | [] -> Printf.sprintf "COUNT(%s)" (qual v sub)))
    | 6 when allow_agg && depth > 0 -> (
        match nested scope depth with
        | Some s -> Printf.sprintf "%s(%s)" (pick [ "COUNT"; "MAX"; "MIN" ]) s
        | None -> plain ())
    | 7 -> (
        match List.filter (fun v -> v.gkind = K_rep) scope with
        | [] -> plain ()
        | v :: _ -> Printf.sprintf "%s[%d]%s" (qual v "AUTHORS") (Prng.in_range rng 1 2) (if chance 50 then ".NAME" else ""))
    | 8 -> (
        (* a whole subtable, or its implicit projection *)
        match with_attrs sub_attrs scope with
        | [] -> plain ()
        | vs ->
            let v = pick vs in
            let sub, k = pick (sub_attrs v.gkind) in
            let attrs = int_attrs k @ str_attrs k in
            if chance 50 || attrs = [] then qual v sub else qual v sub ^ "." ^ pick attrs)
    | _ -> plain ()
  in
  let next_query () =
    counter := 0;
    let root_kind, root_src =
      match Prng.int rng 10 with
      | 0 | 1 | 2 | 3 | 4 -> (K_dept, "DEPARTMENTS")
      | 5 | 6 -> (K_rep, "REPORTS")
      | 7 -> (K_emp, "EMPLOYEES_1NF")
      | _ ->
          ( K_hist,
            if chance 60 then Printf.sprintf "HIST ASOF DATE '%s'" (pick [ "1984-06-01"; "1985-06-01"; "1986-06-01" ])
            else "HIST" )
    in
    let root = { gname = fresh (); gkind = root_kind } in
    let ranges = ref [ Printf.sprintf "%s IN %s" root.gname root_src ] in
    let scope = ref [ root ] in
    let joins = ref [] in
    for _ = 1 to Prng.int rng 3 do
      match with_attrs sub_attrs !scope with
      | vs when vs <> [] && chance 70 ->
          let v = pick vs in
          let sub, k = pick (sub_attrs v.gkind) in
          let w = { gname = fresh (); gkind = k } in
          ranges := !ranges @ [ Printf.sprintf "%s IN %s" w.gname (if chance 20 then sub else v.gname ^ "." ^ sub) ];
          scope := w :: !scope
      | _ -> (
          (* a flat-to-nested join on an employee number *)
          let keyed = List.filter (fun v -> List.mem v.gkind [ K_dept; K_memb; K_emp ]) !scope in
          match keyed with
          | [] -> ()
          | vs ->
              let v = pick vs in
              let e = { gname = fresh (); gkind = K_emp } in
              ranges := !ranges @ [ Printf.sprintf "%s IN EMPLOYEES_1NF" e.gname ];
              let key = if v.gkind = K_dept then "MGRNO" else "EMPNO" in
              joins := Printf.sprintf "%s.%s = %s.EMPNO" v.gname key e.gname :: !joins;
              scope := e :: !scope)
    done;
    let scope = !scope in
    let conds = !joins @ List.init (Prng.int rng 3) (fun _ -> pred scope 2) in
    let select =
      if chance 8 then "*"
      else String.concat ", " (List.init (Prng.in_range rng 1 3) (fun _ -> item scope 2 ~allow_agg:true))
    in
    let order =
      if chance 30 then
        " ORDER BY "
        ^ String.concat ", "
            (List.init (Prng.in_range rng 1 2) (fun _ ->
                 (match int_path scope with Some (e, _) -> fst (arith (e, "")) | None -> root.gname ^ ".REPNO")
                 ^ if chance 50 then " DESC" else ""))
      else ""
    in
    Printf.sprintf "SELECT %s%s FROM %s%s%s" (if chance 15 then "DISTINCT " else "") select
      (String.concat ", " !ranges)
      (if conds = [] then "" else " WHERE " ^ String.concat " AND " conds)
      order
  in
  let next_where scope =
    counter := 0;
    where scope 2 (Prng.in_range rng 1 2)
  in
  (next_query, next_where)

(* The paper's tables plus the versioned HIST, with every index kind
   the planner can choose. *)
let oracle_db () =
  let db = differential_db () in
  ignore (Db.exec db "CREATE TABLE HIST (K INT, N INT) WITH VERSIONS");
  ignore (Db.exec db "INSERT INTO HIST VALUES (1, 10), (2, 20), (3, 30)");
  ignore (Db.exec db "UPDATE HIST SET N = 11 WHERE K = 1 AT DATE '1985-01-01'");
  ignore (Db.exec db "DELETE FROM HIST WHERE K = 3 AT DATE '1986-01-01'");
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (MGRNO)");
  db

let answer f =
  match f () with
  | rel -> Ok rel
  | exception
      ( Nf2_lang.Eval.Eval_error m
      | Nf2_model.Schema.Schema_error m
      | Nf2_model.Value.Value_error m
      | Db.Db_error m ) ->
      Error m

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

(* Random UPDATE / DELETE / subtable DML against the reference
   evaluator: the reference decides, object by object and element by
   element, which ones the predicate selects and what the statement
   leaves behind; the engine, planned or forced sequential, must report
   the same count and leave the same table.  Predicates come from the
   query generator, written unqualified as DML predicates are. *)
let dml_tuples db table = List.map (Db.fetch_tuple db ~table) (Db.table_roots db ~table)

let random_dml_vs_reference () =
  let module S = Nf2_model.Schema in
  let probe = dml_db () in
  let catalog = Db.catalog probe in
  let table name =
    match catalog name with Some st -> st.Nf2_lang.Eval.schema.S.table | None -> Alcotest.fail name
  in
  let dept = table "DEPARTMENTS" in
  let _, next_where = query_gen (Prng.create 2608) (atom_pools [ (dept, dml_tuples probe "DEPARTMENTS") ]) in
  let row = { gname = ""; gkind = K_dept } in
  let proj = { gname = ""; gkind = K_proj } and memb = { gname = ""; gkind = K_memb } in
  let set_field (tbl : S.table) tup name v =
    match S.find_field tbl name with
    | Some (i, _) -> List.mapi (fun j x -> if j = i then v else x) tup
    | None -> Alcotest.fail name
  in
  (* the elements of the subtable at [path] inside [tup], each replaced
     by [f env elem] (a list: empty deletes it) *)
  let rec map_elements (tbl : S.table) tup env path f =
    match path with
    | [] -> tup
    | attr :: rest -> (
        let _, fd = S.field_exn tbl attr in
        match fd.S.attr, Value.field tbl tup attr with
        | S.Table sub, Value.Table inner ->
            let elems =
              List.concat_map
                (fun etup ->
                  let env = ("#elem", (sub, etup)) :: env in
                  if rest = [] then f env sub etup else [ map_elements sub etup env rest f ])
                inner.Value.tuples
            in
            set_field tbl tup attr (Value.Table { inner with Value.tuples = elems })
        | _ -> tup)
  in
  let rng = Prng.create 2609 in
  let checked = ref 0 and changed = ref 0 in
  for i = 1 to 40 do
    let db = dml_db () in
    let catalog = Db.catalog db in
    let before = dml_tuples db "DEPARTMENTS" in
    let holds env sql_where =
      Ref_eval.eval_pred catalog env
        (match Parser.parse_one ("DELETE FROM DEPARTMENTS WHERE " ^ sql_where) with
        | Nf2_lang.Ast.Delete { where = Some w; _ } -> w
        | _ -> Alcotest.fail sql_where)
    in
    let count = ref 0 in
    let sql, expect =
      match Prng.int rng 6 with
      | 0 ->
          let w = next_where [ row ] in
          ( "DELETE FROM DEPARTMENTS WHERE " ^ w,
            fun () ->
              let kept = List.filter (fun t -> not (holds (Ref_eval.row_env dept t) w)) before in
              (kept, Printf.sprintf "%d row(s) deleted from DEPARTMENTS" (List.length before - List.length kept))
          )
      | 1 ->
          let w = next_where [ row ] in
          ( "UPDATE DEPARTMENTS SET BUDGET = BUDGET + 1 WHERE " ^ w,
            fun () ->
              let after =
                List.map
                  (fun t ->
                    if holds (Ref_eval.row_env dept t) w then begin
                      incr count;
                      match Value.field dept t "BUDGET" with
                      | Value.Atom (Atom.Int b) -> set_field dept t "BUDGET" (Value.int_ (b + 1))
                      | _ -> t
                    end
                    else t)
                  before
              in
              (after, Printf.sprintf "%d row(s) updated in DEPARTMENTS" !count) )
      | 2 ->
          let w = next_where [ proj; row ] in
          ( "DELETE FROM DEPARTMENTS.PROJECTS WHERE " ^ w,
            fun () ->
              let after =
                List.map
                  (fun t ->
                    map_elements dept t (Ref_eval.row_env dept t) [ "PROJECTS" ] (fun env _ e ->
                        if holds env w then (incr count; []) else [ e ]))
                  before
              in
              (after, Printf.sprintf "%d element(s) deleted from PROJECTS" !count) )
      | 3 ->
          let w = next_where [ proj; row ] in
          ( "UPDATE DEPARTMENTS.PROJECTS SET PNAME = 'X' WHERE " ^ w,
            fun () ->
              let after =
                List.map
                  (fun t ->
                    map_elements dept t (Ref_eval.row_env dept t) [ "PROJECTS" ] (fun env sub e ->
                        if holds env w then (incr count; [ set_field sub e "PNAME" (Value.str "X") ]) else [ e ]))
                  before
              in
              (after, Printf.sprintf "%d element(s) updated in PROJECTS" !count) )
      | 4 ->
          let w = next_where [ memb; proj; row ] in
          ( "UPDATE DEPARTMENTS.PROJECTS.MEMBERS SET FUNCTION = 'Boss' WHERE " ^ w,
            fun () ->
              let after =
                List.map
                  (fun t ->
                    map_elements dept t (Ref_eval.row_env dept t) [ "PROJECTS"; "MEMBERS" ] (fun env sub e ->
                        if holds env w then (incr count; [ set_field sub e "FUNCTION" (Value.str "Boss") ])
                        else [ e ]))
                  before
              in
              (after, Printf.sprintf "%d element(s) updated in PROJECTS.MEMBERS" !count) )
      | _ ->
          let w = next_where [ row ] in
          ( "INSERT INTO DEPARTMENTS.PROJECTS WHERE " ^ w ^ " VALUES (999, 'NEW', {(1, 'Staff')})",
            fun () ->
              let fresh =
                [ Value.int_ 999; Value.str "NEW"; Value.set [ [ Value.int_ 1; Value.str "Staff" ] ] ]
              in
              let after =
                List.map
                  (fun t ->
                    if holds (Ref_eval.row_env dept t) w then begin
                      incr count;
                      match Value.field dept t "PROJECTS" with
                      | Value.Table inner ->
                          set_field dept t "PROJECTS"
                            (Value.Table { inner with Value.tuples = inner.Value.tuples @ [ fresh ] })
                      | _ -> t
                    end
                    else t)
                  before
              in
              (after, Printf.sprintf "1 row(s) inserted into PROJECTS of %d object(s)" !count) )
    in
    match answer expect with
    | Error _ -> () (* the reference raises: the engine may raise or answer *)
    | Ok (image, msg) ->
        incr checked;
        if not (List.length image = List.length before && List.for_all2 Value.equal_tuple image before) then
          incr changed;
        let force_seq = i mod 2 = 0 in
        Db.set_plan_force_seq db force_seq;
        let got =
          match answer (fun () -> Db.render_result (Db.exec1 db sql)) with Ok m -> m | Error m -> "error: " ^ m
        in
        Db.set_plan_force_seq db false;
        let what = Printf.sprintf "%s (force_seq %b)" sql force_seq in
        checks (what ^ ": affected") msg got;
        let after = dml_tuples db "DEPARTMENTS" in
        let render ts = String.concat "\n" (List.map Value.render_tuple ts) in
        if not (List.length after = List.length image && List.for_all2 Value.equal_tuple image after) then
          checks (what ^ ": resulting table") (render image) (render after)
  done;
  (* most statements must be decided by the reference, and change data *)
  checkb (Printf.sprintf "%d of 40 statements checked, %d changed data" !checked !changed) true
    (!checked >= 30 && !changed >= 15)

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
    dml_statements;
  random_dml_vs_reference ()

let test_random_queries_vs_reference () =
  let db = oracle_db () in
  let catalog = Db.catalog db in
  let tables = [ "DEPARTMENTS"; "EMPLOYEES_1NF"; "REPORTS"; "HIST" ] in
  let pools =
    atom_pools
      (List.filter_map
         (fun name ->
           Option.map
             (fun (st : Nf2_lang.Eval.source_table) ->
               (st.Nf2_lang.Eval.schema.Nf2_model.Schema.table, st.Nf2_lang.Eval.scan Nf2_lang.Eval.Current))
             (catalog name))
         tables)
  in
  let next, _ = query_gen (Prng.create 2607) pools in
  let snap = Db.snapshot db in
  let answered = ref 0 and nonempty = ref 0 in
  let n = 600 in
  for _ = 1 to n do
    let sql = next () in
    let q = Parser.parse_query_string sql in
    match answer (fun () -> Ref_eval.run catalog q) with
    | Error _ -> ()
    | Ok rel ->
        incr answered;
        if Rel.cardinality rel > 0 then incr nonempty;
        let expected = Rel.render rel in
        let run force_seq f =
          Db.set_plan_force_seq db force_seq;
          let r = answer f in
          Db.set_plan_force_seq db false;
          r
        in
        let show = function Ok r -> Rel.render r | Error m -> "error: " ^ m in
        let live = run false (fun () -> Db.query db sql) in
        checks (sql ^ " (planned)") expected (show live);
        checks (sql ^ " (forced seq)") expected (show (run true (fun () -> Db.query db sql)));
        let snapshot () =
          match Db.exec_read db snap (Nf2_lang.Ast.Select q) with
          | Db.Rows rel -> rel
          | Db.Msg m -> Alcotest.fail m
        in
        checks (sql ^ " (snapshot)") expected (show (run false snapshot))
  done;
  Db.release_snapshot db snap;
  (* the generator must mostly write queries that answer *)
  checkb (Printf.sprintf "%d of %d queries answered" !answered n) true (!answered * 10 >= n * 6);
  checkb (Printf.sprintf "%d of %d answers have rows" !nonempty !answered) true (!nonempty * 2 >= !answered)

let () =
  Alcotest.run "plan"
    [
      ( "exec",
        [
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
          Alcotest.test_case "WHERE conjunct placement" `Quick test_conjunct_placement;
        ] );
      ( "differential",
        [
          Alcotest.test_case "forced-seq vs planner" `Quick test_differential;
          Alcotest.test_case "randomized workload" `Quick test_differential_randomized;
          Alcotest.test_case "snapshots and transactions" `Quick test_differential_snapshot_and_txn;
          Alcotest.test_case "live vs snapshot" `Quick test_live_vs_snapshot;
          Alcotest.test_case "DML: forced-seq vs planner" `Quick test_dml_differential;
          Alcotest.test_case "random queries vs reference" `Quick test_random_queries_vs_reference;
        ] );
    ]
