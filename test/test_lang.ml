(* Tests for the query language: lexer, parser, evaluator, and error
   handling — using the Db engine as catalog provider. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module Rel = Nf2_algebra.Rel
module P = Nf2_workload.Paper_data
module Db = Nf2.Db
open Nf2_lang

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* --- lexer ------------------------------------------------------------ *)

let test_lexer_basics () =
  let toks = Lexer.tokenize "SELECT x.DNO, 42, 3.14, 'it''s', <= <> -- comment\n =" in
  let strs = List.map Lexer.token_to_string toks in
  Alcotest.(check (list string)) "tokens"
    [ "SELECT"; "x"; "."; "DNO"; ","; "42"; ","; "3.14"; ","; "'it's'"; ","; "<="; "<>"; "=" ]
    strs

let test_lexer_keywords_case () =
  (match Lexer.tokenize "select Select SELECT" with
  | [ Lexer.KW "SELECT"; Lexer.KW "SELECT"; Lexer.KW "SELECT" ] -> ()
  | _ -> Alcotest.fail "case-insensitive keywords");
  match Lexer.tokenize "dno DNO Dno" with
  | [ Lexer.IDENT "dno"; Lexer.IDENT "DNO"; Lexer.IDENT "Dno" ] -> ()
  | _ -> Alcotest.fail "idents keep case"

let test_lexer_numbers () =
  (match Lexer.tokenize "320_000 1.5 0" with
  | [ Lexer.INT 320000; Lexer.FLOAT 1.5; Lexer.INT 0 ] -> ()
  | _ -> Alcotest.fail "numbers");
  try
    ignore (Lexer.tokenize "'unterminated");
    Alcotest.fail "expected Lex_error"
  with Lexer.Lex_error _ -> ()

(* --- parser ------------------------------------------------------------- *)

let roundtrip q = Ast.query_to_string (Parser.parse_query_string q)

let test_parse_simple () =
  let s = roundtrip "SELECT x.DNO, x.MGRNO FROM x IN DEPARTMENTS WHERE x.DNO = 314" in
  checks "roundtrip" "SELECT x.DNO, x.MGRNO FROM x IN DEPARTMENTS WHERE x.DNO = 314" s

let test_parse_star_and_nested () =
  (* the paper's shorthand of Example 1: the table name doubles as the
     tuple variable *)
  (match Parser.parse_query_string "SELECT * FROM DEPARTMENTS" with
  | { Ast.select = Ast.Star; from = [ { Ast.rvar = "DEPARTMENTS"; source = Ast.Table_src "DEPARTMENTS"; _ } ]; _ } ->
      ()
  | _ -> Alcotest.fail "shorthand range");
  match Parser.parse_query_string "SELECT * FROM x IN DEPARTMENTS" with
  | { Ast.select = Ast.Star; from = [ { Ast.rvar = "x"; source = Ast.Table_src "DEPARTMENTS"; _ } ]; _ } -> ()
  | _ -> Alcotest.fail "star query"

let test_parse_quantifiers () =
  match
    Parser.parse_query_string
      "SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.EQUIP : y.TYPE = 'PC/AT'"
  with
  | { Ast.where = Some (Ast.Exists ({ Ast.rvar = "y"; source = Ast.Path_src _; _ }, Ast.Cmp (Ast.Eq, _, _))); _ } ->
      ()
  | _ -> Alcotest.fail "exists shape"

let test_parse_quantifier_without_colon () =
  (* the paper writes quantifiers without a separator *)
  match
    Parser.parse_query_string
      "SELECT x.DNO FROM x IN DEPARTMENTS WHERE ALL y IN x.PROJECTS ALL z IN y.MEMBERS z.FUNCTION = 'Consultant'"
  with
  | { Ast.where = Some (Ast.Forall (_, Ast.Forall (_, Ast.Cmp _))); _ } -> ()
  | _ -> Alcotest.fail "nested ALL"

let test_parse_subquery_naming () =
  match
    Parser.parse_query_string
      "SELECT x.DNO, (SELECT y.PNO FROM y IN x.PROJECTS) = PROJECTS FROM x IN DEPARTMENTS"
  with
  | { Ast.select = Ast.Items [ _; { Ast.expr = Ast.Subquery _; alias = Some "PROJECTS" } ]; _ } -> ()
  | _ -> Alcotest.fail "postfix naming"

let test_parse_subscript () =
  match Parser.parse_query_string "SELECT x.AUTHORS FROM x IN REPORTS WHERE x.AUTHORS[1] = 'Jones'" with
  | {
   Ast.where =
     Some (Ast.Cmp (Ast.Eq, Ast.Path { Ast.steps = [ Ast.Field "AUTHORS"; Ast.Subscript 1 ]; _ }, _));
   _;
  } ->
      ()
  | _ -> Alcotest.fail "subscript path"

let test_parse_ddl () =
  (match
     Parser.parse_one
       "CREATE TABLE T (A INT, B TABLE (C TEXT, D LIST (E FLOAT)), F DATE) WITH VERSIONS"
   with
  | Ast.Create_table { name = "T"; versioned = true; fields = [ _; { Ast.ftype = Ast.T_table (Schema.Set, _); _ }; _ ] } ->
      ()
  | _ -> Alcotest.fail "create table");
  (match Parser.parse_one "CREATE INDEX ON DEPARTMENTS (PROJECTS.MEMBERS.FUNCTION) USING ROOT" with
  | Ast.Create_index { strategy = Ast.S_root; path = [ "PROJECTS"; "MEMBERS"; "FUNCTION" ]; _ } -> ()
  | _ -> Alcotest.fail "create index");
  match Parser.parse_one "CREATE TEXT INDEX ON REPORTS (TITLE)" with
  | Ast.Create_text_index { table = "REPORTS"; path = [ "TITLE" ] } -> ()
  | _ -> Alcotest.fail "create text index"

let test_parse_dml () =
  (match Parser.parse_one "INSERT INTO T VALUES (1, {(2, 'x'), (3, 'y')}, <('a'), ('b')>)" with
  | Ast.Insert { rows = [ [ Ast.L_atom (Atom.Int 1); Ast.L_table (Schema.Set, [ _; _ ]); Ast.L_table (Schema.List, [ _; _ ]) ] ]; _ } ->
      ()
  | _ -> Alcotest.fail "insert literal");
  (match Parser.parse_one "UPDATE T SET A = A + 1 WHERE B = 'x' AT DATE '1984-01-15'" with
  | Ast.Update { sets = [ ("A", Ast.Binop (Ast.Add, _, _)) ]; at = Some (Ast.Const (Atom.Date _)); _ } -> ()
  | _ -> Alcotest.fail "update");
  match Parser.parse_one "DELETE FROM T WHERE A = 1" with
  | Ast.Delete { table = "T"; where = Some _; at = None; _ } -> ()
  | _ -> Alcotest.fail "delete"

let test_parse_script_and_errors () =
  checki "two stmts" 2 (List.length (Parser.parse_script "SELECT * FROM x IN T; SELECT * FROM y IN U;"));
  List.iter
    (fun bad ->
      try
        ignore (Parser.parse_script bad);
        Alcotest.failf "expected parse error for %s" bad
      with Parser.Parse_error _ | Lexer.Lex_error _ -> ())
    [
      "SELECT";
      "SELECT FROM x IN T";
      "SELECT * FROM";
      "SELECT * FROM x T";
      "CREATE TABLE (A INT)";
      "INSERT INTO T VALUES";
      "SELECT * FROM x IN T WHERE";
      "SELECT * FROM x IN T GARBAGE";
    ]

(* --- evaluation through the Db ------------------------------------------------ *)

let demo_db () =
  Nf2.Demo.create ()

let rows db q = Rel.tuples (Db.query db q)

let test_eval_projection_and_where () =
  let db = demo_db () in
  let r = rows db "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET > 330000" in
  checki "two" 2 (List.length r);
  let r = rows db "SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS WHERE x.BUDGET >= 320000 AND x.BUDGET <= 360000" in
  checki "range" 2 (List.length r)

let test_eval_arithmetic () =
  let db = demo_db () in
  match rows db "SELECT x.BUDGET + 1000 AS B FROM x IN DEPARTMENTS WHERE x.DNO = 314" with
  | [ [ Value.Atom (Atom.Int 321000) ] ] -> ()
  | _ -> Alcotest.fail "arith"

let test_eval_unqualified_attrs () =
  let db = demo_db () in
  (* attributes without variable prefix resolve innermost-first *)
  let r = rows db "SELECT DNO FROM x IN DEPARTMENTS WHERE BUDGET = 440000" in
  (match r with [ [ Value.Atom (Atom.Int 218) ] ] -> () | _ -> Alcotest.fail "unqualified")

let test_eval_nested_ranges () =
  let db = demo_db () in
  let r = rows db "SELECT y.PNO FROM x IN DEPARTMENTS, y IN x.PROJECTS" in
  checki "4 projects" 4 (List.length r)

let test_eval_aggregates () =
  let db = demo_db () in
  (match rows db "SELECT x.DNO, COUNT(x.PROJECTS) AS NP FROM x IN DEPARTMENTS WHERE x.DNO = 314" with
  | [ [ _; Value.Atom (Atom.Int 2) ] ] -> ()
  | _ -> Alcotest.fail "count");
  match rows db "SELECT x.DNO, SUM(x.EQUIP.QU) AS TOTAL FROM x IN DEPARTMENTS WHERE x.DNO = 314" with
  | [ [ _; Value.Atom (Atom.Int 6) ] ] -> ()
  | _ -> Alcotest.fail "sum through path"

let test_eval_order_by () =
  let db = demo_db () in
  let r = Db.query db "SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS ORDER BY BUDGET DESC" in
  checkb "ordered result is a list" true (Rel.kind r = Schema.List);
  match Rel.tuples r with
  | [ Value.Atom (Atom.Int 218) :: _; Value.Atom (Atom.Int 417) :: _; Value.Atom (Atom.Int 314) :: _ ] -> ()
  | _ -> Alcotest.fail "order"

let test_eval_distinct_set_semantics () =
  let db = demo_db () in
  (* FUNCTION over all members has duplicates; Set-kind result dedups *)
  let r = rows db "SELECT z.FUNCTION FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS" in
  checki "4 distinct functions" 4 (List.length r)

let test_eval_not_or () =
  let db = demo_db () in
  let r =
    rows db
      "SELECT x.DNO FROM x IN DEPARTMENTS WHERE NOT (x.DNO = 314) AND (x.BUDGET = 440000 OR x.BUDGET = 360000)"
  in
  checki "two" 2 (List.length r)

let test_eval_contains_without_index () =
  let db = demo_db () in
  let r = rows db "SELECT x.REPNO FROM x IN REPORTS WHERE x.TITLE CONTAINS '*omput*'" in
  (* no title contains comput in the 3 fixture rows *)
  checki "none" 0 (List.length r);
  let r = rows db "SELECT x.REPNO FROM x IN REPORTS WHERE x.TITLE CONTAINS 'Text'" in
  checki "one" 1 (List.length r)

let test_eval_subscript_deep () =
  let db = demo_db () in
  (* subscript then attribute *)
  match rows db "SELECT x.AUTHORS[2].NAME AS SECOND FROM x IN REPORTS WHERE x.REPNO = '0292'" with
  | [ [ Value.Atom (Atom.Str "Bach") ] ] -> ()
  | _ -> Alcotest.fail "authors[2].name"

let test_eval_errors () =
  let db = demo_db () in
  List.iter
    (fun q ->
      try
        ignore (Db.exec db q);
        Alcotest.failf "expected error for %s" q
      with Eval.Eval_error _ | Db.Db_error _ | Schema.Schema_error _ -> ())
    [
      "SELECT x.NOPE FROM x IN DEPARTMENTS";
      "SELECT x.DNO FROM x IN NO_SUCH_TABLE";
      "SELECT y.PNO FROM x IN DEPARTMENTS";
      "SELECT x.DNO.Y FROM x IN DEPARTMENTS";
      "SELECT x.AUTHORS[1] FROM x IN DEPARTMENTS";
      "SELECT x.DNO FROM x IN DEPARTMENTS ASOF DATE '1984-01-01'";
      "SELECT x.DESCRIPTORS[1] FROM x IN REPORTS";
      "SELECT x.DNO + x.PROJECTS FROM x IN DEPARTMENTS";
    ]

let test_exec_ddl_dml_cycle () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE T (A INT, XS TABLE (X INT, NAME TEXT))");
  ignore (Db.exec db "INSERT INTO T VALUES (1, {(10, 'ten'), (20, 'twenty')}), (2, {})");
  checki "two rows" 2 (List.length (rows db "SELECT a.A FROM a IN T"));
  (* subtable insert *)
  ignore (Db.exec db "INSERT INTO T.XS WHERE A = 2 VALUES (30, 'thirty')");
  (match rows db "SELECT x.X FROM t IN T, x IN t.XS WHERE t.A = 2" with
  | [ [ Value.Atom (Atom.Int 30) ] ] -> ()
  | _ -> Alcotest.fail "subtable insert");
  (* update with expression over current value *)
  ignore (Db.exec db "UPDATE T SET A = A * 10 WHERE A = 2");
  checki "updated" 1 (List.length (rows db "SELECT t.A FROM t IN T WHERE t.A = 20"));
  (* delete *)
  ignore (Db.exec db "DELETE FROM T WHERE A = 1");
  checki "one left" 1 (List.length (rows db "SELECT t.A FROM t IN T"));
  (* drop *)
  ignore (Db.exec db "DROP TABLE T");
  try
    ignore (Db.exec db "SELECT * FROM t IN T");
    Alcotest.fail "table should be gone"
  with Eval.Eval_error _ | Db.Db_error _ -> ()

let test_exec_schema_violations () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE T (A INT, XS TABLE (X INT))");
  List.iter
    (fun stmt ->
      try
        ignore (Db.exec db stmt);
        Alcotest.failf "expected error: %s" stmt
      with Db.Db_error _ -> ())
    [
      "INSERT INTO T VALUES ('str', {})";
      "INSERT INTO T VALUES (1)";
      "INSERT INTO T VALUES (1, {(1, 2)})";
      "INSERT INTO T VALUES (1, <(1)>)";
      "CREATE TABLE T (B INT)";
      "UPDATE T SET XS = 1";
      "UPDATE T SET NOPE = 1";
    ]

let is_infix_lang needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_index_range_plan () =
  let db = demo_db () in
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (BUDGET)");
  let r = rows db "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET > 330000" in
  checki "two departments" 2 (List.length r);
  checkb "range plan used" true
    (match Db.last_plan db with [ p ] -> is_infix_lang "index-range" p | _ -> false);
  (* strict bound correctness: boundary value excluded by the re-check *)
  let r = rows db "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET > 360000" in
  checki "one department" 1 (List.length r);
  let r = rows db "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET >= 360000" in
  checki "two departments (inclusive)" 2 (List.length r);
  (* two-sided via conjunction: both conjuncts produce candidate sets *)
  let r = rows db "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET >= 320000 AND x.BUDGET < 440000" in
  checki "middle band" 2 (List.length r)

let test_explain () =
  let db = demo_db () in
  (match Db.exec1 db "EXPLAIN SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET > 0" with
  | Db.Msg m ->
      checkb "mentions plan" true (String.starts_with ~prefix:"plan:" m);
      checkb "mentions rows" true (String.length m > 10)
  | Db.Rows _ -> Alcotest.fail "EXPLAIN must not return rows");
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (DNO)");
  match Db.exec1 db "EXPLAIN SELECT x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = 314" with
  | Db.Msg m -> checkb "index plan" true (String.length m > 0 && String.sub m 0 5 = "plan:")
  | Db.Rows _ -> Alcotest.fail "EXPLAIN rows"

let test_subtable_update () =
  let db = demo_db () in
  (* rename one project across all departments *)
  ignore (Db.exec db "UPDATE DEPARTMENTS.PROJECTS SET PNAME = 'RENAMED' WHERE PNO = 17");
  (match rows db "SELECT y.PNAME FROM x IN DEPARTMENTS, y IN x.PROJECTS WHERE y.PNO = 17" with
  | [ [ Value.Atom (Atom.Str "RENAMED") ] ] -> ()
  | _ -> Alcotest.fail "renamed");
  (* two-level path: promote every Leader *)
  ignore (Db.exec db "UPDATE DEPARTMENTS.PROJECTS.MEMBERS SET FUNCTION = 'Manager' WHERE FUNCTION = 'Leader'");
  checki "no leaders left" 0
    (List.length (rows db "SELECT z.EMPNO FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS WHERE z.FUNCTION = 'Leader'"));
  checki "4 managers" 4
    (List.length (rows db "SELECT z.EMPNO FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS WHERE z.FUNCTION = 'Manager'"));
  (* SET expressions can read element attributes *)
  ignore (Db.exec db "UPDATE DEPARTMENTS.EQUIP SET QU = QU + 10 WHERE TYPE = 'PC'");
  (match rows db "SELECT e.QU FROM x IN DEPARTMENTS, e IN x.EQUIP WHERE e.TYPE = 'PC'" with
  | [ [ Value.Atom (Atom.Int 11) ] ] -> ()
  | _ -> Alcotest.fail "qu bumped");
  (* errors *)
  List.iter
    (fun stmt ->
      try
        ignore (Db.exec db stmt);
        Alcotest.failf "expected error: %s" stmt
      with Db.Db_error _ -> ())
    [
      "UPDATE DEPARTMENTS.PROJECTS SET NOPE = 1";
      "UPDATE DEPARTMENTS.PROJECTS SET MEMBERS = 1";
      "UPDATE DEPARTMENTS.BUDGET SET X = 1";
    ]

let test_subtable_delete () =
  let db = demo_db () in
  ignore (Db.exec db "DELETE FROM DEPARTMENTS.PROJECTS.MEMBERS WHERE FUNCTION = 'Secretary'");
  checki "secretaries gone" 0
    (List.length (rows db "SELECT z.EMPNO FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS WHERE z.FUNCTION = 'Secretary'"));
  checki "13 members left" 13
    (List.length (rows db "SELECT z.EMPNO FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS"));
  (* deleting complex elements (whole projects) *)
  ignore (Db.exec db "DELETE FROM DEPARTMENTS.PROJECTS WHERE PNO = 23");
  checki "3 projects left" 3 (List.length (rows db "SELECT y.PNO FROM x IN DEPARTMENTS, y IN x.PROJECTS"));
  (* objects still intact *)
  checki "3 departments" 3 (List.length (rows db "SELECT x.DNO FROM x IN DEPARTMENTS"))

let test_alter_table () =
  let db = demo_db () in
  ignore (Db.exec db "ALTER TABLE EMPLOYEES_1NF ADD SALARY INT");
  (* existing rows read NULL *)
  (match rows db "SELECT e.SALARY FROM e IN EMPLOYEES_1NF WHERE e.EMPNO = 56194" with
  | [ [ Value.Atom Atom.Null ] ] -> ()
  | _ -> Alcotest.fail "null default");
  (* new column is updatable *)
  ignore (Db.exec db "UPDATE EMPLOYEES_1NF SET SALARY = 50000 WHERE EMPNO = 56194");
  (match rows db "SELECT e.SALARY FROM e IN EMPLOYEES_1NF WHERE e.EMPNO = 56194" with
  | [ [ Value.Atom (Atom.Int 50000) ] ] -> ()
  | _ -> Alcotest.fail "salary set");
  (* adding a table-valued attribute: empty default *)
  ignore (Db.exec db "ALTER TABLE EMPLOYEES_1NF ADD SKILLS TABLE (NAME TEXT)");
  (match rows db "SELECT COUNT(e.SKILLS) AS N FROM e IN EMPLOYEES_1NF WHERE e.EMPNO = 56194" with
  | [ [ Value.Atom (Atom.Int 0) ] ] -> ()
  | _ -> Alcotest.fail "empty skills");
  ignore (Db.exec db "INSERT INTO EMPLOYEES_1NF.SKILLS WHERE EMPNO = 56194 VALUES ('OCaml')");
  (match rows db "SELECT s.NAME FROM e IN EMPLOYEES_1NF, s IN e.SKILLS" with
  | [ [ Value.Atom (Atom.Str "OCaml") ] ] -> ()
  | _ -> Alcotest.fail "skill added");
  (* drop *)
  ignore (Db.exec db "ALTER TABLE EMPLOYEES_1NF DROP SALARY");
  (try
     ignore (rows db "SELECT e.SALARY FROM e IN EMPLOYEES_1NF");
     Alcotest.fail "salary should be gone"
   with Eval.Eval_error _ | Schema.Schema_error _ -> ());
  (* content preserved across both alters *)
  checki "20 employees" 20 (List.length (rows db "SELECT e.EMPNO FROM e IN EMPLOYEES_1NF"));
  (* cannot drop the last attribute *)
  ignore (Db.exec db "CREATE TABLE ONE (A INT)");
  try
    ignore (Db.exec db "ALTER TABLE ONE DROP A");
    Alcotest.fail "expected error"
  with Db.Db_error _ -> ()

let test_alter_keeps_indexes () =
  let db = demo_db () in
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (PROJECTS.MEMBERS.FUNCTION)");
  ignore (Db.exec db "ALTER TABLE DEPARTMENTS ADD NOTES TEXT");
  (* the index still answers after the rebuild *)
  let r =
    rows db
      "SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS : EXISTS z IN y.MEMBERS : z.FUNCTION = 'Consultant'"
  in
  checki "two consultant departments" 2 (List.length r);
  checkb "index plan survived" true
    (match Db.last_plan db with [ p ] -> String.length p >= 4 && String.sub p 0 4 = "scan" | _ -> false);
  (* dropping an attribute on the index path drops the index *)
  ignore (Db.exec db "ALTER TABLE DEPARTMENTS DROP PROJECTS");
  let r = rows db "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET > 0" in
  checki "still 3 departments" 3 (List.length r)

let test_plan_reporting () =
  let db = demo_db () in
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (PROJECTS.MEMBERS.FUNCTION)");
  ignore
    (Db.exec db
       "SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS : EXISTS z IN y.MEMBERS : z.FUNCTION = 'Consultant'");
  (match Db.last_plan db with
  | [ p ] -> checkb "used index" true (String.length p > 0 && String.sub p 0 4 = "scan")
  | _ -> Alcotest.fail "expected one plan line");
  ignore (Db.exec db "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET > 0");
  match Db.last_plan db with
  | [ p ] -> checkb "full scan" true (String.length p >= 9 && String.sub p 0 9 = "full scan")
  | _ -> Alcotest.fail "expected one plan line"


(* --- language vs algebra equivalence (properties) ------------------------- *)

module Ops = Nf2_algebra.Ops

let arb_kv_rows =
  QCheck.make
    ~print:(fun rows -> String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "(%d,%s)" k v) rows))
    QCheck.Gen.(list_size (int_bound 15) (pair (int_bound 9) (oneofl [ "a"; "b"; "c" ])))

let kv_schema = { Schema.kind = Schema.Set; fields = [ Schema.int_ "K"; Schema.str_ "V" ] }

let db_with_kv rows =
  let db = Db.create () in
  Db.register_table db
    { Schema.name = "T"; table = kv_schema }
    (List.map (fun (k, v) -> [ Value.int_ k; Value.str v ]) rows);
  db

let prop_select_equiv =
  QCheck.Test.make ~name:"language WHERE = algebra select" ~count:60 arb_kv_rows (fun rows ->
      let db = db_with_kv rows in
      let lang = Db.query db "SELECT t.K, t.V FROM t IN T WHERE t.K > 4" in
      let alg =
        Ops.select
          (Rel.of_tuples kv_schema (List.map (fun (k, v) -> [ Value.int_ k; Value.str v ]) rows))
          (fun tup -> match List.nth tup 0 with Value.Atom (Atom.Int k) -> k > 4 | _ -> false)
      in
      Rel.equal lang alg)

let prop_project_equiv =
  QCheck.Test.make ~name:"language SELECT list = algebra project" ~count:60 arb_kv_rows (fun rows ->
      let db = db_with_kv rows in
      let lang = Db.query db "SELECT t.V FROM t IN T" in
      let alg =
        Ops.project (Rel.of_tuples kv_schema (List.map (fun (k, v) -> [ Value.int_ k; Value.str v ]) rows)) [ "V" ]
      in
      Rel.equal lang alg)

let prop_unnest_equiv =
  (* random nested rows: language flattening = algebra unnest *)
  let gen =
    QCheck.Gen.(list_size (int_bound 6) (pair (int_bound 9) (list_size (int_bound 4) (int_bound 9))))
  in
  let nested_schema =
    { Schema.kind = Schema.Set; fields = [ Schema.int_ "K"; Schema.set_ "XS" [ Schema.int_ "X" ] ] }
  in
  QCheck.Test.make ~name:"language nested FROM = algebra unnest" ~count:60
    (QCheck.make ~print:(fun l -> string_of_int (List.length l)) gen)
    (fun rows ->
      let tuples =
        List.map (fun (k, xs) -> [ Value.int_ k; Value.set (List.map (fun x -> [ Value.int_ x ]) xs) ]) rows
      in
      let db = Db.create () in
      Db.register_table db { Schema.name = "N"; table = nested_schema } tuples;
      let lang = Db.query db "SELECT t.K, x.X FROM t IN N, x IN t.XS" in
      let alg = Ops.unnest (Rel.of_tuples nested_schema tuples) ~attr:"XS" in
      Rel.equal lang alg)



let test_eval_null_semantics () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE N (A INT, B INT)");
  ignore (Db.exec db "INSERT INTO N VALUES (1, 10), (2, NULL), (3, 30)");
  (* NULL sorts first and compares as a value (two-valued logic) *)
  checki "b = NULL finds the null row" 1
    (List.length (rows db "SELECT n.A FROM n IN N WHERE n.B = NULL"));
  checki "b > 5 skips null (null sorts first)" 2
    (List.length (rows db "SELECT n.A FROM n IN N WHERE n.B > 5"));
  (* aggregates skip NULL: sum over a nested table with a NULL *)
  ignore (Db.exec db "CREATE TABLE M (ID INT, XS TABLE (X INT))");
  ignore (Db.exec db "INSERT INTO M VALUES (1, {(10), (NULL), (30)})");
  match rows db "SELECT SUM(m.XS.X) AS S, COUNT(m.XS) AS C FROM m IN M" with
  | [ [ Value.Atom (Atom.Int 40); Value.Atom (Atom.Int 3) ] ] -> ()
  | _ -> Alcotest.fail "sum skips null"

let test_eval_dates_and_floats () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE E (NAME TEXT, BORN DATE, SCORE FLOAT)");
  ignore
    (Db.exec db
       "INSERT INTO E VALUES ('a', DATE '1984-01-15', 1.5), ('b', DATE '1986-05-28', 2.25), ('c', DATE '1969-07-20', 0.5)");
  checki "date range" 1
    (List.length (rows db "SELECT e.NAME FROM e IN E WHERE e.BORN >= DATE '1984-01-01' AND e.BORN <= DATE '1985-12-31'"));
  checki "pre-epoch date" 1 (List.length (rows db "SELECT e.NAME FROM e IN E WHERE e.BORN < DATE '1970-01-01'"));
  (match rows db "SELECT e.SCORE * 2 AS D FROM e IN E WHERE e.NAME = 'b'" with
  | [ [ Value.Atom (Atom.Float f) ] ] -> checkb "float arith" true (abs_float (f -. 4.5) < 1e-9)
  | _ -> Alcotest.fail "float");
  (* int literal accepted in float column *)
  ignore (Db.exec db "INSERT INTO E VALUES ('d', DATE '2000-01-01', 3)");
  checki "four rows" 4 (List.length (rows db "SELECT e.NAME FROM e IN E"))

let test_eval_bool_columns () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE F (NAME TEXT, ACTIVE BOOL)");
  ignore (Db.exec db "INSERT INTO F VALUES ('x', TRUE), ('y', FALSE)");
  (* a BOOL attribute is directly usable as a predicate *)
  (match rows db "SELECT f.NAME FROM f IN F WHERE f.ACTIVE" with
  | [ [ Value.Atom (Atom.Str "x") ] ] -> ()
  | _ -> Alcotest.fail "bool predicate");
  match rows db "SELECT f.NAME FROM f IN F WHERE NOT f.ACTIVE" with
  | [ [ Value.Atom (Atom.Str "y") ] ] -> ()
  | _ -> Alcotest.fail "negated bool"

let test_eval_order_by_expressions () =
  let db = demo_db () in
  (* arbitrary expression keys *)
  (match
     Rel.tuples (Db.query db "SELECT x.DNO FROM x IN DEPARTMENTS ORDER BY x.BUDGET + 0 DESC")
   with
  | [ [ Value.Atom (Atom.Int 218) ]; [ Value.Atom (Atom.Int 417) ]; [ Value.Atom (Atom.Int 314) ] ] -> ()
  | _ -> Alcotest.fail "expr key desc");
  (* keys over inner range variables *)
  (match
     Rel.tuples
       (Db.query db "SELECT y.PNAME FROM x IN DEPARTMENTS, y IN x.PROJECTS ORDER BY y.PNO DESC")
   with
  | [ Value.Atom (Atom.Str "NEBS") ] :: _ -> ()
  | _ -> Alcotest.fail "inner var key");
  (* mixed: column name + expression *)
  match
    Rel.tuples
      (Db.query db
         "SELECT z.FUNCTION, z.EMPNO FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS ORDER BY FUNCTION, z.EMPNO DESC")
  with
  | [ Value.Atom (Atom.Str "Consultant"); Value.Atom (Atom.Int 89921) ] :: _ -> ()
  | _ -> Alcotest.fail "mixed keys"

let test_eval_distinct_explicit () =
  let db = demo_db () in
  (* ORDER BY yields a list (duplicates kept); DISTINCT dedups it *)
  let r = Db.query db "SELECT z.FUNCTION FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS ORDER BY FUNCTION" in
  checki "17 ordered rows" 17 (Rel.cardinality r);
  let r = Db.query db "SELECT DISTINCT z.FUNCTION FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS ORDER BY FUNCTION" in
  checki "4 distinct ordered" 4 (Rel.cardinality r);
  match Rel.tuples r with
  | [ Value.Atom (Atom.Str "Consultant") ] :: _ -> ()
  | _ -> Alcotest.fail "sorted first"


let test_prepared_statements () =
  let db = demo_db () in
  (* query with two parameters, executed repeatedly *)
  let q =
    Db.prepare db
      "SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS : (y.PNO = ? AND EXISTS z IN y.MEMBERS : z.FUNCTION = ?)"
  in
  let run pno fn =
    match Db.execute db q [ Atom.Int pno; Atom.Str fn ] with
    | Db.Rows rel -> List.map (fun t -> match t with [ Value.Atom (Atom.Int d) ] -> d | _ -> -1) (Rel.tuples rel)
    | Db.Msg _ -> Alcotest.fail "rows expected"
  in
  Alcotest.(check (list int)) "17/Consultant" [ 314 ] (run 17 "Consultant");
  Alcotest.(check (list int)) "25/Consultant" [ 218 ] (run 25 "Consultant");
  Alcotest.(check (list int)) "23/Consultant" [] (run 23 "Consultant");
  (* DML with parameters *)
  let ins = Db.prepare db "INSERT INTO DEPARTMENTS.EQUIP WHERE DNO = ? VALUES (?, ?)" in
  ignore (Db.execute db ins [ Atom.Int 417; Atom.Int 9; Atom.Str "PLOTTER" ]);
  checki "plotter added" 1
    (List.length (rows db "SELECT e.TYPE FROM x IN DEPARTMENTS, e IN x.EQUIP WHERE e.TYPE = 'PLOTTER'"));
  let upd = Db.prepare db "UPDATE DEPARTMENTS SET BUDGET = ? WHERE DNO = ?" in
  ignore (Db.execute db upd [ Atom.Int 111; Atom.Int 314 ]);
  ignore (Db.execute db upd [ Atom.Int 222; Atom.Int 218 ]);
  (match rows db "SELECT x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = 314" with
  | [ [ Value.Atom (Atom.Int 111) ] ] -> ()
  | _ -> Alcotest.fail "param update");
  (* arity errors *)
  (try
     ignore (Db.execute db q [ Atom.Int 17 ]);
     Alcotest.fail "too few"
   with Db.Db_error _ -> ());
  (try
     ignore (Db.execute db q [ Atom.Int 17; Atom.Str "x"; Atom.Int 9 ]);
     Alcotest.fail "too many"
   with Db.Db_error _ -> ());
  (* unbound ? through plain exec is rejected *)
  try
    ignore (Db.exec db "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = ?");
    Alcotest.fail "unbound param"
  with Eval.Eval_error _ | Db.Db_error _ -> ()

(* --- symbolic rewriting ----------------------------------------------------- *)

let test_rewrite_folding () =
  let q s = Parser.parse_query_string s in
  (* constant predicate folds away entirely *)
  (match (Rewrite.rewrite_query (q "SELECT x.DNO FROM x IN T WHERE 1 = 1")).Ast.where with
  | None -> ()
  | Some _ -> Alcotest.fail "tautology should fold");
  (* arithmetic folding *)
  (match Rewrite.rewrite_expr (Ast.Binop (Ast.Add, Ast.Const (Atom.Int 2), Ast.Const (Atom.Int 3))) with
  | Ast.Const (Atom.Int 5) -> ()
  | _ -> Alcotest.fail "2+3");
  (* identity elimination *)
  (match Rewrite.rewrite_expr (Ast.Binop (Ast.Mul, Ast.Path { Ast.var = Some "x"; steps = [] }, Ast.Const (Atom.Int 1))) with
  | Ast.Path _ -> ()
  | _ -> Alcotest.fail "x*1");
  (* double negation *)
  let p = Ast.Not (Ast.Not (Ast.Cmp (Ast.Eq, Ast.Const (Atom.Int 1), Ast.Const (Atom.Int 2)))) in
  checkb "NOT NOT (1=2) folds to FALSE" true (Rewrite.is_false (Rewrite.rewrite_pred p))

let test_division_by_zero () =
  let div a b = Ast.Binop (Ast.Div, Ast.Const a, Ast.Const b) in
  (* x/0 must not fold: folding produced Float inf and silenced the
     runtime error *)
  (match Rewrite.rewrite_expr (div (Atom.Int 1) (Atom.Int 0)) with
  | Ast.Binop (Ast.Div, _, _) -> ()
  | _ -> Alcotest.fail "1/0 must stay unfolded");
  (match Rewrite.rewrite_expr (div (Atom.Float 1.) (Atom.Float 0.)) with
  | Ast.Binop (Ast.Div, _, _) -> ()
  | _ -> Alcotest.fail "1.0/0.0 must stay unfolded");
  (* ordinary division still folds *)
  (match Rewrite.rewrite_expr (div (Atom.Int 4) (Atom.Int 2)) with
  | Ast.Const (Atom.Int 2) -> ()
  | _ -> Alcotest.fail "4/2 should fold to 2");
  (match Rewrite.rewrite_expr (div (Atom.Int 5) (Atom.Int 2)) with
  | Ast.Const (Atom.Float 2.5) -> ()
  | _ -> Alcotest.fail "5/2 should fold to 2.5");
  (* and evaluation raises instead of yielding inf *)
  let db = demo_db () in
  List.iter
    (fun sql ->
      try
        ignore (Db.query db sql);
        Alcotest.fail ("should raise: " ^ sql)
      with Eval.Eval_error m -> checkb ("message: " ^ m) true (m = "division by zero"))
    [
      "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO / 0 = 1";
      "SELECT x.DNO FROM x IN DEPARTMENTS WHERE 1 / 0 = 1";
      "SELECT x.BUDGET / (x.DNO - x.DNO) FROM x IN DEPARTMENTS";
    ]

let test_rewrite_quantifier_duality () =
  let q =
    Parser.parse_query_string
      "SELECT x.DNO FROM x IN T WHERE NOT EXISTS y IN x.PROJECTS : y.PNO = 1"
  in
  match (Rewrite.rewrite_query q).Ast.where with
  | Some (Ast.Forall (_, Ast.Cmp (Ast.Ne, _, _))) -> ()
  | _ -> Alcotest.fail "NOT EXISTS should become ALL with negated body"

let test_rewrite_preserves_semantics () =
  (* hand-picked equivalences on the demo data *)
  let db = demo_db () in
  List.iter
    (fun (a, b) ->
      let ra = Db.query db a and rb = Db.query db b in
      checkb (a ^ " == " ^ b) true (Rel.equal ra rb))
    [
      ( "SELECT x.DNO FROM x IN DEPARTMENTS WHERE NOT (x.BUDGET <= 330000)",
        "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET > 330000" );
      ( "SELECT x.DNO FROM x IN DEPARTMENTS WHERE NOT EXISTS y IN x.EQUIP : y.TYPE = 'PC'",
        "SELECT x.DNO FROM x IN DEPARTMENTS WHERE ALL y IN x.EQUIP : y.TYPE <> 'PC'" );
      ( "SELECT x.DNO FROM x IN DEPARTMENTS WHERE NOT (x.DNO = 314 OR x.DNO = 218)",
        "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO <> 314 AND x.DNO <> 218" );
      ( "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET > 100000 + 220000",
        "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET > 320000" );
    ]

let prop_rewrite_equivalence =
  (* random predicates over K/V rows: rewritten form answers identically *)
  let gen_pred =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          let leaf =
            oneof
              [
                map (fun k -> Printf.sprintf "t.K = %d" k) (int_bound 9);
                map (fun k -> Printf.sprintf "t.K > %d" k) (int_bound 9);
                map (fun v -> Printf.sprintf "t.V = '%s'" v) (oneofl [ "a"; "b"; "c" ]);
                return "1 = 1";
                return "1 = 2";
              ]
          in
          if n <= 1 then leaf
          else
            oneof
              [
                leaf;
                map (fun p -> "NOT (" ^ p ^ ")") (self (n / 2));
                map2 (fun a b -> "(" ^ a ^ " AND " ^ b ^ ")") (self (n / 2)) (self (n / 2));
                map2 (fun a b -> "(" ^ a ^ " OR " ^ b ^ ")") (self (n / 2)) (self (n / 2));
              ]))
  in
  QCheck.Test.make ~name:"rewrite preserves results (random predicates)" ~count:100
    (QCheck.pair (QCheck.make ~print:Fun.id gen_pred) arb_kv_rows)
    (fun (pred, rows) ->
      let db = db_with_kv rows in
      let sql = "SELECT t.K, t.V FROM t IN T WHERE " ^ pred in
      let q = Parser.parse_query_string sql in
      (* evaluate WITHOUT the rewriter ... *)
      let raw, _ =
        Nf2_plan.Driver.run ~rewrite:false ~stats:(fun _ -> None) (Db.catalog db) q
      in
      (* ... and WITH it (Db.query rewrites first) *)
      let cooked = Db.query db sql in
      Rel.equal raw cooked)

let lang_props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_select_equiv; prop_project_equiv; prop_unnest_equiv; prop_rewrite_equivalence ]

let () =
  Alcotest.run "lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "keywords" `Quick test_lexer_keywords_case;
          Alcotest.test_case "numbers" `Quick test_lexer_numbers;
        ] );
      ( "parser",
        [
          Alcotest.test_case "simple roundtrip" `Quick test_parse_simple;
          Alcotest.test_case "star" `Quick test_parse_star_and_nested;
          Alcotest.test_case "quantifiers" `Quick test_parse_quantifiers;
          Alcotest.test_case "quantifiers (no colon)" `Quick test_parse_quantifier_without_colon;
          Alcotest.test_case "subquery naming" `Quick test_parse_subquery_naming;
          Alcotest.test_case "subscript" `Quick test_parse_subscript;
          Alcotest.test_case "DDL" `Quick test_parse_ddl;
          Alcotest.test_case "DML" `Quick test_parse_dml;
          Alcotest.test_case "scripts and errors" `Quick test_parse_script_and_errors;
        ] );
      ( "eval",
        [
          Alcotest.test_case "projection/where" `Quick test_eval_projection_and_where;
          Alcotest.test_case "arithmetic" `Quick test_eval_arithmetic;
          Alcotest.test_case "unqualified attrs" `Quick test_eval_unqualified_attrs;
          Alcotest.test_case "nested ranges" `Quick test_eval_nested_ranges;
          Alcotest.test_case "aggregates" `Quick test_eval_aggregates;
          Alcotest.test_case "order by" `Quick test_eval_order_by;
          Alcotest.test_case "set semantics" `Quick test_eval_distinct_set_semantics;
          Alcotest.test_case "not/or" `Quick test_eval_not_or;
          Alcotest.test_case "contains (scan)" `Quick test_eval_contains_without_index;
          Alcotest.test_case "deep subscript" `Quick test_eval_subscript_deep;
          Alcotest.test_case "errors" `Quick test_eval_errors;
          Alcotest.test_case "null semantics" `Quick test_eval_null_semantics;
          Alcotest.test_case "dates and floats" `Quick test_eval_dates_and_floats;
          Alcotest.test_case "bool columns" `Quick test_eval_bool_columns;
          Alcotest.test_case "distinct + order" `Quick test_eval_distinct_explicit;
          Alcotest.test_case "order by expressions" `Quick test_eval_order_by_expressions;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ddl/dml cycle" `Quick test_exec_ddl_dml_cycle;
          Alcotest.test_case "schema violations" `Quick test_exec_schema_violations;
          Alcotest.test_case "plan reporting" `Quick test_plan_reporting;
          Alcotest.test_case "explain" `Quick test_explain;
          Alcotest.test_case "index range plan" `Quick test_index_range_plan;
          Alcotest.test_case "subtable update" `Quick test_subtable_update;
          Alcotest.test_case "subtable delete" `Quick test_subtable_delete;
          Alcotest.test_case "alter table" `Quick test_alter_table;
          Alcotest.test_case "alter keeps indexes" `Quick test_alter_keeps_indexes;
          Alcotest.test_case "prepared statements" `Quick test_prepared_statements;
        ] );
      ( "rewrite",
        [
          Alcotest.test_case "folding" `Quick test_rewrite_folding;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero;
          Alcotest.test_case "quantifier duality" `Quick test_rewrite_quantifier_duality;
          Alcotest.test_case "semantics preserved" `Quick test_rewrite_preserves_semantics;
        ] );
      ("equivalence", lang_props);
    ]
