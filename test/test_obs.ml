(* Observability tests: the metrics registry's bucket math and
   Prometheus exposition, the trace tree's accumulation semantics, and
   EXPLAIN ANALYZE end-to-end — including that the per-query counter
   deltas agree with the buffer pool's own stats. *)

module Metrics = Nf2_server.Metrics
module Session = Nf2_server.Session
module P = Nf2_server.Protocol
module Trace = Nf2_obs.Trace
module Db = Nf2.Db
module BP = Nf2_storage.Buffer_pool
module Ast = Nf2_lang.Ast
module Parser = Nf2_lang.Parser
module Rel = Nf2_algebra.Rel

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- metrics: bucket math ------------------------------------------------ *)

(* Buckets are factor-2 from 1µs; an observation must land in the first
   bucket whose upper bound covers it, exactly at the boundary too. *)
let test_bucket_boundaries () =
  let m = Metrics.create () in
  (* exactly 1µs -> bucket 0; just over -> bucket 1; 2µs -> bucket 1;
     4µs boundary -> bucket 2; far over the top -> last bucket *)
  Metrics.observe m "lat" 1e-6;
  Metrics.observe m "lat" 1.1e-6;
  Metrics.observe m "lat" 2e-6;
  Metrics.observe m "lat" 4e-6;
  Metrics.observe m "lat" 1e9;
  let _, hists = Metrics.dump m in
  let h = List.assoc "lat" hists in
  Alcotest.(check int) "bucket 0 (<=1us)" 1 h.Metrics.counts.(0);
  Alcotest.(check int) "bucket 1 (<=2us)" 2 h.Metrics.counts.(1);
  Alcotest.(check int) "bucket 2 (<=4us)" 1 h.Metrics.counts.(2);
  Alcotest.(check int) "overflow bucket" 1 h.Metrics.counts.(Array.length h.Metrics.counts - 1);
  Alcotest.(check int) "total" 5 h.Metrics.total

let test_dump_bounds () =
  let m = Metrics.create () in
  Metrics.observe m "lat" 0.001;
  let _, hists = Metrics.dump m in
  let h = List.assoc "lat" hists in
  let n = Array.length h.Metrics.bounds in
  Alcotest.(check int) "bounds/counts same length" n (Array.length h.Metrics.counts);
  Alcotest.(check (float 0.)) "first bound is 1us" 1e-6 h.Metrics.bounds.(0);
  Alcotest.(check bool) "last bound is +inf" true (h.Metrics.bounds.(n - 1) = Float.infinity);
  for i = 0 to n - 2 do
    if not (h.Metrics.bounds.(i) < h.Metrics.bounds.(i + 1)) then
      Alcotest.failf "bounds not strictly increasing at %d" i
  done;
  Alcotest.(check (float 1e-12)) "sum" 0.001 h.Metrics.sum

let test_empty_percentile () =
  let m = Metrics.create () in
  Alcotest.(check (float 0.)) "p50 of nothing" 0. (Metrics.percentile m "nope" 0.5);
  Alcotest.(check int) "count of nothing" 0 (Metrics.count m "nope");
  (* an observed histogram reports the matching bucket's upper bound *)
  Metrics.observe m "lat" 1.5e-6;
  Alcotest.(check (float 1e-12)) "p50 = bucket bound" 2e-6 (Metrics.percentile m "lat" 0.5)

let test_concurrent_observe () =
  let m = Metrics.create () in
  let per_thread = 1000 in
  let body () =
    for i = 1 to per_thread do
      Metrics.observe m "lat" (Float.of_int i *. 1e-6);
      Metrics.incr m "ops"
    done
  in
  let threads = List.init 8 (fun _ -> Thread.create body ()) in
  List.iter Thread.join threads;
  Alcotest.(check int) "all observations counted" (8 * per_thread) (Metrics.count m "lat");
  Alcotest.(check int) "all increments counted" (8 * per_thread) (Metrics.get m "ops");
  let _, hists = Metrics.dump m in
  let h = List.assoc "lat" hists in
  Alcotest.(check int) "bucket sum = total" (8 * per_thread) (Array.fold_left ( + ) 0 h.Metrics.counts)

let test_render_deterministic () =
  let build () =
    let m = Metrics.create () in
    Metrics.incr m "zeta";
    Metrics.add m "alpha" 3;
    Metrics.incr_labeled m "reqs" [ ("kind", "q") ];
    Metrics.observe m "lat" 0.002;
    m
  in
  let a = Metrics.render (build ()) and b = Metrics.render (build ()) in
  Alcotest.(check string) "same registry renders identically" a b;
  (* sorted: the alpha line precedes the zeta line *)
  (match String.split_on_char '\n' a with
  | first :: _ -> Alcotest.(check bool) "names sorted" true (contains first "alpha")
  | [] -> Alcotest.fail "empty render")

(* --- metrics: Prometheus exposition -------------------------------------- *)

(* Every non-comment line must be `name{labels} value`. *)
let prom_line_ok line =
  let is_name_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = ':'
  in
  match String.index_opt line ' ' with
  | None -> false
  | Some sp -> (
      let key = String.sub line 0 sp in
      let value = String.sub line (sp + 1) (String.length line - sp - 1) in
      let name_ok name =
        String.length name > 0
        && String.for_all is_name_char name
        && not (name.[0] >= '0' && name.[0] <= '9')
      in
      let key_ok =
        match String.index_opt key '{' with
        | Some i -> key.[String.length key - 1] = '}' && name_ok (String.sub key 0 i)
        | None -> name_ok key
      in
      key_ok && match float_of_string_opt value with Some v -> not (Float.is_nan v) | None -> false)

let test_prometheus_format () =
  let m = Metrics.create () in
  Metrics.incr m "requests_query";
  Metrics.set m "pool_hits" 42;
  Metrics.incr_labeled m "stmts" [ ("kind", "select") ];
  Metrics.incr_labeled m "stmts" [ ("kind", "insert") ];
  Metrics.observe m "query_latency" 0.0005;
  let out = Metrics.render_prometheus m in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' && not (prom_line_ok line) then
        Alcotest.failf "bad exposition line: %s" line)
    (String.split_on_char '\n' out);
  Alcotest.(check bool) "namespaced" true (contains out "aimii_requests_query 1");
  Alcotest.(check bool) "labeled series" true (contains out "aimii_stmts{kind=\"select\"} 1");
  Alcotest.(check bool) "histogram type" true (contains out "# TYPE aimii_query_latency_seconds histogram");
  Alcotest.(check bool) "+Inf bucket" true (contains out "le=\"+Inf\"} 1");
  Alcotest.(check bool) "count line" true (contains out "aimii_query_latency_seconds_count 1");
  (* same label set in any order hits the same series *)
  Metrics.add_labeled m "err" [ ("a", "1"); ("b", "2") ] 1;
  Metrics.add_labeled m "err" [ ("b", "2"); ("a", "1") ] 1;
  Alcotest.(check int) "canonical label order" 2 (Metrics.get_labeled m "err" [ ("a", "1"); ("b", "2") ])

(* Label values carrying the three characters the exposition format
   escapes (backslash, double quote, newline) must come out
   backslash-doubled / backslash-quoted / backslash-n — and nothing
   else may be rewritten (regression: the old printf %S escaping
   emitted OCaml escapes such as backslash-034). *)
let test_prometheus_label_escaping () =
  Alcotest.(check string) "backslash" {|a\\b|} (Metrics.escape_label_value {|a\b|});
  Alcotest.(check string) "quote" {|say \"hi\"|} (Metrics.escape_label_value {|say "hi"|});
  Alcotest.(check string) "newline" {|l1\nl2|} (Metrics.escape_label_value "l1\nl2");
  Alcotest.(check string) "untouched" "tab\t ünï'" (Metrics.escape_label_value "tab\t ünï'");
  let m = Metrics.create () in
  Metrics.incr_labeled m "q" [ ("stmt", "SELECT \"x\\y\"\nFROM t") ];
  Metrics.set_float_labeled m "build_info" [ ("version", "0.9\"\\") ] 1.;
  let out = Metrics.render_prometheus m in
  Alcotest.(check bool) "counter series escaped" true
    (contains out {|aimii_q{stmt="SELECT \"x\\y\"\nFROM t"} 1|});
  Alcotest.(check bool) "gauge series escaped" true
    (contains out {|aimii_build_info{version="0.9\"\\"} 1|});
  (* a raw newline surviving into the exposition would tear a sample
     into a continuation line starting with neither '#' nor the
     namespace prefix *)
  List.iter
    (fun line ->
      if
        String.length line > 0
        && line.[0] <> '#'
        && not (String.length line >= 6 && String.sub line 0 6 = "aimii_")
      then Alcotest.failf "torn exposition line: %s" line)
    (String.split_on_char '\n' out)

(* --- trace tree ---------------------------------------------------------- *)

let test_trace_accumulation () =
  let tr = Trace.create ~label:"stmt" () in
  let fake = ref 0 in
  Trace.add_source tr (fun () -> [ ("fake.counter", !fake) ]);
  let root = Trace.root tr in
  let op = Trace.child root "scan T" in
  (* two activations of the same (parent, label) accumulate in one node *)
  Trace.timed tr op (fun () -> fake := !fake + 3);
  Trace.timed tr op (fun () -> fake := !fake + 4);
  Trace.add_rows op 10;
  Alcotest.(check int) "calls" 2 op.Trace.calls;
  Alcotest.(check int) "rows" 10 op.Trace.rows;
  Alcotest.(check int) "counter delta accumulated" 7 (List.assoc "fake.counter" op.Trace.counters);
  Alcotest.(check bool) "same child node reused" true (Trace.child root "scan T" == op);
  (* a failing section still charges its node *)
  (try Trace.timed tr op (fun () -> fake := !fake + 1; failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "exn path counted" 3 op.Trace.calls;
  Alcotest.(check int) "exn path delta" 8 (List.assoc "fake.counter" op.Trace.counters);
  (match Trace.find tr "scan T" with
  | Some n -> Alcotest.(check bool) "find locates node" true (n == op)
  | None -> Alcotest.fail "find missed the node");
  let r = Trace.render tr in
  Alcotest.(check bool) "render shows node" true (contains r "scan T");
  Alcotest.(check bool) "render shows delta" true (contains r "fake.counter=+8");
  Alcotest.(check bool) "compact one line" true
    (not (contains (Trace.render_compact tr) "\n"))

(* --- EXPLAIN ANALYZE ------------------------------------------------------ *)

let nested_query =
  "SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS : EXISTS z IN y.MEMBERS : \
   z.FUNCTION = 'Consultant'"

let test_explain_analyze_roundtrip () =
  let stmt = Parser.parse_one ("EXPLAIN ANALYZE " ^ nested_query) in
  (match stmt with
  | Ast.Explain_analyze _ -> ()
  | _ -> Alcotest.fail "expected Explain_analyze");
  let printed = Ast.stmt_to_string stmt in
  Alcotest.(check bool) "printer keeps ANALYZE" true (contains printed "EXPLAIN ANALYZE ");
  Alcotest.(check bool) "reparse agrees" true (Parser.parse_one printed = stmt)

(* The trace's per-query pool counters must be exactly the buffer
   pool's own stats delta across the statement. *)
let test_trace_matches_pool_stats () =
  let db = Db.create () in
  Nf2.Demo.load db;
  let q = Parser.parse_query_string nested_query in
  (* BP.stats aggregates a snapshot across partitions: take one before
     and one after and compare deltas *)
  let s = BP.stats (Db.pool db) in
  let before_hits = s.BP.hits and before_misses = s.BP.misses in
  let tr = Db.new_trace db in
  let rel =
    match Db.exec_stmt ~trace:tr db (Ast.Select q) with
    | Db.Rows rel -> rel
    | Db.Msg m -> Alcotest.failf "expected rows, got %s" m
  in
  Alcotest.(check bool) "query returned rows" true (Rel.cardinality rel > 0);
  let node =
    match Trace.find tr "query" with Some n -> n | None -> Alcotest.fail "no query span"
  in
  let counter name = Option.value ~default:0 (List.assoc_opt name node.Trace.counters) in
  let hits = counter "pool.hits" and misses = counter "pool.misses" in
  Alcotest.(check bool) "pool activity traced" true (hits + misses > 0);
  let s' = BP.stats (Db.pool db) in
  Alcotest.(check int) "hits delta matches pool stats" (s'.BP.hits - before_hits) hits;
  Alcotest.(check int) "misses delta matches pool stats" (s'.BP.misses - before_misses) misses;
  (match Trace.find tr "scan DEPARTMENTS" with
  | Some scan -> Alcotest.(check int) "scan rows" 3 scan.Trace.rows
  | None -> Alcotest.fail "no scan span")

let test_explain_analyze_stmt () =
  let db = Db.create () in
  Nf2.Demo.load db;
  match Db.exec db ("EXPLAIN ANALYZE " ^ nested_query) with
  | [ Db.Msg m ] ->
      List.iter
        (fun needle ->
          if not (contains m needle) then Alcotest.failf "EXPLAIN ANALYZE output misses %S:\n%s" needle m)
        [ "plan:"; "trace:"; "scan DEPARTMENTS"; "quantifier EXISTS"; "rows="; "time=";
          "pool.hits="; "pool.misses="; "wal.bytes="; "result: 2 row(s)" ]
  | _ -> Alcotest.fail "expected a message result"

(* A nested SELECT is traced as its own block: a "subquery (...)" span
   under the query span, with the nested block's range span under it.
   Plan notes come from the top-level block only — the nested block's
   scan of EMPLOYEES_1NF would add a "full scan" note if they leaked. *)
let test_explain_analyze_nested () =
  let db = Db.create () in
  Nf2.Demo.load db;
  let sql =
    "SELECT x.DNO, (SELECT e.LNAME FROM e IN EMPLOYEES_1NF WHERE e.EMPNO = x.MGRNO) = MGR FROM x \
     IN DEPARTMENTS WHERE x.BUDGET > 0"
  in
  let tr = Db.new_trace db in
  (match Db.exec_stmt ~trace:tr db (Ast.Select (Parser.parse_query_string sql)) with
  | Db.Rows rel -> Alcotest.(check int) "three departments" 3 (Rel.cardinality rel)
  | Db.Msg m -> Alcotest.failf "expected rows, got %s" m);
  Alcotest.(check (list string)) "one top-level plan note" [ "full scan of DEPARTMENTS" ]
    (Db.last_plan db);
  let query =
    match Trace.find tr "query" with Some n -> n | None -> Alcotest.fail "no query span"
  in
  let sub =
    match
      List.find_opt
        (fun (n : Trace.node) -> String.starts_with ~prefix:"subquery (" n.Trace.label)
        query.Trace.children
    with
    | Some n -> n
    | None -> Alcotest.fail "no subquery span under the query span"
  in
  Alcotest.(check int) "one activation per department" 3 sub.Trace.calls;
  (match
     List.find_opt (fun (n : Trace.node) -> n.Trace.label = "scan EMPLOYEES_1NF") sub.Trace.children
   with
  | Some scan -> Alcotest.(check int) "nested range scanned per activation" 3 scan.Trace.calls
  | None -> Alcotest.fail "no range span under the subquery span");
  match Db.exec db ("EXPLAIN ANALYZE " ^ sql) with
  | [ Db.Msg m ] ->
      List.iter
        (fun needle ->
          if not (contains m needle) then Alcotest.failf "EXPLAIN ANALYZE output misses %S:\n%s" needle m)
        [ "subquery (SELECT e.LNAME"; "scan EMPLOYEES_1NF"; "result: 3 row(s)" ]
  | _ -> Alcotest.fail "expected a message result"

(* --- planner gauges in the exposition ------------------------------------- *)

(* The access-path counters reach Prometheus through the storage-stat
   fold.  An in-transaction point read runs on the live catalog and
   bumps the index-scan series; a plain (snapshot) read has no index
   paths by design and bumps the seq-scan series; the MVCC byte gauge
   is present. *)
let test_planner_gauges () =
  let db = Db.create () in
  Nf2.Demo.load db;
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (DNO)");
  let mgr = Session.create_manager ~metrics:(Metrics.create ()) db in
  let sess = Session.open_session mgr ~sid:1 in
  ignore (Session.handle sess (P.Query "BEGIN;"));
  (match Session.handle sess (P.Query "SELECT x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = 314;") with
  | P.Result_table _ -> ()
  | _ -> Alcotest.fail "indexed read failed");
  ignore (Session.handle sess (P.Query "COMMIT;"));
  (match Session.handle sess (P.Query "SELECT x.DNO FROM x IN DEPARTMENTS;") with
  | P.Result_table _ -> ()
  | _ -> Alcotest.fail "scan read failed");
  Session.close_session sess;
  let out = Session.render_prometheus mgr in
  List.iter
    (fun needle ->
      if not (contains out needle) then Alcotest.failf "exposition misses %S" needle)
    [ "aimii_plan_index_scans 1"; "aimii_plan_seq_scans 1"; "aimii_plan_index_intersections 0";
      "aimii_mvcc_bytes_live" ]

(* --- slow-query log ------------------------------------------------------- *)

let test_slow_query_log () =
  let db = Db.create () in
  Nf2.Demo.load db;
  let lines = ref [] in
  let metrics = Metrics.create () in
  let mgr =
    Session.create_manager ~slow_query:0.0 ~slow_sink:(fun l -> lines := l :: !lines) ~metrics db
  in
  let sess = Session.open_session mgr ~sid:7 in
  (match Session.handle sess (P.Query (nested_query ^ ";")) with
  | P.Result_table { rows; _ } -> Alcotest.(check int) "rows over the wire" 2 (List.length rows)
  | _ -> Alcotest.fail "expected a result table");
  Session.close_session sess;
  match !lines with
  | [ line ] ->
      List.iter
        (fun needle ->
          if not (contains line needle) then Alcotest.failf "slow-query line misses %S:\n%s" needle line)
        [ "slow-query ms="; "sid=7"; "status=ok"; "stmt=\"SELECT"; "trace=["; "scan DEPARTMENTS" ];
      (* a snapshot read acquires no predicate locks, so the trace's
         lock-counter deltas are all zero and stay off the line *)
      Alcotest.(check bool) "no lock activity on a snapshot read" true
        (not (contains line "lock.acquires="));
      Alcotest.(check bool) "one line only" true (not (contains line "\n"));
      Alcotest.(check int) "slow_queries counter" 1 (Metrics.get metrics "slow_queries")
  | ls -> Alcotest.failf "expected exactly one slow-query line, got %d" (List.length ls)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "dump bounds" `Quick test_dump_bounds;
          Alcotest.test_case "empty percentile" `Quick test_empty_percentile;
          Alcotest.test_case "concurrent observe" `Quick test_concurrent_observe;
          Alcotest.test_case "deterministic render" `Quick test_render_deterministic;
          Alcotest.test_case "prometheus format" `Quick test_prometheus_format;
          Alcotest.test_case "prometheus label escaping" `Quick test_prometheus_label_escaping;
        ] );
      ( "trace",
        [
          Alcotest.test_case "node accumulation" `Quick test_trace_accumulation;
        ] );
      ( "planner gauges",
        [
          Alcotest.test_case "exposition series" `Quick test_planner_gauges;
        ] );
      ( "explain analyze",
        [
          Alcotest.test_case "parser/printer round-trip" `Quick test_explain_analyze_roundtrip;
          Alcotest.test_case "trace matches pool stats" `Quick test_trace_matches_pool_stats;
          Alcotest.test_case "statement output" `Quick test_explain_analyze_stmt;
          Alcotest.test_case "nested SELECT spans" `Quick test_explain_analyze_nested;
        ] );
      ( "slow-query log",
        [ Alcotest.test_case "one structured line" `Quick test_slow_query_log ] );
    ]
