(* Tests for time-version support: reverse-delta version chains and
   ASOF snapshot reads (Section 5 of the paper). *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module P = Nf2_workload.Paper_data
module D = Nf2_storage.Disk
module BP = Nf2_storage.Buffer_pool
module OS = Nf2_storage.Object_store
module VS = Nf2_temporal.Version_store
module Db = Nf2.Db

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* A versioned object store driven the way the engine drives one: every
   event is logged in the history right after an insert, or before the
   change it describes. *)
type env = { pool : BP.t; store : OS.t; vs : VS.t }

let sch = P.departments
let tbl = sch.Schema.table

let mk_env () =
  let pool = BP.create ~frames:128 (D.create ()) in
  { pool; store = OS.create pool; vs = VS.create pool }

let fetch e = OS.fetch e.store sch

let insert e ~ts tup =
  let root = OS.insert e.store sch tup in
  VS.record e.vs ~ts root VS.Born;
  (root, Option.get (VS.object_id e.vs root))

let update_atoms e ~ts root path atoms =
  VS.record e.vs ~ts root (VS.Changed (VS.Atoms (path, VS.atoms_at tbl (fetch e root) path)));
  OS.update_atoms e.store sch root path atoms

let append e ~ts root path tup =
  VS.record e.vs ~ts root (VS.Changed (VS.Whole (fetch e root)));
  OS.append_element e.store sch root path tup

let delete e ~ts root =
  VS.record e.vs ~ts root (VS.Died (fetch e root));
  OS.delete e.store sch root

let asof e id ~ts = VS.object_asof (VS.freeze e.vs) sch ~fetch:(fetch e) id ~ts
let asof_all e ~ts = VS.asof (VS.freeze e.vs) sch ~fetch:(fetch e) ~ts

let day s = match Atom.date_of_string s with Some (Atom.Date d) -> d | _ -> assert false

let test_insert_current () =
  let e = mk_env () in
  let d314 = List.nth P.departments_rows 0 in
  let root, id = insert e ~ts:(day "1983-01-01") d314 in
  checkb "current" true (Value.equal_tuple d314 (fetch e root));
  checkb "asof birth" true (asof e id ~ts:(day "1983-01-01") = Some d314);
  checki "one version" 1 (VS.version_count (VS.freeze e.vs) id)

let test_asof_whole_deltas () =
  let e = mk_env () in
  let d314 = List.nth P.departments_rows 0 in
  let root, id = insert e ~ts:(day "1983-01-01") d314 in
  append e ~ts:(day "1984-06-01") root [ OS.Attr "PROJECTS" ]
    [ Value.Atom (Atom.Int 99); Value.Atom (Atom.Str "NEW"); Value.Table { Value.kind = Schema.Set; tuples = [] } ];
  let d314' = fetch e root in
  checkb "the append changed the object" false (Value.equal_tuple d314 d314');
  (* before the change *)
  (match asof e id ~ts:(day "1984-01-15") with
  | Some tup -> checkb "old state" true (Value.equal_tuple d314 tup)
  | None -> Alcotest.fail "alive");
  (* at/after the change *)
  (match asof e id ~ts:(day "1984-06-01") with
  | Some tup -> checkb "new state" true (Value.equal_tuple d314' tup)
  | None -> Alcotest.fail "alive");
  (* before creation *)
  checkb "not yet born" true (asof e id ~ts:(day "1982-12-31") = None)

let test_asof_atom_deltas () =
  let e = mk_env () in
  let d314 = List.nth P.departments_rows 0 in
  let root, id = insert e ~ts:100 d314 in
  (* three successive budget changes via small deltas *)
  update_atoms e ~ts:200 root [] [ Atom.Int 314; Atom.Int 56194; Atom.Int 330_000 ];
  update_atoms e ~ts:300 root [] [ Atom.Int 314; Atom.Int 56194; Atom.Int 340_000 ];
  update_atoms e ~ts:400 root [] [ Atom.Int 314; Atom.Int 56194; Atom.Int 350_000 ];
  let budget_at ts =
    match asof e id ~ts with
    | Some tup -> (
        match Value.field tbl tup "BUDGET" with
        | Value.Atom (Atom.Int b) -> b
        | _ -> -1)
    | None -> -1
  in
  checki "at 150" 320_000 (budget_at 150);
  checki "at 200" 330_000 (budget_at 200);
  checki "at 250" 330_000 (budget_at 250);
  checki "at 350" 340_000 (budget_at 350);
  checki "at 999" 350_000 (budget_at 999);
  (* nested subobject update: member function change *)
  update_atoms e ~ts:500 root
    [ OS.Attr "PROJECTS"; OS.Elem 0; OS.Attr "MEMBERS"; OS.Elem 1 ]
    [ Atom.Int 56019; Atom.Str "Manager" ];
  let fn_at ts =
    match asof e id ~ts with
    | Some tup ->
        let fns = Value.atoms_on_path tbl tup [ "PROJECTS"; "MEMBERS"; "FUNCTION" ] in
        if List.exists (Atom.equal (Atom.Str "Manager")) fns then "Manager" else "Consultant"
    | None -> "?"
  in
  Alcotest.(check string) "before promo" "Consultant" (fn_at 450);
  Alcotest.(check string) "after promo" "Manager" (fn_at 500);
  (* other attributes untouched by the nested update *)
  checki "budget preserved across nested delta" 350_000 (budget_at 450)

let test_delete_and_snapshot () =
  let e = mk_env () in
  let d0 = List.nth P.departments_rows 0 and d1 = List.nth P.departments_rows 1 in
  let root1, id1 = insert e ~ts:10 d0 in
  let _, id2 = insert e ~ts:20 d1 in
  delete e ~ts:30 root1;
  checki "snapshot at 25" 2 (List.length (asof_all e ~ts:25));
  checki "snapshot at 30" 1 (List.length (asof_all e ~ts:30));
  checki "snapshot at 15" 1 (List.length (asof_all e ~ts:15));
  (* the dead object leaves the store; its past stays queryable *)
  checki "current" 1 (List.length (OS.roots e.store));
  checkb "dead object's past" true (asof e id1 ~ts:25 = Some d0);
  (* a dead root takes no further events *)
  (try
     VS.record e.vs ~ts:40 root1 (VS.Died d0);
     Alcotest.fail "expected Temporal_error"
   with VS.Temporal_error _ -> ());
  (* a root the store hands out again starts a new chain *)
  let _, id3 = insert e ~ts:40 d1 in
  checkb "new id" true (id3 <> id1 && id3 <> id2);
  checkb "old chain stays dead" true (asof e id1 ~ts:45 = None);
  checki "snapshot at 45" 2 (List.length (asof_all e ~ts:45));
  (* the index rebuilt from the log answers the same *)
  let e' = { e with vs = VS.restore e.pool ~pages:(VS.pages e.vs) } in
  List.iter
    (fun ts ->
      checkb (Printf.sprintf "restored snapshot at %d" ts) true
        (List.equal Value.equal_tuple (asof_all e ~ts) (asof_all e' ~ts)))
    [ 5; 15; 25; 30; 45 ];
  checki "restored clock" 40 (VS.clock e'.vs)

let test_monotonicity_enforced () =
  let e = mk_env () in
  let root, _ = insert e ~ts:100 (List.nth P.departments_rows 0) in
  try
    update_atoms e ~ts:50 root [] [ Atom.Int 314; Atom.Int 56194; Atom.Int 1 ];
    Alcotest.fail "expected Temporal_error"
  with VS.Temporal_error _ -> ()

let test_history_metadata () =
  let e = mk_env () in
  let root, id = insert e ~ts:10 (List.nth P.departments_rows 0) in
  update_atoms e ~ts:20 root [] [ Atom.Int 314; Atom.Int 56194; Atom.Int 1 ];
  update_atoms e ~ts:30 root [] [ Atom.Int 314; Atom.Int 56194; Atom.Int 2 ];
  let h = VS.history (VS.freeze e.vs) id in
  checki "3 versions" 3 (List.length h);
  Alcotest.(check (list int)) "timestamps in order" [ 10; 20; 30 ] (List.map fst h);
  Alcotest.(check (list bool)) "only the first is initial" [ true; false; false ] (List.map snd h)

let test_delta_space_smaller_than_copies () =
  (* the reverse-delta design stores far less than one full copy per
     version when updates touch single atoms *)
  let e = mk_env () in
  let root, _ = insert e ~ts:0 (List.nth P.departments_rows 0) in
  for i = 1 to 50 do
    update_atoms e ~ts:i root [] [ Atom.Int 314; Atom.Int 56194; Atom.Int (320_000 + i) ]
  done;
  let delta_bytes = VS.delta_bytes e.vs in
  let full_copy_bytes =
    let b = Codec.create_sink () in
    Value.encode_tuple b (List.nth P.departments_rows 0);
    50 * String.length (Codec.contents b)
  in
  checkb "deltas much smaller than full copies" true (delta_bytes * 4 < full_copy_bytes)

let test_walk_through_time () =
  let e = mk_env () in
  let d314 = List.nth P.departments_rows 0 in
  let root, id = insert e ~ts:100 d314 in
  update_atoms e ~ts:200 root [] [ Atom.Int 314; Atom.Int 56194; Atom.Int 330_000 ];
  update_atoms e ~ts:300 root [] [ Atom.Int 314; Atom.Int 56194; Atom.Int 340_000 ];
  update_atoms e ~ts:400 root [] [ Atom.Int 314; Atom.Int 56194; Atom.Int 350_000 ];
  let budget tup =
    match Value.field tbl tup "BUDGET" with
    | Value.Atom (Atom.Int b) -> b
    | _ -> -1
  in
  let walk ~lo ~hi = VS.walk_through_time (VS.freeze e.vs) sch ~fetch:(fetch e) id ~lo ~hi in
  (* interval spanning versions 2-3: base state at lo + two changes *)
  Alcotest.(check (list (pair int int)))
    "states in [250,350]"
    [ (250, 330_000); (300, 340_000) ]
    (List.map (fun (ts, tup) -> (ts, budget tup)) (walk ~lo:250 ~hi:350));
  (* interval before creation: empty *)
  checki "before creation" 0 (List.length (walk ~lo:0 ~hi:50));
  (* whole history *)
  checki "all four states" 4 (List.length (walk ~lo:100 ~hi:999));
  (* empty interval rejected *)
  try
    ignore (walk ~lo:300 ~hi:200);
    Alcotest.fail "expected Temporal_error"
  with VS.Temporal_error _ -> ()

(* --- language-level ASOF (paper Section 5 example) ------------------------- *)

let test_language_asof_example () =
  let db = Db.create () in
  ignore
    (Db.exec db
       "CREATE TABLE DEPARTMENTS (DNO INT, MGRNO INT, PROJECTS TABLE (PNO INT, PNAME TEXT), BUDGET INT) WITH VERSIONS");
  ignore
    (Db.exec db
       "INSERT INTO DEPARTMENTS VALUES (314, 56194, {(17, 'CGA'), (23, 'HEAP')}, 320000)");
  (* later the department is reorganised *)
  ignore (Db.exec db "UPDATE DEPARTMENTS SET BUDGET = 500000 WHERE DNO = 314 AT DATE '1984-03-01'");
  (* the paper's query: all projects department 314 had on Jan 15, 1984 *)
  let r =
    Db.query db
      "SELECT y.PNO, y.PNAME FROM x IN DEPARTMENTS ASOF DATE '1984-01-15', y IN x.PROJECTS WHERE x.DNO = 314"
  in
  checki "two projects on 1984-01-15" 2 (List.length (Nf2_algebra.Rel.tuples r));
  let r = Db.query db "SELECT x.BUDGET FROM x IN DEPARTMENTS ASOF DATE '1984-01-15' WHERE x.DNO = 314" in
  (match Nf2_algebra.Rel.tuples r with
  | [ [ Value.Atom (Atom.Int 320000) ] ] -> ()
  | _ -> Alcotest.fail "old budget");
  let r = Db.query db "SELECT x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = 314" in
  match Nf2_algebra.Rel.tuples r with
  | [ [ Value.Atom (Atom.Int 500000) ] ] -> ()
  | _ -> Alcotest.fail "current budget"

(* --- differential oracle: a versioned table against its plain twin ------- *)

(* One seeded DML stream runs on a versioned table V and on a plain twin
   P; V's copy of each UPDATE and DELETE carries an increasing AT, and
   INSERTs take V's clock.  After every step P's contents are recorded
   under V's clock — the timestamp of V's newest logged change — so at
   the end ASOF <ts> on V must render exactly P's recording for that ts,
   on the live view, through a pinned snapshot, after a save/load round
   trip, and after a rolled-back transaction that touched V.  An index
   on V's key arrives part-way, so later DML and the final point reads
   plan through it. *)
let test_versioned_vs_plain_twin () =
  let db = Db.create ~wal:true () in
  List.iter
    (fun name ->
      ignore
        (Db.exec db
           (Printf.sprintf "CREATE TABLE %s (K INT, N INT, ITEMS TABLE (I INT, Q INT))%s" name
              (if name = "V" then " WITH VERSIONS" else ""))))
    [ "V"; "P" ];
  let rng = Random.State.make [| 20261018 |] in
  let int n = Random.State.int rng n in
  let render db q = Nf2_algebra.Rel.render (Db.query db q) in
  let select_all name = Printf.sprintf "SELECT * FROM x IN %s" name in
  let affected = function
    | [ Db.Msg m ] -> Scanf.sscanf m "%d" Fun.id
    | _ -> Alcotest.fail "one message"
  in
  let recorded = Hashtbl.create 64 in
  let clock = ref 0 and next_ts = ref 0 in
  let steps = 120 in
  for step = 1 to steps do
    if step = steps / 2 then ignore (Db.exec db "CREATE INDEX ON V (K)");
    (* [stmt table at]: the statement on one table, with its AT clause *)
    let timed, stmt =
      match int 8 with
      | 0 | 1 ->
          let k = int 12 and n = int 100 in
          let items = List.init (int 3) (fun _ -> Printf.sprintf "(%d, %d)" (int 5) (int 100)) in
          ( false,
            fun t _ ->
              Printf.sprintf "INSERT INTO %s VALUES (%d, %d, {%s})" t k n (String.concat ", " items) )
      | 2 ->
          let k = int 12 and n = int 100 in
          (true, fun t at -> Printf.sprintf "UPDATE %s SET N = %d WHERE K = %d%s" t n k at)
      | 3 ->
          let c = int 100 in
          (true, fun t at -> Printf.sprintf "UPDATE %s SET N = N + 1 WHERE N < %d%s" t c at)
      | 4 ->
          let k = int 12 and i = int 5 and q = int 100 in
          ( true,
            fun t at -> Printf.sprintf "UPDATE %s.ITEMS SET Q = %d WHERE K = %d AND I = %d%s" t q k i at )
      | 5 ->
          let k = int 12 and i = int 5 and q = int 100 in
          (false, fun t _ -> Printf.sprintf "INSERT INTO %s.ITEMS WHERE K = %d VALUES (%d, %d)" t k i q)
      | 6 ->
          let i = int 5 in
          (true, fun t at -> Printf.sprintf "DELETE FROM %s.ITEMS WHERE I = %d%s" t i at)
      | _ ->
          let k = int 12 in
          (true, fun t at -> Printf.sprintf "DELETE FROM %s WHERE K = %d%s" t k at)
    in
    let ts = !next_ts + 10 in
    let n_v = affected (Db.exec db (stmt "V" (if timed then Printf.sprintf " AT %d" ts else ""))) in
    let n_p = affected (Db.exec db (stmt "P" "")) in
    checki (Printf.sprintf "step %d: same effect" step) n_p n_v;
    if timed then next_ts := ts;
    (* only a change moves V's clock *)
    if timed && n_v > 0 then clock := ts;
    Hashtbl.replace recorded !clock (render db (select_all "P"))
  done;
  let stamps = List.sort compare (Hashtbl.fold (fun ts _ acc -> ts :: acc) recorded []) in
  checkb "the stream moved the clock" true (List.length stamps > 20);
  let check_all what read =
    List.iter
      (fun ts ->
        let expected = Hashtbl.find recorded ts in
        (* ts itself and an instant before the next stamp *)
        List.iter
          (fun at ->
            Alcotest.(check string)
              (Printf.sprintf "%s: V ASOF %d" what at)
              expected
              (read (Printf.sprintf "%s ASOF %d" (select_all "V") at)))
          [ ts; ts + 5 ])
      stamps
  in
  check_all "live" (render db);
  let snap = Db.snapshot db in
  check_all "snapshot" (fun q ->
      Db.render_result (Db.exec_read db snap (List.hd (Nf2_lang.Parser.parse_script q))));
  Db.release_snapshot db snap;
  let path = Filename.temp_file "aimii_versions" ".db" in
  Db.save db path;
  let loaded = Db.load path in
  Sys.remove path;
  check_all "save/load" (render loaded);
  ignore
    (Db.exec db
       (Printf.sprintf
          "BEGIN; UPDATE V SET N = 0 AT %d; UPDATE V.ITEMS SET Q = 0 AT %d; INSERT INTO V.ITEMS VALUES \
           (9, 9); DELETE FROM V WHERE K < 6 AT %d; INSERT INTO V VALUES (99, 99, {}); ROLLBACK"
          (!next_ts + 10) (!next_ts + 20) (!next_ts + 30)));
  check_all "after rollback" (render db);
  (* current reads: V equals P, planned equals scanned, keys use the index *)
  Alcotest.(check string) "current V = current P" (render db (select_all "P")) (render db (select_all "V"));
  for k = 0 to 11 do
    let q = Printf.sprintf "%s WHERE x.K = %d" (select_all "V") k in
    let planned = render db q in
    Db.set_plan_force_seq db true;
    let scanned = render db q in
    Db.set_plan_force_seq db false;
    Alcotest.(check string) (q ^ ": planned = forced-seq") scanned planned;
    let plan = Db.render_result (Db.exec1 db ("EXPLAIN " ^ q)) in
    checkb (q ^ ": index-scan") true
      (let needle = "index-scan" in
       let n = String.length needle in
       let rec has i = i + n <= String.length plan && (String.sub plan i n = needle || has (i + 1)) in
       has 0)
  done

(* AT timestamps a versioned table's changes; on a plain table it is
   refused on every DML path, before anything changes. *)
let test_at_refused_on_plain_tables () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE P (K INT, N INT, ITEMS TABLE (I INT))");
  ignore (Db.exec db "INSERT INTO P VALUES (1, 1, {(1), (2)})");
  let before = Nf2_algebra.Rel.render (Db.query db "SELECT * FROM x IN P") in
  List.iter
    (fun stmt ->
      (try
         ignore (Db.exec db stmt);
         Alcotest.fail ("AT accepted on a plain table: " ^ stmt)
       with Db.Db_error _ -> ());
      Alcotest.(check string) (stmt ^ " changed nothing") before
        (Nf2_algebra.Rel.render (Db.query db "SELECT * FROM x IN P")))
    [
      "UPDATE P SET N = 2 WHERE K = 1 AT DATE '1985-01-01'";
      "DELETE FROM P WHERE K = 1 AT DATE '1985-01-01'";
      "UPDATE P.ITEMS SET I = 3 WHERE I = 1 AT DATE '1985-01-01'";
      "DELETE FROM P.ITEMS WHERE I = 1 AT DATE '1985-01-01'";
    ]

(* ROLLBACK takes up the history index kept from BEGIN instead of
   re-reading the history log: ASOF answers and the clock are those of
   before BEGIN, and an empty transaction's rollback makes as many pool
   accesses next to a long history as next to a short one. *)
let test_rollback_keeps_history () =
  let versioned updates =
    let db = Db.create ~wal:true () in
    ignore (Db.exec db "CREATE TABLE V (K INT, N INT, ITEMS TABLE (I INT)) WITH VERSIONS");
    ignore (Db.exec db "INSERT INTO V VALUES (1, 0, {(1)}), (2, 0, {}), (3, 0, {(3), (4)})");
    for i = 1 to updates do
      ignore
        (Db.exec db (Printf.sprintf "UPDATE V SET N = %d WHERE K = %d AT %d" i (1 + (i mod 3)) (10 * i)))
    done;
    db
  in
  let render db q = Nf2_algebra.Rel.render (Db.query db q) in
  let asof db ts = render db (Printf.sprintf "SELECT * FROM x IN V ASOF %d" ts) in
  let stamps = [ 0; 5; 10; 15; 500; 995; 1000; 2000; 3500; 5000 ] in
  let db = versioned 100 in
  let before = List.map (asof db) stamps in
  ignore
    (Db.exec db
       "BEGIN; UPDATE V SET N = -1 WHERE K = 1 AT 2000; UPDATE V.ITEMS SET I = 0 AT 3000; DELETE FROM \
        V WHERE K = 3 AT 4000; INSERT INTO V VALUES (4, 4, {}); ROLLBACK");
  List.iter2
    (fun ts expected -> Alcotest.(check string) (Printf.sprintf "ASOF %d after rollback" ts) expected (asof db ts))
    stamps before;
  (* the clock is back at 1000: a change stamped before the rolled-back
     ones is accepted and joins the history *)
  ignore (Db.exec db "UPDATE V SET N = 7 WHERE K = 2 AT 1500");
  Alcotest.(check string) "ASOF 1499 after a later change" (List.nth before 6) (asof db 1499);
  Alcotest.(check string) "ASOF 1500 shows it" (render db "SELECT * FROM x IN V") (asof db 1500);
  let accesses updates =
    let db = versioned updates in
    let pool = Db.pool db in
    let count () =
      let s = BP.stats pool in
      s.BP.hits + s.BP.misses
    in
    let c0 = count () in
    ignore (Db.exec db "BEGIN; ROLLBACK");
    count () - c0
  in
  checki "empty rollback: pool accesses after 100 vs 1,000 logged updates" (accesses 100)
    (accesses 1000)

let () =
  Alcotest.run "temporal"
    [
      ( "version store",
        [
          Alcotest.test_case "insert/current" `Quick test_insert_current;
          Alcotest.test_case "asof (whole updates)" `Quick test_asof_whole_deltas;
          Alcotest.test_case "asof (atom deltas)" `Quick test_asof_atom_deltas;
          Alcotest.test_case "delete/snapshot" `Quick test_delete_and_snapshot;
          Alcotest.test_case "monotone timestamps" `Quick test_monotonicity_enforced;
          Alcotest.test_case "history metadata" `Quick test_history_metadata;
          Alcotest.test_case "delta space" `Quick test_delta_space_smaller_than_copies;
          Alcotest.test_case "walk-through-time" `Quick test_walk_through_time;
        ] );
      ( "language",
        [
          Alcotest.test_case "ASOF example (Section 5)" `Quick test_language_asof_example;
          Alcotest.test_case "versioned table vs plain twin" `Quick test_versioned_vs_plain_twin;
          Alcotest.test_case "AT refused on plain tables" `Quick test_at_refused_on_plain_tables;
          Alcotest.test_case "rollback keeps the history" `Quick test_rollback_keeps_history;
        ] );
    ]
