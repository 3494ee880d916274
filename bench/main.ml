(* Bench harness: regenerates every table and figure of the paper and
   measures every architectural claim (see DESIGN.md section 3 for the
   experiment index).  Output is self-checking: each artefact is
   compared against the embedded fixtures; each claim's comparative
   shape is asserted.

   Run with:  dune exec bench/main.exe            (all sections)
              dune exec bench/main.exe -- F6 F7   (selected sections)
   An unknown section id exits with status 2 and lists the valid ids.
   [main.exe --bulk-load N] runs one of WL's logged bulk loads alone,
   [main.exe --commit-cost N] one of its commit-cost measurements. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module Rel = Nf2_algebra.Rel
module Ops = Nf2_algebra.Ops
module P = Nf2_workload.Paper_data
module G = Nf2_workload.Generator
module D = Nf2_storage.Disk
module BP = Nf2_storage.Buffer_pool
module OS = Nf2_storage.Object_store
module MD = Nf2_storage.Mini_directory
module Tid = Nf2_storage.Tid
module VI = Nf2_index.Value_index
module TI = Nf2_index.Text_index
module VS = Nf2_temporal.Version_store
module TN = Nf2_tname.Tuple_name
module Lorie = Nf2_baseline.Lorie
module Flat = Nf2_baseline.Flat_db
module Db = Nf2.Db
open Harness

let demo = lazy (Nf2.Demo.create ())

let q sql = Db.query (Lazy.force demo) sql

let eq_fixture (rel : Rel.t) rows =
  Value.equal_table rel.Rel.data { Value.kind = Schema.Set; tuples = rows }

(* ================================================================== *)
(* Tables 1-8: regenerate and verify each printed artefact            *)
(* ================================================================== *)

let bench_tables () =
  section "T1-T8" "Tables 1-8: stored tables regenerated and checked";
  let show name rows =
    subsection name;
    let rel = q (Printf.sprintf "SELECT * FROM %s" name) in
    print_string (Rel.render ~name rel);
    check (name ^ " = paper fixture") (eq_fixture rel rows)
  in
  show "DEPARTMENTS_1NF" P.departments_1nf_rows;
  show "PROJECTS_1NF" P.projects_1nf_rows;
  show "MEMBERS_1NF" P.members_1nf_rows;
  show "EQUIP_1NF" P.equip_1nf_rows;
  show "DEPARTMENTS" P.departments_rows;
  show "REPORTS" P.reports_rows;
  show "EMPLOYEES_1NF" P.employees_1nf_rows;
  subsection "Table 7 (result of Example 4)";
  let t7 =
    q
      "SELECT x.DNO, x.MGRNO, y.PNO, y.PNAME, z.EMPNO, z.FUNCTION \
       FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS"
  in
  print_string (Rel.render ~name:"TABLE_7" t7);
  check "Table 7 = unnest fixture" (eq_fixture t7 P.example4_expected)

(* ================================================================== *)
(* Fig 1: IMS-style segment hierarchy                                 *)
(* ================================================================== *)

let bench_fig1 () =
  section "F1" "Fig 1: DEPARTMENTS hierarchy in IMS-like representation";
  print_string (Schema.render_segment_tree P.departments);
  check "4 segments"
    (List.length (String.split_on_char '\n' (String.trim (Schema.render_segment_tree P.departments))) = 4)

(* ================================================================== *)
(* Figs 2-5 and Examples 1-8: query artefacts, timed                  *)
(* ================================================================== *)

let example_queries : (string * string * (Rel.t -> bool)) list =
  [
    ("EX1 SELECT *", "SELECT * FROM DEPARTMENTS", fun r -> eq_fixture r P.departments_rows);
    ( "F2 explicit structure",
      "SELECT x.DNO, x.MGRNO, (SELECT y.PNO, y.PNAME, (SELECT z.EMPNO, z.FUNCTION FROM z IN \
       y.MEMBERS) = MEMBERS FROM y IN x.PROJECTS) = PROJECTS, x.BUDGET, (SELECT v.QU, v.TYPE FROM v \
       IN x.EQUIP) = EQUIP FROM x IN DEPARTMENTS",
      fun r -> eq_fixture r P.departments_rows );
    ( "F3 nest from Tables 1-4",
      "SELECT x.DNO, x.MGRNO, (SELECT y.PNO, y.PNAME, (SELECT z.EMPNO, z.FUNCTION FROM z IN \
       MEMBERS_1NF WHERE z.PNO = y.PNO AND z.DNO = y.DNO) = MEMBERS FROM y IN PROJECTS_1NF WHERE \
       y.DNO = x.DNO) = PROJECTS, x.BUDGET, (SELECT v.QU, v.TYPE FROM v IN EQUIP_1NF WHERE v.DNO = \
       x.DNO) = EQUIP FROM x IN DEPARTMENTS_1NF",
      fun r -> eq_fixture r P.departments_rows );
    ( "EX4 unnest (Table 7)",
      "SELECT x.DNO, x.MGRNO, y.PNO, y.PNAME, z.EMPNO, z.FUNCTION FROM x IN DEPARTMENTS, y IN \
       x.PROJECTS, z IN y.MEMBERS",
      fun r -> eq_fixture r P.example4_expected );
    ( "EX5 EXISTS",
      "SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN DEPARTMENTS WHERE EXISTS y IN x.EQUIP : y.TYPE = \
       'PC/AT'",
      fun r -> Rel.cardinality r = 3 );
    ( "EX6 ALL (empty)",
      "SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN DEPARTMENTS WHERE ALL y IN x.PROJECTS : ALL z IN \
       y.MEMBERS : z.FUNCTION = 'Consultant'",
      fun r -> Rel.cardinality r = 0 );
    ( "EX7/F4 join with EMPLOYEES",
      "SELECT x.DNO, x.MGRNO, (SELECT e.EMPNO, e.LNAME, e.FNAME, e.SEX, z.FUNCTION FROM y IN \
       x.PROJECTS, z IN y.MEMBERS, e IN EMPLOYEES_1NF WHERE z.EMPNO = e.EMPNO) = EMPLOYEES FROM x \
       IN DEPARTMENTS",
      fun r -> Rel.cardinality r = 3 );
    ( "F5 two joins (manager name)",
      "SELECT x.DNO, m.LNAME, m.FNAME, m.SEX FROM x IN DEPARTMENTS, m IN EMPLOYEES_1NF WHERE \
       x.MGRNO = m.EMPNO",
      fun r -> Rel.cardinality r = 3 );
    ( "EX8 AUTHORS[1]",
      "SELECT x.AUTHORS, x.TITLE FROM x IN REPORTS WHERE x.AUTHORS[1] = 'Jones'",
      fun r -> Rel.cardinality r = 1 );
  ]

let bench_examples () =
  section "F2-F5/EX" "Figs 2-5 and Examples 1-8: queries, checked and timed";
  List.iter (fun (name, sql, ok) -> check name (ok (q sql))) example_queries;
  subsection "query latency (Bechamel, demo-scale data)";
  let timed =
    measure (List.map (fun (name, sql, _) -> (name, fun () -> ignore (q sql))) example_queries)
  in
  print_table ~header:[ "query"; "time/run" ] (List.map (fun (n, ns) -> [ n; ns_to_string ns ]) timed)

(* ================================================================== *)
(* Fig 6: storage structures SS1 / SS2 / SS3                          *)
(* ================================================================== *)

let bench_fig6 () =
  section "F6" "Fig 6: Mini Directory layouts SS1/SS2/SS3";
  subsection "MD trees for department 314 (the paper's worked example)";
  let counts =
    List.map
      (fun layout ->
        let _, pool = fresh_env () in
        let store = OS.create ~layout pool in
        let tid = OS.insert store P.departments (List.nth P.departments_rows 0) in
        let st = OS.md_stats store P.departments tid in
        Printf.printf "\n%s (%d MD subtuples):\n" (MD.layout_name layout) st.OS.md_subtuples;
        print_string (MD.render_view (OS.md_view store P.departments tid));
        (layout, st))
      MD.all_layouts
  in
  let n layout = (List.assoc layout counts).OS.md_subtuples in
  check "dept 314: SS1 = 7 MD subtuples" (n MD.SS1 = 7);
  check "dept 314: SS2 = 3 MD subtuples" (n MD.SS2 = 3);
  check "dept 314: SS3 = 5 MD subtuples" (n MD.SS3 = 5);
  check "order SS1 > SS3 > SS2" (n MD.SS1 > n MD.SS3 && n MD.SS3 > n MD.SS2);

  subsection "sweep: MD size and navigation cost vs object size";
  print_table
    ~header:
      [ "members/proj"; "layout"; "MD subtuples"; "MD bytes"; "ptr entries"; "partial-fetch MD reads"; "whole fetch" ]
    (List.concat_map
       (fun members ->
         let params =
           { G.default_dept_params with G.departments = 1; projects_per_dept = 5; members_per_project = members }
         in
         let tup = List.hd (G.departments ~params ()) in
         List.map
           (fun layout ->
             let _, pool = fresh_env ~frames:256 () in
             let store = OS.create ~layout pool in
             let tid = OS.insert store P.departments tup in
             let st = OS.md_stats store P.departments tid in
             OS.reset_stats store;
             (match OS.fetch_path store P.departments tid [ OS.Attr "PROJECTS"; OS.Elem 3 ] with
             | Value.Table _ -> ()
             | _ -> ());
             let md_reads = (OS.stats store).OS.md_reads in
             let timing = measure ~quota:0.1 [ ("f", fun () -> ignore (OS.fetch store P.departments tid)) ] in
             [
               string_of_int members;
               MD.layout_name layout;
               string_of_int st.OS.md_subtuples;
               string_of_int st.OS.md_bytes;
               string_of_int st.OS.pointer_entries;
               string_of_int md_reads;
               ns_to_string (snd (List.hd timing));
             ])
           MD.all_layouts)
       [ 2; 8; 32; 128 ]);
  List.iter
    (fun members ->
      let params = { G.default_dept_params with G.departments = 1; members_per_project = members } in
      let tup = List.hd (G.departments ~params ()) in
      let count layout =
        let _, pool = fresh_env () in
        let store = OS.create ~layout pool in
        let tid = OS.insert store P.departments tup in
        (OS.md_stats store P.departments tid).OS.md_subtuples
      in
      check
        (Printf.sprintf "SS1 > SS3 > SS2 at %d members/project" members)
        (count MD.SS1 > count MD.SS3 && count MD.SS3 > count MD.SS2))
    [ 2; 8; 32; 128 ]

(* ================================================================== *)
(* Fig 7: index address implementations                               *)
(* ================================================================== *)

(* Scan one fetched department for "project [target_pno] has a
   Consultant" — the per-candidate verification the two strawman
   addressing schemes are forced into. *)
let verify_dept_conjunction target_pno (tup : Value.tuple) =
  match Value.field P.departments.Schema.table tup "PROJECTS" with
  | Value.Table projects ->
      List.exists
        (fun proj ->
          match proj with
          | Value.Atom (Atom.Int pno) :: _ :: [ Value.Table members ] ->
              pno = target_pno
              && List.exists
                   (fun m -> List.exists (Value.equal_v (Value.str "Consultant")) m)
                   members.Value.tuples
          | _ -> false)
        projects.Value.tuples
  | _ -> false

let bench_fig7 () =
  section "F7" "Fig 7: index addressing — data TIDs vs root TIDs vs hierarchical";
  let ndepts = 60 in
  let params =
    { G.default_dept_params with G.departments = ndepts; projects_per_dept = 6; members_per_project = 8 }
  in
  let rows = G.departments ~params () in
  let target_pno = 10 in
  subsection
    (Printf.sprintf "query: departments with a project PNO=%d employing a Consultant (over %d departments)"
       target_pno ndepts);
  let run strategy =
    let disk, pool = fresh_env ~frames:64 () in
    let store = OS.create pool in
    ignore (List.map (OS.insert store P.departments) rows);
    let pno_idx = VI.create store P.departments strategy [ "PROJECTS"; "PNO" ] in
    let fn_idx = VI.create store P.departments strategy [ "PROJECTS"; "MEMBERS"; "FUNCTION" ] in
    let answer () : Tid.t list =
      match strategy with
      | VI.Hierarchical ->
          (* Fig 7b: prefix-compatibility decides on addresses alone *)
          VI.prefix_join pno_idx (Atom.Int target_pno) fn_idx (Atom.Str "Consultant")
      | VI.Root_tid | VI.Data_tid ->
          (* the index yields a candidate superset only; every candidate
             object must be scanned (with Data_tid, [roots_for] itself
             already embeds the table scan the paper complains about) *)
          let a = VI.roots_for pno_idx (Atom.Int target_pno) in
          let b = VI.roots_for fn_idx (Atom.Str "Consultant") in
          let cands = List.filter (fun t -> List.exists (Tid.equal t) b) a in
          List.filter
            (fun root -> verify_dept_conjunction target_pno (OS.fetch store P.departments root))
            cands
    in
    let result, accesses, _ = count_accesses pool disk answer in
    let timing = measure ~quota:0.1 [ ("q", fun () -> ignore (answer ())) ] in
    (strategy, result, accesses, snd (List.hd timing))
  in
  (* Fig 7a: MD-pointer addresses.  P2 = F2 holds whenever both values
     sit anywhere inside the same object's PROJECTS subtable, so the
     "join" yields a candidate superset that must still be scanned. *)
  let run_fig7a () =
    let disk, pool = fresh_env ~frames:64 () in
    let store = OS.create pool in
    let tids = List.map (OS.insert store P.departments) rows in
    let pno_entries =
      List.concat_map (fun r -> OS.index_entries_fig7a store P.departments r [ "PROJECTS"; "PNO" ]) tids
    in
    let fn_entries =
      List.concat_map
        (fun r -> OS.index_entries_fig7a store P.departments r [ "PROJECTS"; "MEMBERS"; "FUNCTION" ])
        tids
    in
    let answer () =
      let ps = List.filter (fun (a, _) -> Atom.equal a (Atom.Int target_pno)) pno_entries in
      let fs = List.filter (fun (a, _) -> Atom.equal a (Atom.Str "Consultant")) fn_entries in
      (* P2 = F2 comparison on the subtable-MD component *)
      let cands =
        List.filter_map
          (fun (_, (p : OS.hier)) ->
            let p2 = List.nth_opt p.OS.path 0 in
            if
              List.exists
                (fun (_, (f : OS.hier)) ->
                  Tid.equal p.OS.root f.OS.root && List.nth_opt f.OS.path 0 = p2)
                fs
            then Some p.OS.root
            else None)
          ps
        |> List.sort_uniq Tid.compare
      in
      (* superset: every candidate object must still be scanned *)
      List.filter
        (fun root -> verify_dept_conjunction target_pno (OS.fetch store P.departments root))
        cands
    in
    let result, accesses, _ = count_accesses pool disk answer in
    let candidates =
      let ps = List.filter (fun (a, _) -> Atom.equal a (Atom.Int target_pno)) pno_entries in
      List.sort_uniq Tid.compare (List.map (fun (_, (p : OS.hier)) -> p.OS.root) ps)
    in
    (result, List.length candidates, accesses)
  in
  let fig7a_result, fig7a_cands, fig7a_acc = run_fig7a () in
  let results = List.map run [ VI.Data_tid; VI.Root_tid; VI.Hierarchical ] in
  Printf.printf
    "Fig 7a (MD-pointer addresses): %d candidate object(s) from P2=F2, %d page accesses to verify, %d real\n"
    fig7a_cands fig7a_acc (List.length fig7a_result);
  print_table ~header:[ "addressing"; "result objects"; "page accesses"; "time" ]
    (List.map
       (fun (s, r, a, t) ->
         [ VI.strategy_name s; string_of_int (List.length r); string_of_int a; ns_to_string t ])
       results);
  let answers = List.map (fun (_, r, _, _) -> List.sort Tid.compare r) results in
  (match answers with
  | [ a; b; c ] -> check "all strategies agree" (List.equal Tid.equal a b && List.equal Tid.equal b c)
  | _ -> ());
  (match results with
  | [ (_, _, data_acc, _); (_, _, root_acc, _); (_, _, hier_acc, _) ] ->
      check "hierarchical <= root-TID page accesses" (hier_acc <= root_acc);
      check "hierarchical << data-TID page accesses" ((hier_acc * 2) < data_acc);
      check "Fig 7a must scan candidates (7b needs none)" (fig7a_acc > hier_acc)
  | _ -> ());
  (match results with
  | [ _; _; (_, hier_result, _, _) ] ->
      check "Fig 7a verification agrees with Fig 7b"
        (List.equal Tid.equal
           (List.sort Tid.compare fig7a_result)
           (List.sort Tid.compare hier_result))
  | _ -> ())

(* ================================================================== *)
(* Fig 8: tuple names                                                 *)
(* ================================================================== *)

let bench_fig8 () =
  section "F8" "Fig 8: tuple names U, V, T, W, X";
  let _, pool = fresh_env () in
  let store = OS.create pool in
  let root = OS.insert store P.departments (List.nth P.departments_rows 0) in
  let names =
    [
      ("U (department 314)", TN.of_object ~table:"DEPARTMENTS" root);
      ("V (project 17)", TN.of_subobject ~table:"DEPARTMENTS" root [ OS.Attr "PROJECTS"; OS.Elem 0 ]);
      ( "T (member 56019)",
        TN.of_subobject ~table:"DEPARTMENTS" root
          [ OS.Attr "PROJECTS"; OS.Elem 0; OS.Attr "MEMBERS"; OS.Elem 1 ] );
      ("W (PROJECTS subtable)", TN.of_subtable ~table:"DEPARTMENTS" root [ OS.Attr "PROJECTS" ]);
      ( "X (MEMBERS of project 17)",
        TN.of_subtable ~table:"DEPARTMENTS" root [ OS.Attr "PROJECTS"; OS.Elem 0; OS.Attr "MEMBERS" ] );
    ]
  in
  print_table ~header:[ "t-name"; "encoding"; "index-address?"; "resolves to" ]
    (List.map
       (fun (label, tn) ->
         let v = TN.resolve store P.departments tn in
         let preview =
           let s = Value.render_v v in
           if String.length s > 48 then String.sub s 0 45 ^ "..." else s
         in
         [ label; TN.to_string tn; string_of_bool (TN.valid_as_index_address tn); preview ])
       names);
  let t = List.assoc "T (member 56019)" names in
  OS.append_element store P.departments root [ OS.Attr "EQUIP" ] [ Value.int_ 9; Value.str "LASER" ];
  OS.relocate store root;
  (match TN.resolve store P.departments t with
  | Value.Table { tuples = [ Value.Atom (Atom.Int 56019) :: _ ]; _ } ->
      check "T stable under update + relocation" true
  | _ -> check "T stable under update + relocation" false);
  let timing = measure ~quota:0.1 [ ("resolve T", fun () -> ignore (TN.resolve store P.departments t)) ] in
  Printf.printf "t-name resolution: %s\n" (ns_to_string (snd (List.hd timing)))

(* ================================================================== *)
(* C1: integrated store vs Lorie linked tuples vs 1NF decomposition   *)
(* ================================================================== *)

let bench_c1 () =
  section "C1" "integrated NF2 store vs 'on-top' (Lorie) vs 1NF joins";
  let n = 40 in
  let rows = G.departments ~params:{ G.default_dept_params with G.departments = n } () in
  let aim_disk, aim_pool = fresh_env ~frames:8 () in
  let aim = OS.create aim_pool in
  let aim_tids = List.map (OS.insert aim P.departments) rows in
  let lorie_disk, lorie_pool = fresh_env ~frames:8 () in
  let lorie = Lorie.create lorie_pool P.departments in
  let lorie_tids = List.map (Lorie.insert lorie) rows in
  let flat_disk, flat_pool = fresh_env ~frames:8 () in
  let flat = Flat.create flat_pool P.departments in
  let flat_sids = List.map (Flat.insert flat) rows in
  let rng = Prng.create 7 in
  let order = Array.to_list (Prng.shuffle rng (Array.init n (fun i -> i))) in
  let whole_aim () = List.iter (fun i -> ignore (OS.fetch aim P.departments (List.nth aim_tids i))) order in
  let whole_lorie () = List.iter (fun i -> ignore (Lorie.fetch lorie (List.nth lorie_tids i))) order in
  let whole_flat () = List.iter (fun i -> ignore (Flat.fetch flat (List.nth flat_sids i))) order in
  let (), aim_acc, aim_phys = count_accesses aim_pool aim_disk whole_aim in
  let (), lorie_acc, lorie_phys = count_accesses lorie_pool lorie_disk whole_lorie in
  let (), flat_acc, flat_phys = count_accesses flat_pool flat_disk whole_flat in
  let timing =
    measure
      [
        ("AIM-II integrated", whole_aim);
        ("Lorie linked tuples", whole_lorie);
        ("1NF decomposition + joins", whole_flat);
      ]
  in
  subsection (Printf.sprintf "fetch all %d complex objects in random order (8-frame pool)" n);
  print_table ~header:[ "system"; "page accesses"; "physical reads"; "time" ]
    (List.map2
       (fun (name, t) (acc, phys) -> [ name; string_of_int acc; string_of_int phys; ns_to_string t ])
       timing
       [ (aim_acc, aim_phys); (lorie_acc, lorie_phys); (flat_acc, flat_phys) ]);
  check "integrated does fewer physical reads than Lorie" (aim_phys < lorie_phys);
  subsection "partial access: member of one project inside one object";
  let pick = List.nth aim_tids (n / 2) in
  let (), aim_pacc, _ =
    count_accesses aim_pool aim_disk (fun () ->
        ignore
          (OS.fetch_path aim P.departments pick
             [ OS.Attr "PROJECTS"; OS.Elem 3; OS.Attr "MEMBERS"; OS.Elem 2 ]))
  in
  let lpick = List.nth lorie_tids (n / 2) in
  let (), lorie_pacc, _ =
    count_accesses lorie_pool lorie_disk (fun () ->
        ignore (Lorie.fetch_element lorie lpick ~attr:"PROJECTS" ~idx:3))
  in
  Printf.printf "AIM-II partial fetch: %d page accesses | Lorie element fetch: %d page accesses\n"
    aim_pacc lorie_pacc;
  check "partial access much cheaper than whole-table work" (aim_pacc < aim_acc / n)

(* ================================================================== *)
(* C2: NF2 tables as materialised joins (Example 4 remark)            *)
(* ================================================================== *)

let bench_c2 () =
  section "C2" "NF2 hierarchy = materialised join (Example 4 at scale)";
  let n = 80 in
  let rows = G.departments ~params:{ G.default_dept_params with G.departments = n } () in
  let db = Db.create () in
  Db.register_table db P.departments rows;
  let dept_rel = Rel.make P.departments.Schema.table { Value.kind = Schema.Set; tuples = rows } in
  let t1 = Ops.project dept_rel [ "DNO"; "MGRNO"; "BUDGET" ] in
  let t2 = Ops.project (Ops.unnest dept_rel ~attr:"PROJECTS") [ "PNO"; "PNAME"; "DNO" ] in
  let t3 =
    Ops.project
      (Ops.unnest (Ops.unnest dept_rel ~attr:"PROJECTS") ~attr:"MEMBERS")
      [ "EMPNO"; "PNO"; "DNO"; "FUNCTION" ]
  in
  Db.register_table db { Schema.name = "DEPARTMENTS_1NF"; table = t1.Rel.schema } (Rel.tuples t1);
  Db.register_table db { Schema.name = "PROJECTS_1NF"; table = t2.Rel.schema } (Rel.tuples t2);
  Db.register_table db { Schema.name = "MEMBERS_1NF"; table = t3.Rel.schema } (Rel.tuples t3);
  let nf2_q =
    "SELECT x.DNO, x.MGRNO, y.PNO, y.PNAME, z.EMPNO, z.FUNCTION FROM x IN DEPARTMENTS, y IN \
     x.PROJECTS, z IN y.MEMBERS"
  in
  let flat_q =
    "SELECT x.DNO, x.MGRNO, y.PNO, y.PNAME, z.EMPNO, z.FUNCTION FROM x IN DEPARTMENTS_1NF, y IN \
     PROJECTS_1NF, z IN MEMBERS_1NF WHERE x.DNO = y.DNO AND y.PNO = z.PNO AND y.DNO = z.DNO"
  in
  let r1 = Db.query db nf2_q and r2 = Db.query db flat_q in
  check "same result" (Rel.equal r1 r2);
  Printf.printf "result cardinality: %d rows\n" (Rel.cardinality r1);
  let timing =
    measure ~quota:0.5
      [
        ("NF2 navigation (materialised join)", fun () -> ignore (Db.query db nf2_q));
        ("flat tables, 3-way join", fun () -> ignore (Db.query db flat_q));
      ]
  in
  print_table ~header:[ "formulation"; "time" ] (List.map (fun (n, t) -> [ n; ns_to_string t ]) timing);
  match timing with
  | [ (_, nf2_t); (_, flat_t) ] -> check "NF2 navigation faster than joining" (nf2_t < flat_t)
  | _ -> ()

(* ================================================================== *)
(* C3: clustering via local address spaces                            *)
(* ================================================================== *)

let bench_c3 () =
  section "C3" "clustering: local address space vs scattered placement";
  let n = 30 in
  let projects_per = 8 and members_per = 10 in
  let rows =
    G.departments
      ~params:{ G.default_dept_params with G.departments = n; projects_per_dept = projects_per; members_per_project = members_per }
      ()
  in
  (* grow all objects breadth-first (project 0 of every object, then
     project 1 of every object, ...) so that without per-object
     clustering the subtuples of different objects interleave on the
     shared pages — the scenario the paper's page lists prevent *)
  let run clustering =
    let disk, pool = fresh_env ~frames:8 () in
    let store = OS.create ~clustering pool in
    let tids =
      List.map
        (fun row ->
          match row with
          | [ dno; mgr; Value.Table _; budget; Value.Table _ ] ->
              OS.insert store P.departments [ dno; mgr; Value.set []; budget; Value.set [] ]
          | _ -> assert false)
        rows
    in
    for k = 0 to projects_per - 1 do
      List.iteri
        (fun i row ->
          match row with
          | [ _; _; Value.Table projects; _; _ ] ->
              OS.append_element store P.departments (List.nth tids i) [ OS.Attr "PROJECTS" ]
                (List.nth projects.Value.tuples k)
          | _ -> assert false)
        rows
    done;
    List.iteri
      (fun i row ->
        match row with
        | [ _; _; _; _; Value.Table equip ] ->
            List.iter
              (fun e -> OS.append_element store P.departments (List.nth tids i) [ OS.Attr "EQUIP" ] e)
              equip.Value.tuples
        | _ -> assert false)
      rows;
    let pages_per_object =
      List.fold_left (fun acc tid -> acc + (OS.md_stats store P.departments tid).OS.pages) 0 tids / n
    in
    (* fetch single objects in random order through the tiny pool:
       effectively cold per object *)
    let rng = Prng.create 11 in
    let order = Array.to_list (Prng.shuffle rng (Array.of_list tids)) in
    let fetch_all () = List.iter (fun tid -> ignore (OS.fetch store P.departments tid)) order in
    let (), acc, phys = count_accesses pool disk fetch_all in
    (pages_per_object, acc, phys)
  in
  let c_pages, c_acc, c_phys = run true in
  let u_pages, u_acc, u_phys = run false in
  print_table ~header:[ "placement"; "pages/object"; "page accesses"; "physical reads" ]
    [
      [ "clustered (page-list first fit)"; string_of_int c_pages; string_of_int c_acc; string_of_int c_phys ];
      [ "unclustered (shared pages)"; string_of_int u_pages; string_of_int u_acc; string_of_int u_phys ];
    ];
  check "clustering keeps objects on fewer pages" (c_pages < u_pages);
  check "clustering reduces physical reads per object" (c_phys < u_phys)

(* ================================================================== *)
(* C4: Mini-TIDs make relocation (check-out) cheap                    *)
(* ================================================================== *)

let bench_c4 () =
  section "C4" "object relocation: page-level move vs pointer rewriting";
  let params =
    { G.default_dept_params with G.departments = 1; projects_per_dept = 10; members_per_project = 20 }
  in
  let tup = List.hd (G.departments ~params ()) in
  let disk, pool = fresh_env ~frames:128 () in
  let store = OS.create pool in
  let tid = OS.insert store P.departments tup in
  let st = OS.md_stats store P.departments tid in
  let (), aim_acc, _ = count_accesses pool disk (fun () -> OS.relocate store tid) in
  (* baseline: a TID-pointer implementation must rewrite every subtuple;
     emulated by copying the object tuple-by-tuple in the Lorie store *)
  let bdisk, bpool = fresh_env ~frames:128 () in
  let lorie = Lorie.create bpool P.departments in
  let ltid = Lorie.insert lorie tup in
  let (), lorie_acc, _ =
    count_accesses bpool bdisk (fun () -> ignore (Lorie.insert lorie (Lorie.fetch lorie ltid)))
  in
  let subtuples = st.OS.md_subtuples + st.OS.data_subtuples in
  print_table ~header:[ "approach"; "object size"; "page accesses" ]
    [
      [ "AIM-II page-list relocation"; Printf.sprintf "%d pages" st.OS.pages; string_of_int aim_acc ];
      [ "pointer rewrite (tuple copy)"; Printf.sprintf "%d subtuples" subtuples; string_of_int lorie_acc ];
    ];
  check "relocation cost scales with pages, not subtuples" (aim_acc < lorie_acc);
  check "object intact after relocation" (Value.equal_tuple tup (OS.fetch store P.departments tid))

(* ================================================================== *)
(* C5: masked text search: fragment index vs scan                     *)
(* ================================================================== *)

let bench_c5 () =
  section "C5" "masked search '*comput*': word-fragment index vs full scan";
  let nreports = 400 in
  let rows = G.reports ~params:{ G.default_report_params with G.reports = nreports } () in
  let disk, pool = fresh_env ~frames:64 () in
  let store = OS.create pool in
  let tids = List.map (OS.insert store P.reports) rows in
  let ti = TI.create store P.reports [ "TITLE" ] in
  let pattern = "*comput*" in
  let by_index () = TI.roots_matching ti pattern in
  let by_scan () =
    let mask = Masked.compile pattern in
    List.filter
      (fun tid ->
        match OS.fetch_path store P.reports tid [ OS.Attr "TITLE" ] with
        | Value.Atom (Atom.Str title) -> Masked.matches_word mask title
        | _ -> false)
      tids
  in
  let idx_result, idx_acc, _ = count_accesses pool disk by_index in
  let scan_result, scan_acc, _ = count_accesses pool disk by_scan in
  check "index agrees with scan"
    (List.equal Tid.equal (List.sort Tid.compare idx_result) (List.sort Tid.compare scan_result));
  let timing =
    measure [ ("fragment index", fun () -> ignore (by_index ())); ("full scan", fun () -> ignore (by_scan ())) ]
  in
  Printf.printf "%d/%d reports match %s\n" (List.length idx_result) nreports pattern;
  print_table ~header:[ "method"; "page accesses"; "time" ]
    (List.map2 (fun (n, t) acc -> [ n; string_of_int acc; ns_to_string t ]) timing [ idx_acc; scan_acc ]);
  check "index touches no data pages" (idx_acc = 0);
  match timing with
  | [ (_, it); (_, st) ] -> check "index faster than scan" (it < st)
  | _ -> ()

(* Median wall time of [f i] over [n] runs, in ns. *)
let median_run_ns n f =
  let times = List.init n (fun i -> snd (time_once (fun () -> f i))) in
  List.nth (List.sort Float.compare times) (n / 2)

(* A versioned table is an ordinary table plus its history, so its
   current-state work costs what its plain twin's does: the same
   indexed UPDATE by key and point read, at two table sizes. *)
let bench_c6_twin () =
  subsection "versioned table vs its plain twin (both indexed on K)";
  let make ~versioned n =
    let db = Db.create () in
    ignore
      (Db.exec db
         (Printf.sprintf "CREATE TABLE T (K INT, N INT, ITEMS TABLE (I INT))%s; CREATE INDEX ON T (K)"
            (if versioned then " WITH VERSIONS" else "")));
    for chunk = 0 to (n / 500) - 1 do
      let rows = List.init 500 (fun i -> Printf.sprintf "(%d, 0, {(1), (2)})" ((chunk * 500) + i)) in
      ignore (Db.exec db ("INSERT INTO T VALUES " ^ String.concat ", " rows))
    done;
    db
  in
  let runs = 101 in
  let rows =
    List.concat_map
      (fun n ->
        let key i = i * 7919 mod n in
        let cost versioned =
          let db = make ~versioned n in
          let update =
            median_run_ns runs (fun i ->
                ignore (Db.exec db (Printf.sprintf "UPDATE T SET N = N + 1 WHERE K = %d" (key i))))
          in
          let read =
            median_run_ns runs (fun i ->
                ignore (Db.query db (Printf.sprintf "SELECT x.N FROM x IN T WHERE x.K = %d" (key i))))
          in
          (update, read, (Db.mvcc_stats db).Nf2_temporal.Mvcc.bytes_live)
        in
        let pu, pr, pb = cost false and vu, vr, vb = cost true in
        check (Printf.sprintf "%d objects: versioned UPDATE by key <= 2x plain" n) (vu <= 2. *. pu);
        check (Printf.sprintf "%d objects: versioned point read <= 2x plain" n) (vr <= 2. *. pr);
        check
          (Printf.sprintf "%d objects: versioned mvcc.bytes_live <= 1.5x plain" n)
          (float_of_int vb <= 1.5 *. float_of_int pb);
        [
          [ string_of_int n; "UPDATE by key"; ns_to_string pu; ns_to_string vu ];
          [ string_of_int n; "point read"; ns_to_string pr; ns_to_string vr ];
          [ string_of_int n; "mvcc.bytes_live"; string_of_int pb; string_of_int vb ];
        ])
      [ 1000; 4000 ]
  in
  print_table ~header:[ "objects"; "operation"; "plain"; "versioned" ] rows

(* A change logs one delta and publishes a patch, whatever the length
   of the object's history: one logged UPDATE of an object with 400
   earlier updates costs what it does after 50. *)
let bench_c6_history_length () =
  subsection "UPDATE cost against history length (WAL on, 100 objects)";
  let db = Db.create ~wal:true () in
  ignore (Db.exec db "CREATE TABLE H (K INT, N INT) WITH VERSIONS; CREATE INDEX ON H (K)");
  ignore
    (Db.exec db
       ("INSERT INTO H VALUES " ^ String.concat ", " (List.init 100 (fun k -> Printf.sprintf "(%d, 0)" k))));
  let ts = ref 0 in
  let update () =
    incr ts;
    ignore (Db.exec db (Printf.sprintf "UPDATE H SET N = N + 1 WHERE K = 0 AT %d" !ts))
  in
  let updates_done = ref 0 in
  let cost_after n =
    while !updates_done < n do
      update ();
      incr updates_done
    done;
    let c = median_run_ns 11 (fun _ -> update ()) in
    updates_done := !updates_done + 11;
    c
  in
  let after50 = cost_after 50 in
  let after400 = cost_after 400 in
  print_table ~header:[ "earlier updates"; "UPDATE" ]
    [ [ "50"; ns_to_string after50 ]; [ "400"; ns_to_string after400 ] ];
  check "UPDATE after 400 updates <= 2x the one after 50" (after400 <= 2. *. after50)

(* ================================================================== *)
(* C6: temporal: reverse deltas vs full copies                        *)
(* ================================================================== *)

let bench_c6 () =
  section "C6" "ASOF support: reverse deltas vs one full copy per version";
  let versions = 100 in
  let tup = List.hd (G.departments ~params:{ G.default_dept_params with G.departments = 1 } ()) in
  let dno, mgr =
    match tup with
    | Value.Atom a :: Value.Atom b :: _ -> (a, b)
    | _ -> assert false
  in
  let ddisk, dpool = fresh_env ~frames:128 () in
  let dstore = OS.create dpool in
  let vs = VS.create dpool in
  let fetch = OS.fetch dstore P.departments in
  (* the engine's order: each change is logged before it happens *)
  let root = OS.insert dstore P.departments tup in
  VS.record vs ~ts:0 root VS.Born;
  let id = Option.get (VS.object_id vs root) in
  for i = 1 to versions do
    let old = VS.atoms_at P.departments.Schema.table (fetch root) [] in
    VS.record vs ~ts:i root (VS.Changed (VS.Atoms ([], old)));
    OS.update_atoms dstore P.departments root [] [ dno; mgr; Atom.Int (100_000 + i) ]
  done;
  let asof ts = VS.object_asof (VS.freeze vs) P.departments ~fetch id ~ts in
  let fdisk, fpool = fresh_env ~frames:128 () in
  let fstore = OS.create fpool in
  let set_budget t b = List.mapi (fun i v -> if i = 3 then Value.Atom (Atom.Int b) else v) t in
  let copies = ref [] in
  for i = 0 to versions do
    copies := (i, OS.insert fstore P.departments (set_budget tup (100_000 + i))) :: !copies
  done;
  let delta_bytes = D.total_bytes ddisk in
  let copy_bytes = D.total_bytes fdisk in
  let timing =
    measure
      [
        ("ASOF oldest (fold all deltas)", fun () -> ignore (asof 0));
        ("ASOF newest (no folding)", fun () -> ignore (asof versions));
        ( "full-copy fetch",
          fun () ->
            let _, tid = List.hd !copies in
            ignore (OS.fetch fstore P.departments tid) );
      ]
  in
  Printf.printf "%d versions of one department (single-atom budget updates)\n" versions;
  print_table ~header:[ "metric"; "reverse deltas"; "full copies" ]
    [
      [ "disk bytes"; string_of_int delta_bytes; string_of_int copy_bytes ];
      [ "raw delta payload bytes"; string_of_int (VS.delta_bytes vs); "-" ];
    ];
  print_table ~header:[ "operation"; "time" ] (List.map (fun (n, t) -> [ n; ns_to_string t ]) timing);
  check "delta store uses (much) less space" (delta_bytes * 3 < copy_bytes);
  (match asof (versions / 2) with
  | Some t -> (
      match List.nth t 3 with
      | Value.Atom (Atom.Int b) -> check "ASOF midpoint budget" (b = 100_000 + (versions / 2))
      | _ -> check "ASOF midpoint budget" false)
  | None -> check "ASOF midpoint budget" false);
  bench_c6_twin ();
  bench_c6_history_length ()

(* ================================================================== *)
(* C7: separation of structure and data                               *)
(* ================================================================== *)

let bench_c7 () =
  section "C7" "navigation on structural information only (MD vs data)";
  let params =
    { G.default_dept_params with G.departments = 1; projects_per_dept = 50; members_per_project = 10 }
  in
  let tup = List.hd (G.departments ~params ()) in
  let _, pool = fresh_env ~frames:256 () in
  let store = OS.create pool in
  let tid = OS.insert store P.departments tup in
  OS.reset_stats store;
  (match OS.fetch_path store P.departments tid [ OS.Attr "PROJECTS"; OS.Elem 42 ] with
  | Value.Table _ -> ()
  | _ -> ());
  let nav_md = (OS.stats store).OS.md_reads and nav_data = (OS.stats store).OS.data_reads in
  OS.reset_stats store;
  ignore (OS.fetch store P.departments tid);
  let whole_md = (OS.stats store).OS.md_reads and whole_data = (OS.stats store).OS.data_reads in
  print_table ~header:[ "operation"; "MD subtuple reads"; "data subtuple reads" ]
    [
      [ "locate element 42 via MD"; string_of_int nav_md; string_of_int nav_data ];
      [ "materialise whole object"; string_of_int whole_md; string_of_int whole_data ];
    ];
  check "navigation reads only the target's data subtuples" (nav_data <= 12);
  check "whole-object fetch reads far more data" (whole_data > nav_data * 20)

(* ================================================================== *)
(* C8: navigational (IMS) vs declarative (NF2) retrieval             *)
(* ================================================================== *)

let bench_c8 () =
  section "C8" "IMS-style navigation (GU/GNP) vs one NF2 query (Section 2)";
  let n = 40 in
  let rows = G.departments ~params:{ G.default_dept_params with G.departments = n } () in
  let target_dno = 100 + (n - 1) in
  (* pick a real project of the last department *)
  let target_pno =
    match List.nth rows (n - 1) with
    | [ _; _; Value.Table projects; _; _ ] -> (
        match List.hd projects.Value.tuples with
        | Value.Atom (Atom.Int p) :: _ -> p
        | _ -> -1)
    | _ -> -1
  in
  let module Ims = Nf2_baseline.Ims in
  let run_ims org =
    let _, pool = fresh_env () in
    let ims = Ims.load ~organisation:org pool P.departments rows in
    let navigate () =
      let c = Ims.open_cursor ims in
      (match
         Ims.get_unique c
           [
             { Ims.seg = "DEPARTMENTS"; tests = [ (0, Atom.Int target_dno) ] };
             { Ims.seg = "PROJECTS"; tests = [ (0, Atom.Int target_pno) ] };
           ]
       with
      | Some _ -> ()
      | None -> failwith "GU failed");
      Ims.set_parent_level c 1;
      let rec loop acc =
        match Ims.get_next_within_parent ~segment:"MEMBERS" c with
        | Some s -> loop (s.Ims.fields :: acc)
        | None -> acc
      in
      (List.length (loop []), Ims.reads c)
    in
    let members, reads = navigate () in
    let timing = measure ~quota:0.1 [ ("n", fun () -> ignore (navigate ())) ] in
    (members, reads, snd (List.hd timing))
  in
  let hsam_members, hsam_reads, hsam_time = run_ims Ims.HSAM in
  let hdam_members, hdam_reads, hdam_time = run_ims Ims.HDAM in
  (* AIM-II: the same retrieval through indexes + partial fetch *)
  let db = Db.create () in
  Db.register_table db P.departments rows;
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (DNO)");
  let q =
    Printf.sprintf
      "SELECT z.EMPNO, z.FUNCTION FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS WHERE \
       x.DNO = %d AND y.PNO = %d"
      target_dno target_pno
  in
  let nf2_members = Rel.cardinality (Db.query db q) in
  let timing = measure ~quota:0.1 [ ("q", fun () -> ignore (Db.query db q)) ] in
  let nf2_time = snd (List.hd timing) in
  print_table ~header:[ "system"; "members found"; "segments/objects read"; "time" ]
    [
      [ "IMS HSAM (GU scans from front)"; string_of_int hsam_members; string_of_int hsam_reads; ns_to_string hsam_time ];
      [ "IMS HDAM (hashed root entry)"; string_of_int hdam_members; string_of_int hdam_reads; ns_to_string hdam_time ];
      [ "AIM-II (indexed NF2 query)"; string_of_int nf2_members; "1 object via index"; ns_to_string nf2_time ];
    ];
  check "all agree" (hsam_members = hdam_members && hdam_members = nf2_members);
  check "HDAM reads far fewer segments than HSAM" (hdam_reads * 10 < hsam_reads)

(* ================================================================== *)
(* C9: the Section 4.1 survey — element access across organisations  *)
(* ================================================================== *)

let bench_c9 () =
  section "C9" "survey: locate one element under every storage organisation";
  let nmembers = 60 in
  let schema =
    Schema.relation "R" [ Schema.int_ "ID"; Schema.set_ "XS" [ Schema.int_ "X"; Schema.str_ "NAME" ] ]
  in
  let tup =
    [ Value.int_ 1; Value.set (List.init nmembers (fun i -> [ Value.int_ i; Value.str (Printf.sprintf "m%03d" i) ])) ]
  in
  let target = nmembers - 1 in
  let module Cod = Nf2_baseline.Codasyl in
  let module Ims = Nf2_baseline.Ims in
  (* AIM-II: MD navigation *)
  let aim_cost =
    let _, pool = fresh_env () in
    let store = OS.create pool in
    let tid = OS.insert store schema tup in
    OS.reset_stats store;
    ignore (OS.fetch_path store schema tid [ OS.Attr "XS"; OS.Elem target ]);
    let s = OS.stats store in
    s.OS.md_reads + s.OS.data_reads
  in
  (* Lorie: sibling chain *)
  let lorie_cost =
    let disk, pool = fresh_env () in
    let t = Lorie.create pool schema in
    let tid = Lorie.insert t tup in
    let (), acc, _ =
      count_accesses pool disk (fun () -> ignore (Lorie.fetch_element t tid ~attr:"XS" ~idx:target))
    in
    acc
  in
  (* CODASYL chain and pointer array *)
  let cod_cost mode =
    let _, pool = fresh_env () in
    let t = Cod.create ~mode pool schema in
    let root = Cod.insert t tup in
    Cod.reset_reads t;
    ignore (Cod.locate_member t root ~attr:"XS" ~idx:target);
    Cod.reads t + 1 (* + the member record itself *)
  in
  (* IMS HDAM: hashed root + sequential GNP *)
  let ims_cost =
    let _, pool = fresh_env () in
    let t = Ims.load ~organisation:Ims.HDAM pool schema [ tup ] in
    let c = Ims.open_cursor t in
    (match Ims.get_unique c [ { Ims.seg = "R"; tests = [ (0, Atom.Int 1) ] } ] with
    | Some _ -> Ims.set_parent_level c 0
    | None -> failwith "GU");
    let rec walk i =
      match Ims.get_next_within_parent ~segment:"XS" c with
      | Some _ when i = target -> ()
      | Some _ -> walk (i + 1)
      | None -> failwith "ran out"
    in
    walk 0;
    Ims.reads c
  in
  print_table ~header:[ "organisation"; "subtuple/record reads to element 59" ]
    [
      [ "AIM-II Mini Directory (SS3)"; string_of_int aim_cost ];
      [ "CODASYL pointer array"; string_of_int (cod_cost Cod.Pointer_array) ];
      [ "CODASYL chain"; string_of_int (cod_cost Cod.Chain) ];
      [ "Lorie sibling chain"; string_of_int lorie_cost ];
      [ "IMS HDAM (GNP walk)"; string_of_int ims_cost ];
    ];
  check "MD beats chains by an order of magnitude" (aim_cost * 10 <= cod_cost Cod.Chain);
  check "pointer array close to MD" (cod_cost Cod.Pointer_array <= aim_cost + 2)

(* ================================================================== *)
(* AB: ablations over storage design parameters                      *)
(* ================================================================== *)

let bench_ablations () =
  section "AB" "ablations: page size and buffer pool size";
  let n = 24 in
  let rows = G.departments ~params:{ G.default_dept_params with G.departments = n } () in
  subsection "page size sweep (whole-object fetches, random order, 8-frame pool)";
  let page_rows =
    List.map
      (fun page_size ->
        let disk, pool = fresh_env ~page_size ~frames:8 () in
        let store = OS.create pool in
        let tids = List.map (OS.insert store P.departments) rows in
        let pages_per_object =
          List.fold_left (fun acc tid -> acc + (OS.md_stats store P.departments tid).OS.pages) 0 tids / n
        in
        let rng = Prng.create 3 in
        let order = Array.to_list (Prng.shuffle rng (Array.of_list tids)) in
        let (), _, phys =
          count_accesses pool disk (fun () ->
              List.iter (fun tid -> ignore (OS.fetch store P.departments tid)) order)
        in
        (page_size, pages_per_object, phys, D.npages disk))
      [ 1024; 4096; 16384 ]
  in
  print_table ~header:[ "page size"; "pages/object"; "physical reads"; "total pages" ]
    (List.map
       (fun (ps, ppo, phys, total) ->
         [ string_of_int ps; string_of_int ppo; string_of_int phys; string_of_int total ])
       page_rows);
  (match page_rows with
  | (_, _, small_phys, _) :: _ ->
      let _, _, big_phys, _ = List.nth page_rows (List.length page_rows - 1) in
      check "bigger pages, fewer reads per object scan" (big_phys <= small_phys)
  | [] -> ());

  subsection "buffer pool sweep (two random passes over all objects)";
  let pool_rows =
    List.map
      (fun frames ->
        let disk, pool = fresh_env ~frames () in
        let store = OS.create pool in
        let tids = List.map (OS.insert store P.departments) rows in
        let rng = Prng.create 5 in
        let order = Array.to_list (Prng.shuffle rng (Array.of_list tids)) in
        let pass () = List.iter (fun tid -> ignore (OS.fetch store P.departments tid)) order in
        pass ();
        (* warm-up *)
        let (), _, phys = count_accesses pool disk (fun () -> pass (); pass ()) in
        let st = BP.stats pool in
        (frames, phys, st.BP.hits, st.BP.misses))
      [ 2; 8; 32; 128 ]
  in
  print_table ~header:[ "frames"; "physical reads"; "hits"; "misses" ]
    (List.map
       (fun (f, phys, h, m) -> [ string_of_int f; string_of_int phys; string_of_int h; string_of_int m ])
       pool_rows);
  (match pool_rows, List.rev pool_rows with
  | (_, small_pool_phys, _, _) :: _, (_, big_pool_phys, _, _) :: _ ->
      check "bigger pool absorbs re-reads" (big_pool_phys < small_pool_phys);
      check "working set fits in 128 frames" (big_pool_phys = 0)
  | _ -> ());

  subsection "index build and maintenance cost per addressing strategy";
  let m = 40 in
  let mrows = G.departments ~params:{ G.default_dept_params with G.departments = m } () in
  let extra = G.departments ~params:{ G.default_dept_params with G.departments = 5; G.seed = 123 } () in
  let idx_rows =
    List.map
      (fun strategy ->
        let _, pool = fresh_env ~frames:256 () in
        let store = OS.create pool in
        ignore (List.map (OS.insert store P.departments) mrows);
        let (), build_ns =
          time_once (fun () ->
              ignore (VI.create store P.departments strategy [ "PROJECTS"; "MEMBERS"; "FUNCTION" ]))
        in
        let idx = VI.create store P.departments strategy [ "PROJECTS"; "MEMBERS"; "FUNCTION" ] in
        let (), maint_ns =
          time_once (fun () ->
              List.iter
                (fun row ->
                  let root = OS.insert store P.departments row in
                  VI.insert_object idx root;
                  VI.remove_object idx root;
                  OS.delete store P.departments root)
                extra)
        in
        [ VI.strategy_name strategy; ns_to_string build_ns; ns_to_string (maint_ns /. float_of_int (List.length extra)) ])
      [ VI.Data_tid; VI.Root_tid; VI.Hierarchical ]
  in
  print_table ~header:[ "strategy"; "build (40 objects)"; "insert+remove maintenance/object" ] idx_rows

(* ================================================================== *)

(* ================================================================== *)
(* WL: write-ahead logging — overhead and crash recovery              *)
(* ================================================================== *)

(* The point-oltp table: ORDERS-shape objects (OID, CUST, STATUS and
   three LINES), [insert_orders] adding the same [rows] rows on every
   call, in 5,000-row INSERTs. *)
let orders_ddl = "CREATE TABLE ORDERS (OID INT, CUST TEXT, STATUS TEXT, LINES TABLE (SKU INT, QTY INT))"

let insert_orders db rows =
  let rng = Prng.create 22 in
  let statuses = [| "open"; "paid"; "shipped" |] in
  let row k =
    let line () = Printf.sprintf "(%d, %d)" (Prng.in_range rng 1 99999) (Prng.in_range rng 1 50) in
    Printf.sprintf "(%d, 'C%s', '%s', {%s, %s, %s})" k (Prng.word rng 7) (Prng.pick rng statuses)
      (line ()) (line ()) (line ())
  in
  let batch = 5000 in
  let rec go first =
    if first <= rows then begin
      let n = min batch (rows - first + 1) in
      ignore
        (Db.exec db ("INSERT INTO ORDERS VALUES " ^ String.concat ", " (List.init n (fun i -> row (first + i)))));
      go (first + n)
    end
  in
  go 1

(* The logged bulk load: [rows] ORDERS rows with the WAL on.  Prints
   "<wall s> <log bytes> <log records> <VmHWM kB>" on one line; run as
   [main.exe --bulk-load N] in a process of its own, so that VmHWM is
   this load's peak and no other section's. *)
let bulk_load rows =
  let db = Db.create ~wal:true () in
  ignore (Db.exec db orders_ddl);
  let w = Option.get (Db.wal db) in
  let bytes0 = (Wal.stats w).Wal.bytes and records0 = (Wal.stats w).Wal.records in
  let (), ns = time_once (fun () -> insert_orders db rows) in
  let count = Db.query db "SELECT x.OID FROM x IN ORDERS" in
  if List.length (Rel.tuples count) <> rows then failwith "bulk load: row count";
  let hwm_kb =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
    |> Option.value ~default:0
  in
  Printf.printf "%.3f %d %d %d\n" (ns /. 1e9) ((Wal.stats w).Wal.bytes - bytes0)
    ((Wal.stats w).Wal.records - records0) hwm_kb

(* What commits cost at [rows] ORDERS rows indexed on OID, with the
   WAL on: the median of 51 runs each of an empty BEGIN+COMMIT, an
   autocommit one-row UPDATE (the same 50 rows at every size, CUST
   rewritten at its own length) and an empty BEGIN+ROLLBACK, plus the
   log bytes of all 51 UPDATEs.  Prints "<commit ns> <update ns>
   <rollback ns> <update log bytes>" on one line; run as
   [main.exe --commit-cost N] in a process of its own. *)
let commit_cost_runs = 51

let commit_cost rows =
  let db = Db.create ~wal:true () in
  ignore (Db.exec db orders_ddl);
  insert_orders db rows;
  ignore (Db.exec db "CREATE INDEX ON ORDERS (OID)");
  let runs = commit_cost_runs in
  let empty_commit =
    median_run_ns runs (fun _ ->
        Db.begin_txn db;
        Db.commit db)
  in
  let w = Option.get (Db.wal db) in
  let bytes0 = (Wal.stats w).Wal.bytes in
  let update =
    median_run_ns runs (fun i ->
        ignore (Db.exec db (Printf.sprintf "UPDATE ORDERS SET CUST = 'U%07d' WHERE OID = %d" i (1 + (i mod 50)))))
  in
  let update_bytes = (Wal.stats w).Wal.bytes - bytes0 in
  let rollback =
    median_run_ns runs (fun _ ->
        Db.begin_txn db;
        Db.rollback db)
  in
  Printf.printf "%.0f %.0f %.0f %d\n" empty_commit update rollback update_bytes

(* Run this executable as [main.exe flag n] in a child process and
   [scan] the one line it prints. *)
let child_line flag n scan =
  let ic =
    Unix.open_process_args_in Sys.executable_name [| Sys.executable_name; flag; string_of_int n |]
  in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some l -> Some (scan l)
  | _ -> None

let bulk_load_child rows =
  child_line "--bulk-load" rows (fun l -> Scanf.sscanf l "%f %d %d %d" (fun s b r h -> (s, b, r, h)))

let commit_cost_child rows =
  child_line "--commit-cost" rows (fun l -> Scanf.sscanf l "%f %f %f %d" (fun c u r b -> (c, u, r, b)))

let bench_wal () =
  section "WL" "write-ahead logging: overhead and crash recovery";
  let scripts =
    "CREATE TABLE R (K INT, V INT, XS TABLE (X INT))"
    :: List.concat_map
         (fun i ->
           [
             Printf.sprintf "INSERT INTO R VALUES (%d, %d, {(%d), (%d)})" i (i * 7) i (i + 100);
             Printf.sprintf "UPDATE R SET V = V + 1 WHERE K = %d" (i / 2);
           ])
         (List.init 40 Fun.id)
  in
  let run db = List.iter (fun s -> ignore (Db.exec db s)) scripts in
  let make ~wal = Db.create ~page_size:1024 ~frames:16 ~wal () in
  subsection "logging overhead (81-txn insert/update workload)";
  let plain, logged, o = wal_overhead ~make ~run in
  print_table
    ~header:[ "mode"; "wall time"; "data pages written"; "log records"; "log bytes"; "fsyncs" ]
    [
      [ "plain"; ns_to_string o.plain_ns; string_of_int o.plain_writes; "-"; "-"; "-" ];
      [
        "wal";
        ns_to_string o.wal_ns;
        string_of_int o.wal_writes;
        string_of_int o.records;
        string_of_int o.log_bytes;
        Printf.sprintf "%d (%d forced)" o.flushes o.forced_flushes;
      ];
    ];
  check "logged and plain databases end in the same state"
    (Rel.equal (Db.query plain "SELECT * FROM R") (Db.query logged "SELECT * FROM R"));
  check "every transaction produced log records" (o.records > List.length scripts);
  check "commit durability: one fsync per transaction" (o.flushes >= List.length scripts);
  subsection "crash at a mid-workload page write, then recovery";
  let module FD = Nf2_storage.Faulty_disk in
  let module Recovery = Nf2_storage.Recovery in
  let db = make ~wal:true in
  let fd = FD.arm ~wal:(Option.get (Db.wal db)) (Db.disk db) (FD.Crash_at_write 5) in
  let crashed = (try run db; ignore (Db.wal_checkpoint db); false with D.Crash _ -> true) in
  FD.disarm fd;
  check "the fault plan fired" crashed;
  let img = Db.crash_image db in
  let committed =
    List.length
      (List.filter
         (fun (_, r) -> match r with Wal.Commit _ -> true | _ -> false)
         (Wal.records_of_string img.Recovery.wal))
  in
  let recovered, recovery_ns = time_once (fun () -> Db.recover_from_image img) in
  let oracle = make ~wal:false in
  List.iteri (fun i s -> if i < committed then ignore (Db.exec oracle s)) scripts;
  print_table
    ~header:[ "committed txns"; "durable log bytes"; "recovery time" ]
    [
      [ string_of_int committed; string_of_int (String.length img.Recovery.wal);
        ns_to_string recovery_ns ];
    ];
  check "recovery restores exactly the committed prefix"
    (Db.table_names recovered = Db.table_names oracle
    && (Db.table_names recovered = []
       || Rel.equal (Db.query recovered "SELECT * FROM R") (Db.query oracle "SELECT * FROM R")));
  subsection "commit cost by table size (ORDERS indexed on OID, WAL on; medians of 51 runs)";
  (* a commit logs the catalog only when it changed, so neither it nor
     BEGIN's rollback snapshot costs O(table); times are printed, not
     gated, since they swing with the host's load *)
  let costs = List.map (fun rows -> (rows, commit_cost_child rows)) [ 1_000; 10_000; 40_000 ] in
  print_table
    ~header:
      [ "rows"; "empty BEGIN+COMMIT"; "one-row UPDATE"; "empty BEGIN+ROLLBACK"; "UPDATE log bytes/commit" ]
    (List.map
       (fun (rows, r) ->
         match r with
         | None -> [ string_of_int rows; "failed"; "-"; "-"; "-" ]
         | Some (c, u, r, b) ->
             [
               string_of_int rows;
               ns_to_string c;
               ns_to_string u;
               ns_to_string r;
               Printf.sprintf "%.1f" (float_of_int b /. float_of_int commit_cost_runs);
             ])
       costs);
  check "every commit-cost run completed" (List.for_all (fun (_, r) -> r <> None) costs);
  (match List.filter_map snd costs with
  | (_, _, _, b) :: rest ->
      check "a one-row UPDATE logs the same bytes at 1k, 10k and 40k rows, < 512 B per commit"
        (List.for_all (fun (_, _, _, b') -> b' = b) rest && b < 512 * commit_cost_runs)
  | [] -> ());
  subsection "logged bulk load (ORDERS-shape rows, 5,000-row INSERTs, WAL on)";
  let loads = List.map (fun rows -> (rows, bulk_load_child rows)) [ 1_000; 10_000; 100_000 ] in
  print_table
    ~header:[ "rows"; "wall time"; "log bytes/row"; "log records/row"; "peak RSS (VmHWM)" ]
    (List.map
       (fun (rows, r) ->
         match r with
         | None -> [ string_of_int rows; "failed"; "-"; "-"; "-" ]
         | Some (secs, bytes, records, hwm_kb) ->
             let per x = Printf.sprintf "%.1f" (float_of_int x /. float_of_int rows) in
             [
               string_of_int rows;
               ns_to_string (secs *. 1e9);
               per bytes;
               per records;
               Printf.sprintf "%d MiB" (hwm_kb / 1024);
             ])
       loads);
  check "every bulk load completed" (List.for_all (fun (_, r) -> r <> None) loads);
  check "the log carries the rows, not whole pages: <= 640 log bytes per row"
    (List.for_all
       (fun (rows, r) ->
         match r with Some (_, bytes, _, _) -> bytes <= 640 * rows | None -> false)
       loads);
  check "the 100k-row load peaks under 1,536 MiB"
    (match List.assoc 100_000 loads with Some (_, _, _, hwm_kb) -> hwm_kb < 1536 * 1024 | None -> false)

(* ================================================================== *)
(* SRV: concurrent server — throughput and group commit               *)
(* ================================================================== *)

module Server = Nf2_server.Server
module SClient = Nf2_server.Client
module Proto = Nf2_server.Protocol

type server_trial = {
  clients : int;
  group : bool;
  txns : int;
  seconds : float;
  qps : float;
  fsyncs_per_txn : float;
  avg_batch : float;
}

(* [clients] sessions each commit [per_client] autocommit updates
   against their own table (so predicate locks don't serialize them and
   commits can actually overlap), then we read fsyncs and batch sizes
   off the WAL stats delta. *)
let server_trial ~clients ~per_client ~group () : server_trial =
  let db = Db.create ~wal:true () in
  let config =
    {
      Server.default_config with
      Server.port = 0;
      max_sessions = clients + 2;
      lock_timeout = 30.;
      idle_timeout = 0.;
      group_commit = group;
      group_window = 0.001;
    }
  in
  let srv = Server.start ~db config in
  let wal = Option.get (Db.wal db) in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let setup = SClient.connect ~host:"127.0.0.1" ~port:(Server.port srv) in
  for k = 0 to clients - 1 do
    (match
       SClient.request setup
         (Proto.Query (Printf.sprintf "CREATE TABLE C%d (K INT, N INT); INSERT INTO C%d VALUES (%d, 0)" k k k))
     with
    | Some (Proto.Row_count _) -> ()
    | _ -> failwith "server bench setup failed")
  done;
  SClient.close setup;
  let s0 = Wal.stats wal in
  let flushes0 = s0.Wal.flushes and batches0 = s0.Wal.group_commit_batches in
  let batched0 = s0.Wal.group_commit_txns in
  let committed = Atomic.make 0 in
  let worker k () =
    let c = SClient.connect ~host:"127.0.0.1" ~port:(Server.port srv) in
    let sql = Printf.sprintf "UPDATE C%d SET N = N + 1 WHERE K = %d" k k in
    for _ = 1 to per_client do
      match SClient.request c (Proto.Query sql) with
      | Some (Proto.Row_count _) -> Atomic.incr committed
      | _ -> ()
    done;
    SClient.close c
  in
  let (), ns =
    time_once (fun () ->
        let threads = List.init clients (fun k -> Thread.create (worker k) ()) in
        List.iter Thread.join threads)
  in
  let s1 = Wal.stats wal in
  let txns = Atomic.get committed in
  let fsyncs = s1.Wal.flushes - flushes0 in
  let batches = s1.Wal.group_commit_batches - batches0 in
  let batched = s1.Wal.group_commit_txns - batched0 in
  let seconds = ns /. 1e9 in
  {
    clients;
    group;
    txns;
    seconds;
    qps = float_of_int txns /. seconds;
    fsyncs_per_txn = (if txns = 0 then nan else float_of_int fsyncs /. float_of_int txns);
    avg_batch = (if batches = 0 then nan else float_of_int batched /. float_of_int batches);
  }

(* Read-only query throughput over one session, with and without
   per-statement tracing.  [slow_query = Some 1e9] makes every
   statement run under a full trace (storage + lock attribution) while
   logging none of them, so the delta against [None] is the tracing
   machinery's cost on the server path. *)
let tracing_trial ~slow_query ~queries () : float =
  let db = Db.create ~wal:true () in
  let config =
    {
      Server.default_config with
      Server.port = 0;
      idle_timeout = 0.;
      lock_timeout = 30.;
      slow_query;
    }
  in
  let srv = Server.start ~db config in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let c = SClient.connect ~host:"127.0.0.1" ~port:(Server.port srv) in
  (match SClient.request c (Proto.Query "CREATE TABLE T (K INT, N INT)") with
  | Some (Proto.Row_count _) -> ()
  | _ -> failwith "tracing bench setup failed");
  for k = 1 to 64 do
    ignore
      (SClient.request c
         (Proto.Query (Printf.sprintf "INSERT INTO T VALUES (%d, %d)" k (k * 7 mod 100))))
  done;
  let sql = "SELECT x.K FROM x IN T WHERE x.N > 50" in
  for _ = 1 to 20 do
    ignore (SClient.request c (Proto.Query sql))
  done;
  let (), ns =
    time_once (fun () ->
        for _ = 1 to queries do
          match SClient.request c (Proto.Query sql) with
          | Some (Proto.Result_table _) -> ()
          | _ -> failwith "tracing bench query failed"
        done)
  in
  SClient.close c;
  float_of_int queries /. (ns /. 1e9)

let bench_server () =
  section "SRV" "concurrent server: session throughput and group commit";
  let per_client = 40 in
  let trials =
    List.concat_map
      (fun clients ->
        List.map (fun group -> server_trial ~clients ~per_client ~group ()) [ true; false ])
      [ 1; 4; 16 ]
  in
  subsection
    (Printf.sprintf "autocommit update txns over TCP (%d per client, 1ms group window)" per_client);
  print_table
    ~header:[ "clients"; "group commit"; "txns"; "txn/s"; "fsyncs/txn"; "avg batch" ]
    (List.map
       (fun t ->
         [
           string_of_int t.clients;
           (if t.group then "on" else "off");
           string_of_int t.txns;
           Printf.sprintf "%.0f" t.qps;
           Printf.sprintf "%.3f" t.fsyncs_per_txn;
           (if Float.is_nan t.avg_batch then "-" else Printf.sprintf "%.2f" t.avg_batch);
         ])
       trials);
  let find clients group = List.find (fun t -> t.clients = clients && t.group = group) trials in
  List.iter
    (fun t ->
      check
        (Printf.sprintf "all %d txns committed (%d clients, group %b)" (t.clients * per_client)
           t.clients t.group)
        (t.txns = t.clients * per_client))
    trials;
  check "without group commit every txn pays a full fsync"
    ((find 16 false).fsyncs_per_txn >= 1.0);
  check "16 concurrent clients share fsyncs under group commit: fsyncs/txn < 1"
    ((find 16 true).fsyncs_per_txn < 1.0);
  check "group commit batches grow with concurrency"
    ((find 16 true).avg_batch > (find 1 true).avg_batch || (find 16 true).avg_batch > 1.5);
  (* a lone committer must not pay a gathering pause: with the window
     skipped (no other committer pending) and the async appender
     fsyncing an idle queue immediately, 1-client group commit holds
     the immediate-sync rate *)
  check "single-client group commit within 20% of immediate sync"
    ((find 1 true).qps >= 0.8 *. (find 1 false).qps);
  subsection "per-statement tracing overhead (1 client, read-only queries)";
  let queries = 400 in
  let qps_off = tracing_trial ~slow_query:None ~queries () in
  let qps_on = tracing_trial ~slow_query:(Some 1e9) ~queries () in
  let overhead_pct = (qps_off -. qps_on) /. qps_off *. 100. in
  print_table
    ~header:[ "tracing"; "queries/s"; "overhead" ]
    [
      [ "off"; Printf.sprintf "%.0f" qps_off; "-" ];
      [ "on"; Printf.sprintf "%.0f" qps_on; Printf.sprintf "%+.1f%%" overhead_pct ];
    ];
  (* loose bound: single-trial qps on a shared box is noisy; the point
     is catching a tracing path gone quadratic, not a 2% regression *)
  check "per-statement tracing does not halve throughput" (overhead_pct < 50.);
  (* machine-readable results for tracking across runs *)
  append_results ~fresh:true
    (List.map
       (fun t ->
         Printf.sprintf
           "\"clients\": %d, \"group_commit\": %b, \"txns\": %d, \"seconds\": %.4f, \
            \"qps\": %.1f, \"fsyncs_per_txn\": %.4f, \"avg_batch\": %s"
           t.clients t.group t.txns t.seconds t.qps t.fsyncs_per_txn
           (if Float.is_nan t.avg_batch then "null" else Printf.sprintf "%.2f" t.avg_batch))
       trials
    @ [
        Printf.sprintf
          "\"section\": \"tracing_overhead\", \"queries\": %d, \"qps_off\": %.1f, \
           \"qps_on\": %.1f, \"overhead_pct\": %.2f"
          queries qps_off qps_on overhead_pct;
      ])

(* ================================================================== *)
(* REPL: log shipping — primary throughput vs replica count, lag      *)
(* ================================================================== *)

module Repl = Nf2_repl.Repl

type repl_trial = {
  replicas : int;
  r_txns : int;
  r_seconds : float;
  r_qps : float;
  max_lag : int; (* worst (durable - applied) record lag sampled mid-run *)
  catch_up_s : float; (* last commit -> every replica at the durable LSN *)
}

(* One writer commits [txns] autocommit updates against a primary
   shipping to [replicas] attached replicas; a sampler thread records
   the worst replication lag seen mid-run, and the clock keeps running
   until every replica has applied the final durable LSN. *)
let repl_trial ~replicas:n ~txns () : repl_trial =
  let db = Db.create ~wal:true () in
  let config =
    {
      Server.default_config with
      Server.port = 0;
      max_sessions = 8;
      lock_timeout = 30.;
      idle_timeout = 0.;
      group_window = 0.001;
    }
  in
  let srv = Server.start ~db config in
  ignore (Repl.attach srv);
  let wal = Option.get (Db.wal db) in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let reps =
    List.init n (fun _ ->
        let r = Repl.Replica.create () in
        Repl.Replica.start r ~host:"127.0.0.1" ~port:(Server.port srv);
        r)
  in
  Fun.protect ~finally:(fun () -> List.iter Repl.Replica.stop reps) @@ fun () ->
  let c = SClient.connect ~host:"127.0.0.1" ~port:(Server.port srv) in
  (match
     SClient.request c (Proto.Query "CREATE TABLE R (K INT, N INT); INSERT INTO R VALUES (1, 0)")
   with
  | Some (Proto.Row_count _) -> ()
  | _ -> failwith "repl bench setup failed");
  let worst = ref 0 in
  let running = Atomic.make true in
  let sampler =
    Thread.create
      (fun () ->
        while Atomic.get running do
          let durable = Wal.durable_lsn wal in
          List.iter
            (fun r -> worst := max !worst (durable - Repl.Replica.applied_lsn r))
            reps;
          Thread.delay 0.002
        done)
      ()
  in
  let committed = ref 0 in
  let (), ns =
    time_once (fun () ->
        for _ = 1 to txns do
          match SClient.request c (Proto.Query "UPDATE R SET N = N + 1 WHERE K = 1") with
          | Some (Proto.Row_count _) -> incr committed
          | _ -> ()
        done)
  in
  Atomic.set running false;
  Thread.join sampler;
  let target = Wal.durable_lsn wal in
  let (), cu_ns =
    time_once (fun () ->
        List.iter (fun r -> ignore (Repl.Replica.wait_applied ~timeout:30. r target)) reps)
  in
  SClient.close c;
  let seconds = ns /. 1e9 in
  {
    replicas = n;
    r_txns = !committed;
    r_seconds = seconds;
    r_qps = float_of_int !committed /. seconds;
    max_lag = !worst;
    catch_up_s = cu_ns /. 1e9;
  }

let bench_repl () =
  section "REPL" "log shipping: primary write throughput vs replica count, lag";
  let txns = 150 in
  let trials = List.map (fun n -> repl_trial ~replicas:n ~txns ()) [ 0; 1; 2 ] in
  subsection
    (Printf.sprintf "autocommit update txns on the primary (%d txns, ack-per-batch shipping)" txns);
  print_table
    ~header:[ "replicas"; "txns"; "txn/s"; "max lag (records)"; "catch-up" ]
    (List.map
       (fun t ->
         [
           string_of_int t.replicas;
           string_of_int t.r_txns;
           Printf.sprintf "%.0f" t.r_qps;
           string_of_int t.max_lag;
           Printf.sprintf "%.1f ms" (t.catch_up_s *. 1e3);
         ])
       trials);
  List.iter
    (fun t ->
      check
        (Printf.sprintf "all %d txns committed with %d replica(s)" txns t.replicas)
        (t.r_txns = txns))
    trials;
  check "every replica finished the run caught up"
    (List.for_all (fun t -> t.catch_up_s < 30.) trials);
  (* append machine-readable entries to the server results file (the
     SRV section rewrites it at the start of a full run) *)
  append_results
    (List.map
       (fun t ->
         Printf.sprintf
           "\"section\": \"repl\", \"replicas\": %d, \"txns\": %d, \"seconds\": %.4f, \
            \"qps\": %.1f, \"max_lag_records\": %d, \"catch_up_seconds\": %.4f"
           t.replicas t.r_txns t.r_seconds t.r_qps t.max_lag t.catch_up_s)
       trials)

(* ================================================================== *)
(* RDS: parallel reads — throughput scaling with client count          *)
(* ================================================================== *)

type read_trial = {
  rd_clients : int;
  write_pct : int; (* 0 = pure reads, 5 = 95:5 read:write *)
  ops : int;
  rd_seconds : float;
  rd_qps : float;
}

(* [clients] sessions hammer the same NF² table with subtable-joining
   reads (plus, for the mixed trial, one update per 100/write_pct
   statements) — the workload the MVCC snapshot read path and
   worker-domain executor exist for.  All sessions read the SAME table;
   reads pin lock-free snapshots, so neither predicate locks nor the
   engine latch serialize them against the writers. *)
let read_trial ~clients ~write_pct ~per_client () : read_trial =
  let db = Db.create ~wal:true () in
  let config =
    {
      Server.default_config with
      Server.port = 0;
      max_sessions = clients + 2;
      lock_timeout = 30.;
      idle_timeout = 0.;
      group_window = 0.001;
    }
  in
  let srv = Server.start ~db config in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let setup = SClient.connect ~host:"127.0.0.1" ~port:(Server.port srv) in
  (match
     SClient.request setup (Proto.Query "CREATE TABLE D (K INT, N INT, XS TABLE (X INT))")
   with
  | Some (Proto.Row_count _) -> ()
  | _ -> failwith "read bench setup failed");
  for k = 1 to 64 do
    ignore
      (SClient.request setup
         (Proto.Query
            (Printf.sprintf "INSERT INTO D VALUES (%d, %d, {(%d), (%d), (%d)})" k (k * 7 mod 100)
               k (k + 100) (k + 200))))
  done;
  SClient.close setup;
  let read_sql = "SELECT x.K, y.X FROM x IN D, y IN x.XS WHERE x.N > 50" in
  let done_ops = Atomic.make 0 and errors = Atomic.make 0 in
  let worker k () =
    let c = SClient.connect ~host:"127.0.0.1" ~port:(Server.port srv) in
    for i = 1 to per_client do
      let sql =
        if write_pct > 0 && i mod (100 / write_pct) = 0 then
          Printf.sprintf "UPDATE D SET N = N + 1 WHERE K = %d" ((((k * 37) + i) mod 64) + 1)
        else read_sql
      in
      match SClient.request c (Proto.Query sql) with
      | Some (Proto.Result_table _ | Proto.Row_count _) -> Atomic.incr done_ops
      | _ -> Atomic.incr errors
    done;
    SClient.close c
  in
  let (), ns =
    time_once (fun () ->
        let threads = List.init clients (fun k -> Thread.create (worker k) ()) in
        List.iter Thread.join threads)
  in
  if Atomic.get errors > 0 then
    Printf.printf "  (%d statement(s) failed at %d clients)\n" (Atomic.get errors) clients;
  let seconds = ns /. 1e9 in
  {
    rd_clients = clients;
    write_pct;
    ops = Atomic.get done_ops;
    rd_seconds = seconds;
    rd_qps = float_of_int (Atomic.get done_ops) /. seconds;
  }

let bench_read_scaling () =
  section "RDS" "parallel reads: snapshot-read throughput vs client count";
  let cores = Domain.recommended_domain_count () in
  let domains = Server.effective_domains Server.default_config in
  let per_client = 100 in
  let client_counts = [ 1; 2; 4; 8 ] in
  let trials =
    List.concat_map
      (fun write_pct ->
        List.map (fun clients -> read_trial ~clients ~write_pct ~per_client ()) client_counts)
      [ 0; 5 ]
  in
  subsection
    (Printf.sprintf
       "NF² subtable reads on one shared table (%d ops/client, %d core(s), %d read domain(s))"
       per_client cores domains);
  print_table
    ~header:[ "clients"; "read:write"; "ops"; "ops/s" ]
    (List.map
       (fun t ->
         [
           string_of_int t.rd_clients;
           (if t.write_pct = 0 then "100:0" else Printf.sprintf "%d:%d" (100 - t.write_pct) t.write_pct);
           string_of_int t.ops;
           Printf.sprintf "%.0f" t.rd_qps;
         ])
       trials);
  List.iter
    (fun t ->
      check
        (Printf.sprintf "all ops completed (%d clients, %d%% writes)" t.rd_clients t.write_pct)
        (t.ops = t.rd_clients * per_client))
    trials;
  let find clients write_pct =
    List.find (fun t -> t.rd_clients = clients && t.write_pct = write_pct) trials
  in
  let qps1 = (find 1 0).rd_qps and qps8 = (find 8 0).rd_qps in
  let efficiency = qps8 /. qps1 in
  Printf.printf "read-only scaling efficiency: qps@8 / qps@1 = %.2f (%d core(s))\n" efficiency cores;
  (* parallel speedup needs cores to run on; on a small host the honest
     claim is only that 8 concurrent readers do not collapse the
     single-client rate (they share the engine latch, never queue
     behind a writer) *)
  if cores >= 4 then
    check "8 read-only clients reach >= 3x single-client qps" (efficiency >= 3.0)
  else
    check "8 read-only clients sustain the single-client rate" (efficiency >= 0.6);
  (* MVCC snapshot reads never queue behind the writers, so the mixed
     workload must stay within 15% of the read-only floor — not merely
     avoid collapse as under the old shared-lock read path *)
  check "95:5 qps@8 within 15% of the read-only floor"
    ((find 8 5).rd_qps >= 0.85 *. qps8);
  (* append machine-readable entries (see bench_repl for the format;
     the shared provenance stamp already carries the core count) *)
  append_results
    (List.map
       (fun t ->
         Printf.sprintf
           "\"section\": \"read_scaling\", \"clients\": %d, \"write_pct\": %d, \"ops\": %d, \
            \"seconds\": %.4f, \"qps\": %.1f, \"domains\": %d"
           t.rd_clients t.write_pct t.ops t.rd_seconds t.rd_qps domains)
       trials
    @ [
        Printf.sprintf
          "\"section\": \"read_scaling_efficiency\", \"qps_1\": %.1f, \"qps_8\": %.1f, \
           \"efficiency\": %.3f, \"domains\": %d"
          qps1 qps8 efficiency domains;
      ])

(* ================================================================== *)
(* QP: cost-based planner — index-backed vs forced sequential reads    *)
(* ================================================================== *)

(* The executor on the server's read path: the nested-report query
   shapes (unnest, nest, quantifiers, nested-to-flat join) through
   [Db.exec_read] on a snapshot of 400 departments, against a
   hand-written walk over the same [Mvcc.fetch]ed objects.  Times are
   printed; the gates are deterministic: every answer equals the
   walk's, and the unnest checks its DNO band at range x only.  A second
   table times each answer's result path: rendering its cells plus
   encoding the Result_table payload, against the reference renderer and
   encoder (test/ref_render), and decoding it; the only gate there is
   that both produce the same bytes. *)
let bench_qp_executor () =
  subsection "executor: nested-report shapes on a snapshot vs a hand-written walk (51-run medians)";
  let module Mvcc = Nf2_temporal.Mvcc in
  let depts = G.departments ~params:{ G.default_dept_params with G.departments = 400; seed = 1 } () in
  let db = Db.create ~frames:1024 () in
  Db.register_table db P.departments depts;
  Db.register_table db P.employees_1nf (G.employees_for ~seed:1 depts);
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (DNO); CREATE INDEX ON EMPLOYEES_1NF (EMPNO)");
  let snap = Db.snapshot db in
  let version name = match Mvcc.resolve snap name with Some v -> v | None -> failwith name in
  let d = version "DEPARTMENTS" and e = version "EMPLOYEES_1NF" in
  let index (v : Mvcc.version) path = List.assoc path v.Mvcc.v_indexes in
  let band lo hi = List.map (Mvcc.fetch d) (VI.roots_in_range (index d [ "DNO" ]) ~lo:(Atom.Int lo) ~hi:(Atom.Int (hi - 1)) ()) in
  let sub v = match v with Value.Table t -> t.Value.tuples | Value.Atom _ -> [] in
  let str v = match v with Value.Atom (Atom.Str s) -> s | _ -> "" in
  let walk_unnest lo hi () =
    List.concat_map
      (function
        | [ dno; mgr; projects; _; _ ] ->
            List.concat_map
              (function
                | [ pno; pname; members ] ->
                    List.map (function [ empno; f ] -> [ dno; mgr; pno; pname; empno; f ] | _ -> []) (sub members)
                | _ -> [])
              (sub projects)
        | _ -> [])
      (band lo hi)
  in
  (* the nest re-assembles exactly the stored objects *)
  let walk_nest lo hi () = band lo hi in
  let walk_quant lo hi () =
    List.filter_map
      (function
        | [ dno; mgr; projects; budget; equip ] ->
            let pc_at = List.exists (function [ _; ty ] -> str ty = "PC/AT" | _ -> false) (sub equip) in
            let led =
              List.for_all
                (function
                  | [ _; _; members ] ->
                      List.exists (function [ _; f ] -> str f = "Leader" | _ -> false) (sub members)
                  | _ -> false)
                (sub projects)
            in
            if pc_at && led then Some [ dno; mgr; budget ] else None
        | _ -> None)
      (band lo hi)
  in
  let walk_join dno () =
    List.map
      (function
        | [ dno; mgr; projects; _; _ ] ->
            let staff =
              List.concat_map
                (function
                  | [ _; _; members ] ->
                      List.concat_map
                        (function
                          | [ Value.Atom a; f ] ->
                              List.map
                                (fun root -> Mvcc.fetch e root @ [ f ])
                                (VI.roots_for (index e [ "EMPNO" ]) a)
                          | _ -> [])
                        (sub members)
                  | _ -> [])
                (sub projects)
            in
            [ dno; mgr; Value.set staff ]
        | t -> t)
      (band dno (dno + 1))
  in
  let shapes =
    [
      ( "unnest",
        "SELECT x.DNO, x.MGRNO, y.PNO, y.PNAME, z.EMPNO, z.FUNCTION FROM x IN DEPARTMENTS, y IN \
         x.PROJECTS, z IN y.MEMBERS WHERE x.DNO >= 200 AND x.DNO < 220",
        walk_unnest 200 220 );
      ( "nest",
        "SELECT x.DNO, x.MGRNO, (SELECT y.PNO, y.PNAME, (SELECT z.EMPNO, z.FUNCTION FROM z IN \
         y.MEMBERS) = MEMBERS FROM y IN x.PROJECTS) = PROJECTS, x.BUDGET, (SELECT v.QU, v.TYPE FROM \
         v IN x.EQUIP) = EQUIP FROM x IN DEPARTMENTS WHERE x.DNO >= 200 AND x.DNO < 210",
        walk_nest 200 210 );
      ( "quant",
        "SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO >= 150 AND x.DNO < 250 \
         AND (EXISTS y IN x.EQUIP : y.TYPE = 'PC/AT') AND (ALL p IN x.PROJECTS : (EXISTS z IN \
         p.MEMBERS : z.FUNCTION = 'Leader'))",
        walk_quant 150 250 );
      ( "join",
        "SELECT x.DNO, x.MGRNO, (SELECT e.EMPNO, e.LNAME, e.FNAME, e.SEX, z.FUNCTION FROM y IN \
         x.PROJECTS, z IN y.MEMBERS, e IN EMPLOYEES_1NF WHERE z.EMPNO = e.EMPNO) = EMPLOYEES FROM x \
         IN DEPARTMENTS WHERE x.DNO = 250",
        walk_join 250 );
    ]
  in
  let median_ns f =
    ignore (f ());
    let a = Array.init 51 (fun _ -> snd (time_once f)) in
    Array.sort Float.compare a;
    a.(25)
  in
  let us ns = Printf.sprintf "%.1f us" (ns /. 1e3) in
  let rows =
    List.map
      (fun (name, sql, walk) ->
        let stmt = match Nf2_lang.Parser.parse_script sql with [ s ] -> s | _ -> failwith "one statement" in
        let read () = match Db.exec_read db snap stmt with Db.Rows r -> r | Db.Msg m -> failwith m in
        let rel = read () in
        let answer = Rel.tuples rel in
        check
          (Printf.sprintf "%s: exec_read answers what the walk finds (%d rows)" name (List.length answer))
          (answer <> [] && List.equal Value.equal_tuple answer (Value.dedup (walk ())));
        let exec_ns = median_ns read and walk_ns = median_ns walk in
        let columns = List.map (fun (f : Schema.field) -> f.name) rel.Rel.schema.fields in
        let encode () =
          Proto.encode_response
            (Proto.Result_table { columns; rows = List.map (List.map Value.render_v) answer })
        in
        let reference () =
          Ref_render.encode_result_table columns (List.map (List.map Ref_render.render_v) answer)
        in
        let bytes = encode () in
        check (Printf.sprintf "%s: the result payload equals the reference bytes" name) (bytes = reference ());
        ( [ name; string_of_int (List.length answer); us exec_ns; us walk_ns; Printf.sprintf "%.1fx" (exec_ns /. walk_ns) ],
          [
            name;
            string_of_int (String.length bytes);
            us exec_ns;
            us (median_ns encode);
            us (median_ns reference);
            us (median_ns (fun () -> Proto.decode_response bytes));
          ] ))
      shapes
  in
  print_table ~header:[ "shape"; "rows"; "exec_read"; "hand walk"; "exec / walk" ] (List.map fst rows);
  print_table
    ~header:[ "shape"; "payload B"; "exec_read"; "render+encode"; "reference"; "decode" ]
    (List.map snd rows);
  (* pushdown: the unnest's DNO band is checked on the 21 departments
     the index yields (the strict upper bound probes inclusively), not
     on the 800 unnested bindings *)
  let tr = Db.new_trace db in
  let _, unnest_sql, _ = List.hd shapes in
  ignore (Db.exec_read ~trace:tr db snap (Nf2_lang.Parser.parse_one unnest_sql));
  let evals =
    match Nf2_obs.Trace.find tr "scan DEPARTMENTS" with
    | Some n -> Option.value ~default:(-1) (List.assoc_opt "filter.evals" n.Nf2_obs.Trace.counters)
    | None -> -1
  in
  check (Printf.sprintf "unnest checks its DNO band at range x: %d filter evaluations (21)" evals) (evals = 21);
  Db.release_snapshot db snap

let bench_qp () =
  section "QP" "query planner: index-backed point reads vs forced sequential scans";
  let n = 100_000 in
  let db = Db.create ~frames:1024 () in
  let schema = Schema.relation "BIG" [ Schema.int_ "K"; Schema.int_ "V"; Schema.str_ "S" ] in
  let rows =
    List.init n (fun i ->
        [ Value.int_ i; Value.int_ (i * 7); Value.str (Printf.sprintf "row%06d" i) ])
  in
  let (), load_ns = time_once (fun () -> Db.register_table db schema rows) in
  let (), index_ns = time_once (fun () -> ignore (Db.exec db "CREATE INDEX ON BIG (K)")) in
  subsection
    (Printf.sprintf "%d rows loaded in %.2fs, index built in %.2fs" n (load_ns /. 1e9)
       (index_ns /. 1e9));
  (* the planner must pick the index for a selective equality... *)
  ignore (Db.exec1 db "EXPLAIN SELECT x.V FROM x IN BIG WHERE x.K = 54321");
  (match Db.last_plan_tree db with
  | Some t -> check "EXPLAIN shows index-scan" (Nf2_plan.Plan.uses_op "index-scan" t)
  | None -> check "EXPLAIN produced a tree" false);
  (* ...and both access paths must agree on the answer *)
  let point = "SELECT x.V FROM x IN BIG WHERE x.K = 54321" in
  let timed_query () =
    let r, ns = time_once (fun () -> Db.query db point) in
    (Rel.render r, ns)
  in
  let auto_answer, _warm = timed_query () in
  let _, auto_ns = timed_query () in
  let _, auto_ns' = timed_query () in
  let auto_ns = Float.min auto_ns auto_ns' in
  Db.set_plan_force_seq db true;
  let seq_answer, seq_ns = timed_query () in
  Db.set_plan_force_seq db false;
  check "index and scan agree" (auto_answer = seq_answer);
  let speedup = seq_ns /. auto_ns in
  print_table
    ~header:[ "access path"; "latency"; "speedup" ]
    [
      [ "planner (index-scan)"; Printf.sprintf "%.3f ms" (auto_ns /. 1e6); "1.0x" ];
      [ "forced seq-scan"; Printf.sprintf "%.3f ms" (seq_ns /. 1e6); Printf.sprintf "%.1fx" speedup ];
    ];
  check
    (Printf.sprintf "index-backed point read >= 10x faster at %d rows (%.1fx)" n speedup)
    (speedup >= 10.0);
  let pc = Db.planner_counters db in
  check "access-path counters moved" (pc.Db.index_scans > 0 && pc.Db.seq_scans > 0);
  (* a snapshot read (the server's default read path) probes the index
     frozen with its MVCC version, so its point read must cost what the
     live index read costs at every table size, not grow with it *)
  let snapshot_vs_live size db =
    let point = Printf.sprintf "SELECT x.V FROM x IN BIG WHERE x.K = %d" (size / 2) in
    let stmt =
      match Nf2_lang.Parser.parse_script point with [ s ] -> s | _ -> failwith "one statement"
    in
    let median_ns f =
      ignore (f ());
      let a = Array.init 21 (fun _ -> snd (time_once f)) in
      Array.sort Float.compare a;
      a.(10)
    in
    let snap = Db.snapshot db in
    let live_answer = Rel.render (Db.query db point) in
    let snap_answer =
      match Db.exec_read db snap stmt with Db.Rows r -> Rel.render r | Db.Msg m -> m
    in
    let before = (Db.planner_counters db).Db.index_scans in
    let live_ns = median_ns (fun () -> ignore (Db.query db point)) in
    let snap_ns = median_ns (fun () -> ignore (Db.exec_read db snap stmt)) in
    let probes = (Db.planner_counters db).Db.index_scans - before in
    Db.release_snapshot db snap;
    check (Printf.sprintf "snapshot and live point reads agree at %d rows" size) (live_answer = snap_answer);
    check (Printf.sprintf "every timed read at %d rows probed the index" size) (probes = 44);
    (size, live_ns, snap_ns)
  in
  let sized size =
    let db = Db.create ~frames:1024 () in
    Db.register_table db schema (List.filteri (fun i _ -> i < size) rows);
    ignore (Db.exec db "CREATE INDEX ON BIG (K)");
    snapshot_vs_live size db
  in
  let sweep = [ sized 1_000; sized 10_000; snapshot_vs_live n db ] in
  print_table
    ~header:[ "rows"; "live index read"; "snapshot index read"; "snapshot / live" ]
    (List.map
       (fun (rows, live_ns, snap_ns) ->
         [
           string_of_int rows;
           Printf.sprintf "%.4f ms" (live_ns /. 1e6);
           Printf.sprintf "%.4f ms" (snap_ns /. 1e6);
           Printf.sprintf "%.2fx" (snap_ns /. live_ns);
         ])
       sweep);
  List.iter
    (fun (rows, live_ns, snap_ns) ->
      check
        (Printf.sprintf "snapshot point read within 2x of the live read at %d rows (%.2fx)" rows
           (snap_ns /. live_ns))
        (snap_ns <= 2.0 *. live_ns))
    sweep;
  (* nested conjunction at scale: two hierarchical indexes, decided by
     address-prefix comparison (paper Fig 7b, P2 = F2) *)
  let params = { G.default_dept_params with G.departments = 2_000; G.members_per_project = 10 } in
  let depts = G.departments ~params () in
  let member_rows =
    params.G.departments * params.G.projects_per_dept * params.G.members_per_project
  in
  let (), nload_ns = time_once (fun () -> Db.register_table db P.departments depts) in
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (PROJECTS.PNO)");
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (PROJECTS.MEMBERS.FUNCTION)");
  subsection
    (Printf.sprintf "%d departments (%d member subtuples) loaded in %.2fs" params.G.departments
       member_rows (nload_ns /. 1e9));
  let nested_q =
    "SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS : (y.PNO = 4711 AND EXISTS \
     z IN y.MEMBERS : z.FUNCTION = 'Consultant')"
  in
  ignore (Db.exec1 db ("EXPLAIN " ^ nested_q));
  (match Db.last_plan_tree db with
  | Some t ->
      check "EXPLAIN shows index-intersect for the nested conjunction"
        (Nf2_plan.Plan.uses_op "index-intersect" t)
  | None -> check "EXPLAIN produced a tree" false);
  let timed_nested () =
    let r, ns = time_once (fun () -> Db.query db nested_q) in
    (Rel.render r, ns)
  in
  let n_auto_answer, _warm = timed_nested () in
  let _, n_auto_ns = timed_nested () in
  let _, n_auto_ns' = timed_nested () in
  let n_auto_ns = Float.min n_auto_ns n_auto_ns' in
  Db.set_plan_force_seq db true;
  let n_seq_answer, n_seq_ns = timed_nested () in
  Db.set_plan_force_seq db false;
  check "intersection and scan agree" (n_auto_answer = n_seq_answer);
  let n_speedup = n_seq_ns /. n_auto_ns in
  print_table
    ~header:[ "access path"; "latency"; "speedup" ]
    [
      [ "planner (index-intersect)"; Printf.sprintf "%.3f ms" (n_auto_ns /. 1e6); "1.0x" ];
      [
        "forced seq-scan"; Printf.sprintf "%.3f ms" (n_seq_ns /. 1e6); Printf.sprintf "%.1fx" n_speedup;
      ];
    ];
  check
    (Printf.sprintf "index-intersected nested read >= 10x faster (%.1fx)" n_speedup)
    (n_speedup >= 10.0);
  (* append machine-readable entries (see bench_repl for the format) *)
  append_results
    ([
      Printf.sprintf
        "\"section\": \"query_planner\", \"rows\": %d, \"mode\": \"index\", \"seconds\": %.6f" n
        (auto_ns /. 1e9);
      Printf.sprintf
        "\"section\": \"query_planner\", \"rows\": %d, \"mode\": \"seq\", \"seconds\": %.6f, \
         \"speedup\": %.1f"
        n (seq_ns /. 1e9) speedup;
      Printf.sprintf
        "\"section\": \"query_planner\", \"rows\": %d, \"mode\": \"intersect\", \"seconds\": %.6f"
        member_rows (n_auto_ns /. 1e9);
      Printf.sprintf
        "\"section\": \"query_planner\", \"rows\": %d, \"mode\": \"seq_nested\", \"seconds\": \
         %.6f, \"speedup\": %.1f"
        member_rows (n_seq_ns /. 1e9) n_speedup;
    ]
    @ List.map
        (fun (rows, live_ns, snap_ns) ->
          Printf.sprintf
            "\"section\": \"query_planner\", \"rows\": %d, \"mode\": \"snapshot_index\", \
             \"seconds\": %.6f, \"live_seconds\": %.6f"
            rows (snap_ns /. 1e9) (live_ns /. 1e9))
        sweep);
  bench_qp_executor ()

(* ================================================================== *)
(* SYS: introspection schema — pay-for-use, bounded query latency      *)
(* ================================================================== *)

let bench_sys () =
  section "SYS" "SYS introspection: pay-for-use materialization, bounded query cost";
  let n = 20_000 in
  let db = Db.create ~frames:1024 () in
  let schema = Schema.relation "BIG" [ Schema.int_ "K"; Schema.int_ "V" ] in
  Db.register_table db schema (List.init n (fun i -> [ Value.int_ i; Value.int_ (i * 3) ]));
  ignore (Db.exec db "CREATE INDEX ON BIG (K)");
  let reg = Db.sys_registry db in
  (* user statements must never touch a provider: SYS is pay-for-use *)
  let user_queries = 2_000 in
  let (), user_ns =
    time_once (fun () ->
        for i = 1 to user_queries do
          ignore (Db.query db (Printf.sprintf "SELECT x.V FROM x IN BIG WHERE x.K = %d" (i * 7)))
        done)
  in
  subsection
    (Printf.sprintf "%d user point reads in %.2fs (%.0f q/s)" user_queries (user_ns /. 1e9)
       (float_of_int user_queries /. (user_ns /. 1e9)));
  check "no SYS materialization on the user hot path"
    (Nf2_sys.Registry.materializations reg = 0);
  (* grow version chains so SYS_MVCC has real substance to materialize *)
  for _ = 1 to 3 do
    ignore (Db.exec db "UPDATE BIG SET V = V + 1 WHERE K < 2000")
  done;
  let timed_sys q =
    let _warm = Db.query db q in
    let r, ns = time_once (fun () -> Db.query db q) in
    let r', ns' = time_once (fun () -> Db.query db q) in
    ignore r';
    (r, Float.min ns ns')
  in
  let flat, flat_ns = timed_sys "SELECT t.NAME FROM t IN SYS_TABLES" in
  let nested, nested_ns =
    timed_sys
      "SELECT m.TBL, v.LSN FROM m IN SYS_MVCC, v IN m.CHAIN WHERE m.TBL = 'BIG' AND v.LIVE = \
       TRUE"
  in
  print_table
    ~header:[ "SYS query"; "rows"; "latency" ]
    [
      [ "SYS_TABLES flat scan"; string_of_int (Rel.cardinality flat); Printf.sprintf "%.3f ms" (flat_ns /. 1e6) ];
      [
        "SYS_MVCC nested chain walk";
        string_of_int (Rel.cardinality nested);
        Printf.sprintf "%.3f ms" (nested_ns /. 1e6);
      ];
    ];
  (* chains are table-level: one version per commit that touched BIG *)
  check "SYS_MVCC chain walk sees each update pass" (Rel.cardinality nested >= 3);
  (* each SYS statement freezes the touched providers exactly once *)
  check "providers materialize per statement, not per row"
    (Nf2_sys.Registry.materializations reg >= 2);
  check
    (Printf.sprintf "SYS introspection stays interactive (flat %.1fms, nested %.1fms)"
       (flat_ns /. 1e6) (nested_ns /. 1e6))
    (flat_ns < 250. *. 1e6 && nested_ns < 250. *. 1e6);
  append_results
    [
      Printf.sprintf "\"section\": \"sys_introspection\", \"mode\": \"flat\", \"seconds\": %.6f"
        (flat_ns /. 1e9);
      Printf.sprintf
        "\"section\": \"sys_introspection\", \"mode\": \"nested\", \"rows\": %d, \"seconds\": %.6f"
        (Rel.cardinality nested) (nested_ns /. 1e9);
    ]

(* ================================================================== *)
(* SH: horizontal sharding — fan-out qps scaling with shard count      *)
(* ================================================================== *)

module Shard_map = Nf2_shard.Shard_map
module Coord = Nf2_shard.Coord

type shard_trial = { sh_shards : int; sh_ops : int; sh_seconds : float; sh_qps : float }

(* [clients] sessions push scan-heavy fan-out reads through a
   coordinator over [nshards] in-process shards.  Each shard holds
   ~1/K of the roots and evaluates its scatter leg on its own worker
   domain, so the per-statement critical path shrinks with K — the
   scaling the fan-out/fan-in architecture exists for. *)
let shard_trial ~nshards ~clients ~per_client () : shard_trial =
  let scfg =
    {
      Server.default_config with
      Server.port = 0;
      max_sessions = (clients * 2) + 4;
      lock_timeout = 30.;
      idle_timeout = 0.;
      group_window = 0.001;
      domains = 1;
    }
  in
  let shards = Array.init nshards (fun _ -> Server.start scfg) in
  let members =
    List.init nshards (fun id ->
        {
          Shard_map.id;
          primary = { Shard_map.host = "127.0.0.1"; port = Server.port shards.(id) };
          replica = None;
        })
  in
  let coord =
    Coord.start
      ~server:{ scfg with max_sessions = clients + 2 }
      { Coord.default_config with gather_deadline = 30.; members }
  in
  Fun.protect
    ~finally:(fun () ->
      Coord.stop coord;
      Array.iter Server.stop shards)
  @@ fun () ->
  let setup = SClient.connect ~host:"127.0.0.1" ~port:(Coord.port coord) in
  (match
     SClient.request setup (Proto.Query "CREATE TABLE D (K INT, N INT, XS TABLE (X INT))")
   with
  | Some (Proto.Row_count _) -> ()
  | _ -> failwith "shard bench setup failed");
  let roots = 512 in
  let batch = 64 in
  for b = 0 to (roots / batch) - 1 do
    let rows =
      String.concat ", "
        (List.init batch (fun i ->
             let k = (b * batch) + i + 1 in
             Printf.sprintf "(%d, %d, {(%d), (%d), (%d), (%d)})" k (k * 7 mod 100) k (k + 1000)
               (k + 2000) (k + 3000)))
    in
    match SClient.request setup (Proto.Query ("INSERT INTO D VALUES " ^ rows)) with
    | Some (Proto.Row_count _) -> ()
    | _ -> failwith "shard bench load failed"
  done;
  SClient.close setup;
  let read_sql = "SELECT x.K, y.X FROM x IN D, y IN x.XS WHERE x.N > 50" in
  let done_ops = Atomic.make 0 and errors = Atomic.make 0 in
  let worker () =
    let c = SClient.connect ~host:"127.0.0.1" ~port:(Coord.port coord) in
    for _ = 1 to per_client do
      match SClient.request c (Proto.Query read_sql) with
      | Some (Proto.Result_table _) -> Atomic.incr done_ops
      | _ -> Atomic.incr errors
    done;
    SClient.close c
  in
  let (), ns =
    time_once (fun () ->
        let threads = List.init clients (fun _ -> Thread.create worker ()) in
        List.iter Thread.join threads)
  in
  if Atomic.get errors > 0 then
    Printf.printf "  (%d statement(s) failed at %d shard(s))\n" (Atomic.get errors) nshards;
  let seconds = ns /. 1e9 in
  {
    sh_shards = nshards;
    sh_ops = Atomic.get done_ops;
    sh_seconds = seconds;
    sh_qps = float_of_int (Atomic.get done_ops) /. seconds;
  }

let bench_sharding () =
  section "SH" "horizontal sharding: fan-out read throughput vs shard count";
  let cores = Domain.recommended_domain_count () in
  let clients = 4 and per_client = 30 in
  let trials = List.map (fun n -> shard_trial ~nshards:n ~clients ~per_client ()) [ 1; 2; 4 ] in
  subsection
    (Printf.sprintf "512 roots, subtable-joining fan-out scans (%d clients x %d ops, %d core(s))"
       clients per_client cores);
  print_table
    ~header:[ "shards"; "ops"; "seconds"; "qps" ]
    (List.map
       (fun t ->
         [
           string_of_int t.sh_shards;
           string_of_int t.sh_ops;
           Printf.sprintf "%.2f" t.sh_seconds;
           Printf.sprintf "%.0f" t.sh_qps;
         ])
       trials);
  List.iter
    (fun t ->
      check
        (Printf.sprintf "all ops completed on %d shard(s)" t.sh_shards)
        (t.sh_ops = clients * per_client))
    trials;
  let qps n = (List.find (fun t -> t.sh_shards = n) trials).sh_qps in
  let speedup = qps 4 /. qps 1 in
  Printf.printf "fan-out scaling: qps@4 / qps@1 = %.2f (%d core(s))\n" speedup cores;
  if cores >= 4 then begin
    (* with cores to run on, sharding must actually pay: each scatter
       leg scans 1/K of the data on its own worker domain *)
    check "2 shards at least hold the 1-shard rate" (qps 2 >= 0.95 *. qps 1);
    check "4 shards reach >= 1.5x the 1-shard qps" (speedup >= 1.5)
  end
  else begin
    (* on a small host the honest claim is only that the scatter/gather
       machinery does not collapse throughput as shards are added *)
    check "2 shards sustain the 1-shard rate" (qps 2 >= 0.6 *. qps 1);
    check "4 shards sustain the 1-shard rate" (speedup >= 0.6)
  end;
  (* append machine-readable entries (see bench_repl for the format) *)
  append_results
    (List.map
       (fun t ->
         Printf.sprintf
           "\"section\": \"sharding\", \"shards\": %d, \"ops\": %d, \"seconds\": %.4f, \"qps\": \
            %.1f"
           t.sh_shards t.sh_ops t.sh_seconds t.sh_qps)
       trials
    @ [
        Printf.sprintf
          "\"section\": \"sharding_speedup\", \"qps_1\": %.1f, \"qps_4\": %.1f, \"speedup\": %.3f"
          (qps 1) (qps 4) speedup;
      ])

(* ================================================================== *)
(* WA: raw-speed storage path — async WAL appender, partitioned        *)
(*     buffer-pool latching, larger-than-memory scan                   *)
(* ================================================================== *)

type wa_mode = Wa_immediate | Wa_window | Wa_appender

let wa_mode_name = function
  | Wa_immediate -> "immediate"
  | Wa_window -> "window"
  | Wa_appender -> "appender"

type wa_trial = {
  wa_mode : wa_mode;
  wa_threads : int;
  wa_txns : int;
  wa_seconds : float;
  wa_qps : float;
  wa_fsyncs_per_txn : float;
  wa_avg_batch : float;
}

(* Commit throughput straight against the WAL — no TCP, no engine — so
   the three fsync scheduling policies are compared in isolation:
   one fsync per commit (immediate), leader/follower with a 2ms
   gathering window (the seed's group commit), and the async batched
   appender.  The sync hook charges every fsync a 200us device latency;
   without it the simulated disk syncs for free and there is nothing
   for any batching policy to amortize. *)
let wa_fsync_latency = 2e-4

let wa_commit_trial ~mode ~threads ~per_thread () : wa_trial =
  let w = Wal.create () in
  Wal.set_sync_hook w
    (Some
       (fun pending ->
         Thread.delay wa_fsync_latency;
         pending));
  (match mode with
  | Wa_immediate -> ()
  | Wa_window -> Wal.set_group_commit ~window:(fun () -> Thread.delay 0.002) w true
  | Wa_appender ->
      Wal.set_group_commit w true;
      Wal.set_async_appender w true);
  let committed = Atomic.make 0 in
  let worker k () =
    for n = 1 to per_thread do
      let tx = Wal.begin_tx w in
      ignore
        (Wal.log_update w ~tx ~page:k ~off:0 ~before:"0" ~after:(string_of_int (n mod 10)));
      Wal.commit w ~tx ~payload:None;
      Wal.sync_to w (Wal.last_lsn w);
      Atomic.incr committed
    done
  in
  let (), ns =
    time_once (fun () ->
        let ths = List.init threads (fun k -> Thread.create (worker k) ()) in
        List.iter Thread.join ths)
  in
  if mode = Wa_appender then Wal.set_async_appender w false;
  let s = Wal.stats w in
  let txns = Atomic.get committed in
  let batches, batched =
    match mode with
    | Wa_appender -> (s.Wal.appender_batches, s.Wal.appender_txns)
    | _ -> (s.Wal.group_commit_batches, s.Wal.group_commit_txns)
  in
  let seconds = ns /. 1e9 in
  {
    wa_mode = mode;
    wa_threads = threads;
    wa_txns = txns;
    wa_seconds = seconds;
    wa_qps = float_of_int txns /. seconds;
    wa_fsyncs_per_txn =
      (if txns = 0 then nan else float_of_int s.Wal.flushes /. float_of_int txns);
    wa_avg_batch = (if batches = 0 then nan else float_of_int batched /. float_of_int batches);
  }

(* Scan a store whose working set exceeds the pool: REPORTS-style
   objects with long titles, 32 frames.  Returns the fetched tuples
   (for the byte-exactness check) and the pool stats of the scan. *)
let wa_scan_trial ~rows () =
  let disk = D.create () in
  let pool = BP.create ~frames:32 disk in
  let store = OS.create pool in
  let tids = List.map (OS.insert store P.reports) rows in
  BP.reset_stats pool;
  let fetched, ns =
    time_once (fun () -> List.map (fun tid -> OS.fetch store P.reports tid) tids)
  in
  (fetched, ns, BP.stats pool)

(* 8 threads pinning disjoint page sets as fast as they can; the
   contended counter (pin-path latch acquisitions that had to wait)
   is the figure of merit for the partitioned latching. *)
let wa_pin_stress ~partitions ~rounds () =
  let disk = D.create () in
  let pool = BP.create ~frames:128 ~partitions disk in
  let pages = Array.init 64 (fun _ -> BP.alloc pool) in
  Array.iter (fun pg -> BP.read pool pg (fun _ -> ())) pages;
  BP.reset_stats pool;
  let worker k () =
    for n = 0 to rounds - 1 do
      let pg = pages.((k * 8) + (n mod 8)) in
      BP.read pool pg (fun b -> ignore (Bytes.get b 0))
    done
  in
  let ths = List.init 8 (fun k -> Thread.create (worker k) ()) in
  List.iter Thread.join ths;
  let agg = BP.stats pool in
  let parts = BP.partition_stats pool in
  let sum f = List.fold_left (fun a p -> a + f p) 0 parts in
  check
    (Printf.sprintf "per-partition stats reconcile with the aggregate (%d partition(s))"
       partitions)
    (sum (fun p -> p.BP.p_hits) = agg.BP.hits
    && sum (fun p -> p.BP.p_misses) = agg.BP.misses
    && sum (fun p -> p.BP.p_contended) = agg.BP.contended);
  agg.BP.contended

let bench_wa () =
  section "WA" "raw-speed storage: async WAL appender, pool partitions, eviction scan";
  subsection "commit fsync scheduling (WAL level, 200us device fsync, 2ms legacy window)";
  let per_thread threads = if threads = 1 then 300 else 40 in
  let modes = [ Wa_immediate; Wa_window; Wa_appender ] in
  (* one 300-txn single-thread trial is too noisy for a 20% bound:
     run the three modes in interleaved rounds and keep each mode's
     median round *)
  let rounds = 5 in
  let single_rounds =
    List.concat
      (List.init rounds (fun _ ->
           List.map (fun mode -> wa_commit_trial ~mode ~threads:1 ~per_thread:(per_thread 1) ()) modes))
  in
  let median_round mode =
    let of_mode = List.filter (fun t -> t.wa_mode = mode) single_rounds in
    List.nth (List.sort (fun a b -> compare a.wa_qps b.wa_qps) of_mode) (rounds / 2)
  in
  let multi = List.map (fun mode -> wa_commit_trial ~mode ~threads:16 ~per_thread:(per_thread 16) ()) modes in
  let trials = List.map median_round modes @ multi in
  Printf.printf "(1-thread rows: the median of %d interleaved rounds per mode)\n" rounds;
  print_table
    ~header:[ "threads"; "mode"; "txns"; "txn/s"; "fsyncs/txn"; "avg batch" ]
    (List.map
       (fun t ->
         [
           string_of_int t.wa_threads;
           wa_mode_name t.wa_mode;
           string_of_int t.wa_txns;
           Printf.sprintf "%.0f" t.wa_qps;
           Printf.sprintf "%.3f" t.wa_fsyncs_per_txn;
           (if Float.is_nan t.wa_avg_batch then "-" else Printf.sprintf "%.2f" t.wa_avg_batch);
         ])
       trials);
  let find threads mode =
    List.find (fun t -> t.wa_threads = threads && t.wa_mode = mode) trials
  in
  List.iter
    (fun t ->
      check
        (Printf.sprintf "all %d txns durable (%d threads, %s)"
           (t.wa_threads * per_thread t.wa_threads)
           t.wa_threads (wa_mode_name t.wa_mode))
        (t.wa_txns = t.wa_threads * per_thread t.wa_threads))
    (single_rounds @ multi);
  check "appender at 16 threads >= 2x the windowed group commit"
    ((find 16 Wa_appender).wa_qps >= 2. *. (find 16 Wa_window).wa_qps);
  check "appender at 16 threads shares fsyncs (fsyncs/txn < 1)"
    ((find 16 Wa_appender).wa_fsyncs_per_txn < 1.0);
  check "appender at 16 threads needs no more fsyncs/txn than the windowed scheme"
    ((find 16 Wa_appender).wa_fsyncs_per_txn
    <= (find 16 Wa_window).wa_fsyncs_per_txn +. 0.05);
  check "appender batches commits at 16 threads (avg batch > 1.5)"
    ((find 16 Wa_appender).wa_avg_batch > 1.5);
  check "single-thread windowed group commit within 20% of immediate sync (medians)"
    ((find 1 Wa_window).wa_qps >= 0.8 *. (find 1 Wa_immediate).wa_qps);
  check "single-thread appender within 20% of immediate sync (medians)"
    ((find 1 Wa_appender).wa_qps >= 0.8 *. (find 1 Wa_immediate).wa_qps);
  subsection "larger-than-memory scan (32-frame pool, REPORTS-style objects)";
  let rows =
    G.reports ~params:{ G.default_report_params with G.reports = 600; title_words = 48 } ()
  in
  let plain_fetched, plain_ns, plain_p = wa_scan_trial ~rows () in
  print_table
    ~header:[ "store"; "scan"; "pool accesses"; "evictions" ]
    [
      [
        "plain";
        ns_to_string plain_ns;
        string_of_int (plain_p.BP.hits + plain_p.BP.misses);
        string_of_int plain_p.BP.evictions;
      ];
    ];
  check "working set exceeds the pool: plain scan evicts" (plain_p.BP.evictions > 0);
  check "plain store returns byte-identical objects"
    (Value.equal_table
       { Value.kind = Schema.Set; tuples = plain_fetched }
       { Value.kind = Schema.Set; tuples = rows });
  subsection "pin stress: 8 threads on disjoint pages, 1 vs 8 latch partitions";
  let rounds = 20_000 in
  let contended1 = wa_pin_stress ~partitions:1 ~rounds () in
  let contended8 = wa_pin_stress ~partitions:8 ~rounds () in
  print_table
    ~header:[ "partitions"; "pin rounds"; "contended latch acquisitions" ]
    [
      [ "1"; string_of_int (8 * rounds); string_of_int contended1 ];
      [ "8"; string_of_int (8 * rounds); string_of_int contended8 ];
    ];
  let cores = Harness.cores () in
  (* real parallel latch contention needs cores; on a small host the
     systhread scheduler serializes pins and both counters sit near 0 *)
  if cores >= 4 && contended1 > 0 then
    check "partitioned latching cuts contention below 10% of a single latch"
      (float_of_int contended8 < 0.1 *. float_of_int contended1)
  else
    Printf.printf "(contention assertion needs >= 4 cores and a contended baseline; %d core(s))\n"
      cores;
  append_results
    (List.map
       (fun t ->
         Printf.sprintf
           "\"section\": \"wal_appender\", \"mode\": \"%s\", \"threads\": %d, \"txns\": %d, \
            \"seconds\": %.4f, \"qps\": %.1f, \"fsyncs_per_txn\": %.4f, \"avg_batch\": %s"
           (wa_mode_name t.wa_mode) t.wa_threads t.wa_txns t.wa_seconds t.wa_qps
           t.wa_fsyncs_per_txn
           (if Float.is_nan t.wa_avg_batch then "null" else Printf.sprintf "%.2f" t.wa_avg_batch))
       trials
    @ [
        Printf.sprintf "\"section\": \"pool_eviction_scan\", \"seconds\": %.4f, \"evictions\": %d"
          (plain_ns /. 1e9) plain_p.BP.evictions;
        Printf.sprintf
          "\"section\": \"pin_stress\", \"rounds\": %d, \"contended_1_part\": %d, \
           \"contended_8_part\": %d"
          (8 * rounds) contended1 contended8;
      ])

let sections : (string * (unit -> unit)) list =
  [
    ("T1-T8", bench_tables);
    ("F1", bench_fig1);
    ("EX", bench_examples);
    ("F6", bench_fig6);
    ("F7", bench_fig7);
    ("F8", bench_fig8);
    ("C1", bench_c1);
    ("C2", bench_c2);
    ("C3", bench_c3);
    ("C4", bench_c4);
    ("C5", bench_c5);
    ("C6", bench_c6);
    ("C7", bench_c7);
    ("C8", bench_c8);
    ("C9", bench_c9);
    ("AB", bench_ablations);
    ("WL", bench_wal);
    ("SRV", bench_server);
    ("REPL", bench_repl);
    ("RDS", bench_read_scaling);
    ("QP", bench_qp);
    ("SYS", bench_sys);
    ("SH", bench_sharding);
    ("WA", bench_wa);
  ]

let () =
  (match Sys.argv with
  | [| _; "--bulk-load"; rows |] ->
      bulk_load (int_of_string rows);
      exit 0
  | [| _; "--commit-cost"; rows |] ->
      commit_cost (int_of_string rows);
      exit 0
  | _ -> ());
  let requested = List.tl (Array.to_list Sys.argv) in
  (match List.filter (fun id -> not (List.mem_assoc id sections)) requested with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown section id(s): %s\nvalid ids: %s\n" (String.concat " " unknown)
        (String.concat " " (List.map fst sections));
      exit 2);
  let to_run =
    if requested = [] then sections else List.filter (fun (id, _) -> List.mem id requested) sections
  in
  List.iter (fun (_, fn) -> fn ()) to_run;
  Printf.printf "\n%s\n" (if !exit_code = 0 then "ALL CHECKS PASSED" else "SOME CHECKS FAILED");
  exit !exit_code
