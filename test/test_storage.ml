(* Tests for the storage engine: pages, heap files, page lists, and the
   complex-object store under all three MD layouts. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module P = Nf2_workload.Paper_data
module D = Nf2_storage.Disk
module BP = Nf2_storage.Buffer_pool
module Pg = Nf2_storage.Page
module H = Nf2_storage.Heap
module PL = Nf2_storage.Page_list
module OS = Nf2_storage.Object_store
module MD = Nf2_storage.Mini_directory
module Tid = Nf2_storage.Tid

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let mk_pool ?(page_size = 4096) ?(frames = 64) () =
  let disk = D.create ~page_size () in
  (disk, BP.create ~frames disk)

let layouts = [ MD.SS1; MD.SS2; MD.SS3 ]

let with_store ?(layout = MD.SS3) ?(clustering = true) ?(page_size = 4096) fn =
  let _, pool = mk_pool ~page_size () in
  fn (OS.create ~layout ~clustering pool)

(* --- slotted pages -------------------------------------------------- *)

let test_page_basic () =
  let buf = Bytes.make 256 '\000' in
  Pg.init buf;
  let s1 = Pg.insert buf "hello" |> Option.get in
  let s2 = Pg.insert buf "world!" |> Option.get in
  Alcotest.(check (option string)) "read1" (Some "hello") (Pg.read buf s1);
  Alcotest.(check (option string)) "read2" (Some "world!") (Pg.read buf s2);
  checkb "delete" true (Pg.delete buf s1);
  Alcotest.(check (option string)) "gone" None (Pg.read buf s1);
  (* slot reuse *)
  let s3 = Pg.insert buf "again" |> Option.get in
  checki "slot reused" s1 s3;
  (* update in place *)
  checkb "grow" true (Pg.update buf s2 "a much longer record body");
  Alcotest.(check (option string)) "updated" (Some "a much longer record body") (Pg.read buf s2)

let test_page_full_and_compaction () =
  let buf = Bytes.make 128 '\000' in
  Pg.init buf;
  let inserted = ref [] in
  (try
     while true do
       match Pg.insert buf (String.make 10 'x') with
       | Some s -> inserted := s :: !inserted
       | None -> raise Exit
     done
   with Exit -> ());
  checkb "some inserted" true (List.length !inserted >= 5);
  (* delete every other record; then a larger record must fit via compaction *)
  List.iteri (fun i s -> if i mod 2 = 0 then ignore (Pg.delete buf s)) !inserted;
  (match Pg.insert buf (String.make 18 'y') with
  | Some s -> Alcotest.(check (option string)) "compacted read" (Some (String.make 18 'y')) (Pg.read buf s)
  | None -> Alcotest.fail "expected insert to succeed after compaction");
  (* records survive compaction *)
  List.iteri
    (fun i s ->
      if i mod 2 = 1 then
        Alcotest.(check (option string)) "survivor" (Some (String.make 10 'x')) (Pg.read buf s))
    !inserted

let prop_page_model =
  (* page behaves like a map slot -> payload under random ops *)
  QCheck.Test.make ~name:"page vs model" ~count:200
    QCheck.(list (pair (int_bound 2) (string_of_size (QCheck.Gen.int_range 1 30))))
    (fun ops ->
      let buf = Bytes.make 512 '\000' in
      Pg.init buf;
      let model : (int, string) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (op, payload) ->
          match op with
          | 0 -> (
              match Pg.insert buf payload with
              | Some s -> Hashtbl.replace model s payload
              | None -> ())
          | 1 -> (
              (* delete a random live slot *)
              match Hashtbl.fold (fun k _ acc -> k :: acc) model [] with
              | [] -> ()
              | k :: _ ->
                  ignore (Pg.delete buf k);
                  Hashtbl.remove model k)
          | _ -> (
              match Hashtbl.fold (fun k _ acc -> k :: acc) model [] with
              | [] -> ()
              | k :: _ -> if Pg.update buf k payload then Hashtbl.replace model k payload))
        ops;
      Hashtbl.fold (fun k v acc -> acc && Pg.read buf k = Some v) model true)

(* --- buffer pool ----------------------------------------------------- *)

let test_buffer_pool_eviction () =
  let disk = D.create ~page_size:256 () in
  let pool = BP.create ~frames:4 disk in
  let pages = List.init 10 (fun _ -> BP.alloc pool) in
  List.iteri
    (fun i p -> BP.write pool p (fun buf -> Bytes.set buf 0 (Char.chr (i + 1))))
    pages;
  BP.flush_all pool;
  (* read all back; only 4 frames, so evictions must have happened *)
  List.iteri
    (fun i p ->
      let c = BP.read pool p (fun buf -> Bytes.get buf 0) in
      checki (Printf.sprintf "page %d" i) (i + 1) (Char.code c))
    pages;
  checkb "evictions happened" true ((BP.stats pool).BP.evictions > 0);
  checkb "physical reads happened" true ((D.stats disk).D.reads > 0)

let test_buffer_pool_hit_counting () =
  let disk, pool = mk_pool () in
  ignore disk;
  let p = BP.alloc pool in
  BP.write pool p (fun _ -> ());
  BP.reset_stats pool;
  for _ = 1 to 5 do
    BP.read pool p (fun _ -> ())
  done;
  checki "hits" 5 (BP.stats pool).BP.hits;
  checki "misses" 0 (BP.stats pool).BP.misses

(* --- partitioned pool ------------------------------------------------- *)

module Wal = Nf2_storage.Wal

(* Summing the per-partition snapshots must reproduce the aggregate
   counters exactly — the reconciliation guarantee SYS_POOL relies on. *)
let test_pool_partition_reconcile () =
  let disk = D.create ~page_size:256 () in
  let pool = BP.create ~frames:8 ~partitions:4 disk in
  checki "partition count" 4 (BP.partitions pool);
  let pages = List.init 16 (fun _ -> BP.alloc pool) in
  List.iteri (fun i p -> BP.write pool p (fun buf -> Bytes.set buf 0 (Char.chr (i + 1)))) pages;
  List.iter (fun p -> BP.read pool p (fun _ -> ())) pages;
  let agg = BP.stats pool in
  let parts = BP.partition_stats pool in
  checki "one row per partition" 4 (List.length parts);
  let sum f = List.fold_left (fun a ps -> a + f ps) 0 parts in
  checki "hits reconcile" agg.BP.hits (sum (fun p -> p.BP.p_hits));
  checki "misses reconcile" agg.BP.misses (sum (fun p -> p.BP.p_misses));
  checki "evictions reconcile" agg.BP.evictions (sum (fun p -> p.BP.p_evictions));
  checki "log captures reconcile" agg.BP.log_captures (sum (fun p -> p.BP.p_log_captures));
  checki "contention reconciles" agg.BP.contended (sum (fun p -> p.BP.p_contended));
  checki "quotas cover the pool" 8 (sum (fun p -> p.BP.quota));
  checkb "resident within quota" true (List.for_all (fun p -> p.BP.resident <= p.BP.quota) parts);
  checkb "some page accesses recorded" true (agg.BP.hits + agg.BP.misses > 0)

(* Deterministic eviction under pressure: a pool far smaller than the
   working set, with a WAL attached so every evicted dirty frame
   exercises the WAL-before-data rule.  The per-partition eviction
   counts must account for the aggregate, every page must read back
   exactly as written (no torn reads), and a pinned page must survive
   arbitrary pressure on its partition. *)
let test_pool_eviction_under_pressure () =
  let disk = D.create ~page_size:256 () in
  let pool = BP.create ~frames:4 ~partitions:2 disk in
  let w = Wal.create () in
  BP.attach_wal pool w;
  let pages = Array.init 12 (fun _ -> BP.alloc pool) in
  Array.iteri
    (fun i p ->
      BP.write pool p (fun buf -> Bytes.fill buf 0 (Bytes.length buf) (Char.chr (i + 65))))
    pages;
  (* twelve dirty pages through four frames: evictions flushed dirty
     frames, and — nothing was synced by hand — each such flush must
     have forced the covering log records out first *)
  checkb "dirty evictions forced log flushes" true ((Wal.stats w).Wal.forced_flushes > 0);
  let agg = BP.stats pool in
  checkb "evictions happened" true (agg.BP.evictions > 0);
  let parts = BP.partition_stats pool in
  checki "partition evictions account for the aggregate" agg.BP.evictions
    (List.fold_left (fun a ps -> a + ps.BP.p_evictions) 0 parts);
  checkb "every partition evicted under pressure" true
    (List.for_all (fun ps -> ps.BP.p_evictions > 0) parts);
  (* zero torn reads: every page comes back exactly as written *)
  Array.iteri
    (fun i p ->
      BP.read pool p (fun buf ->
          checkb
            (Printf.sprintf "page %d intact" i)
            true
            (Bytes.for_all (fun c -> c = Char.chr (i + 65)) buf)))
    pages;
  (* pin accounting: while page 0 is pinned its frame may not be
     reclaimed, however hard the rest of the working set churns *)
  BP.read pool pages.(0) (fun buf ->
      Array.iteri (fun i p -> if i > 0 then BP.read pool p (fun _ -> ())) pages;
      checkb "pinned frame never evicted" true (Bytes.get buf 0 = 'A'))

(* Nested pins past a partition's quota must borrow a frame from a
   sibling (rebalance) rather than fail; Pool_exhausted is for the
   moment every frame of every partition is pinned at once. *)
let test_pool_rebalance_and_exhaustion () =
  let disk = D.create ~page_size:256 () in
  let pool = BP.create ~frames:4 ~partitions:2 disk in
  let pages = Array.init 8 (fun _ -> BP.alloc pool) in
  (* map each page to its partition via the frame tables *)
  let part_of p =
    BP.read pool p (fun _ -> ());
    let ps =
      List.find
        (fun ps -> List.exists (fun f -> f.BP.fi_page = p) ps.BP.frame_infos)
        (BP.partition_stats pool)
    in
    ps.BP.part
  in
  let parts = Array.map part_of pages in
  let of_part k =
    Array.to_list pages |> List.filteri (fun i _ -> parts.(i) = k)
  in
  (* by pigeonhole one of the two partitions owns >= 4 of the 8 pages *)
  let heavy = if List.length (of_part 0) >= 4 then 0 else 1 in
  let victims = of_part heavy in
  checkb "a heavy partition exists" true (List.length victims >= 4);
  let p0 = List.nth victims 0
  and p1 = List.nth victims 1
  and p2 = List.nth victims 2
  and p3 = List.nth victims 3 in
  let outside =
    Array.to_list pages |> List.find (fun p -> not (List.mem p [ p0; p1; p2; p3 ]))
  in
  BP.reset_stats pool;
  BP.read pool p0 (fun _ ->
      BP.read pool p1 (fun _ ->
          (* third concurrent pin in a quota-2 partition: a sibling
             frame must be donated *)
          BP.read pool p2 (fun _ ->
              checkb "rebalance donated a frame" true ((BP.stats pool).BP.rebalances > 0);
              BP.read pool p3 (fun _ ->
                  (* all four frames of the pool are now pinned *)
                  checkb "exhausted only when every frame is pinned" true
                    (try
                       BP.read pool outside (fun _ -> ());
                       false
                     with BP.Pool_exhausted -> true)))));
  (* the pool recovers once the pins are released *)
  Array.iter (fun p -> BP.read pool p (fun _ -> ())) pages

(* --- heap ------------------------------------------------------------ *)

let test_heap_basic () =
  let _, pool = mk_pool () in
  let h = H.create pool in
  let tids = List.init 100 (fun i -> H.insert h (Printf.sprintf "record-%03d" i)) in
  List.iteri
    (fun i tid -> Alcotest.(check string) "read" (Printf.sprintf "record-%03d" i) (H.read_exn h tid))
    tids;
  checki "count" 100 (H.count h);
  H.delete h (List.nth tids 50);
  checki "count after delete" 99 (H.count h);
  checkb "deleted gone" true (H.read h (List.nth tids 50) = None)

let test_heap_forwarding () =
  let _, pool = mk_pool ~page_size:512 () in
  let h = H.create pool in
  (* fill a page with small records *)
  let tids = List.init 10 (fun i -> H.insert h (Printf.sprintf "r%d" i)) in
  let victim = List.nth tids 0 in
  (* grow it beyond its page: must spill but keep the TID valid *)
  let big = String.make 300 'z' in
  H.update h victim big;
  Alcotest.(check string) "forwarded read" big (H.read_exn h victim);
  (* grow again (re-spill path) *)
  let bigger = String.make 400 'w' in
  H.update h victim bigger;
  Alcotest.(check string) "re-forwarded read" bigger (H.read_exn h victim);
  (* shrink it: updates spilled copy in place *)
  H.update h victim "tiny";
  Alcotest.(check string) "shrunk read" "tiny" (H.read_exn h victim);
  (* iteration sees each logical record exactly once *)
  let seen = H.fold h (fun acc tid _ -> tid :: acc) [] in
  checki "iteration count" 10 (List.length seen);
  checkb "victim listed under home tid" true (List.exists (Tid.equal victim) seen)

let test_heap_chunked_records () =
  let _, pool = mk_pool ~page_size:256 () in
  let h = H.create pool in
  (* records far larger than a page *)
  let big1 = String.init 3000 (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
  let big2 = String.make 5000 'q' in
  let t1 = H.insert h big1 in
  let small = H.insert h "small" in
  let t2 = H.insert h big2 in
  Alcotest.(check string) "big1" big1 (H.read_exn h t1);
  Alcotest.(check string) "big2" big2 (H.read_exn h t2);
  Alcotest.(check string) "small" "small" (H.read_exn h small);
  (* iteration sees each logical record once *)
  checki "3 records" 3 (H.count h);
  (* update big -> small -> big *)
  H.update h t1 "now-small";
  Alcotest.(check string) "shrunk" "now-small" (H.read_exn h t1);
  H.update h t1 (String.make 4000 'z');
  Alcotest.(check string) "regrown" (String.make 4000 'z') (H.read_exn h t1);
  checki "still 3" 3 (H.count h);
  (* delete frees the whole chain; a new big record can be stored *)
  H.delete h t2;
  checki "2 left" 2 (H.count h);
  let t3 = H.insert h big2 in
  Alcotest.(check string) "reinserted" big2 (H.read_exn h t3)

let test_relocate_after_spill () =
  (* forward pointers inside objects are local addresses: they must
     survive relocation (regression test) *)
  with_store ~layout:MD.SS3 ~page_size:512 (fun store ->
      let schema = Schema.relation "T" [ Schema.int_ "ID"; Schema.set_ "XS" [ Schema.int_ "X" ] ] in
      let tid = OS.insert store schema [ Value.int_ 1; Value.set [] ] in
      (* force the subtable MD to spill via repeated appends *)
      for i = 1 to 80 do
        OS.append_element store schema tid [ OS.Attr "XS" ] [ Value.int_ i ]
      done;
      let before = OS.fetch store schema tid in
      OS.relocate store tid;
      let after = OS.fetch store schema tid in
      checkb "object survives relocation after spill" true (Value.equal_tuple before after);
      (* and further mutation still works *)
      OS.append_element store schema tid [ OS.Attr "XS" ] [ Value.int_ 81 ];
      match OS.fetch_path store schema tid [ OS.Attr "XS" ] with
      | Value.Table t -> checki "81 elements" 81 (List.length t.Value.tuples)
      | _ -> Alcotest.fail "XS")

(* --- page lists ------------------------------------------------------- *)

let test_page_list_gaps () =
  let pl = PL.create () in
  let p0 = PL.add pl 100 in
  let p1 = PL.add pl 101 in
  let p2 = PL.add pl 102 in
  checki "positions" 0 p0;
  checki "positions" 1 p1;
  checki "positions" 2 p2;
  PL.remove pl ~lpage:1;
  checki "gap count" 1 (PL.gaps pl);
  (* position 2 still resolves - stability under removal *)
  checki "resolve" 102 (PL.resolve pl 2);
  (* gap reused *)
  let p1' = PL.add pl 105 in
  checki "gap reused" 1 p1';
  checki "resolve reused" 105 (PL.resolve pl 1);
  (* codec *)
  let b = Codec.create_sink () in
  PL.encode b pl;
  let pl' = PL.decode (Codec.source_of_string (Codec.contents b)) in
  checki "roundtrip len" (PL.length pl) (PL.length pl');
  checki "roundtrip resolve" 102 (PL.resolve pl' 2)

let prop_page_list =
  QCheck.Test.make ~name:"page list gap invariants" ~count:300
    QCheck.(list (pair bool (int_bound 50)))
    (fun ops ->
      let pl = PL.create () in
      let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (add, v) ->
          if add then begin
            let pos = PL.add pl (1000 + v) in
            Hashtbl.replace model pos (1000 + v)
          end
          else
            match Hashtbl.fold (fun k _ acc -> k :: acc) model [] with
            | [] -> ()
            | k :: _ ->
                PL.remove pl ~lpage:k;
                Hashtbl.remove model k)
        ops;
      Hashtbl.fold (fun pos page acc -> acc && PL.resolve pl pos = page) model true)

(* --- object store ------------------------------------------------------ *)

let test_roundtrip_all_layouts () =
  List.iter
    (fun layout ->
      with_store ~layout (fun store ->
          let tids = List.map (OS.insert store P.departments) P.departments_rows in
          List.iter2
            (fun tid expected ->
              let got = OS.fetch store P.departments tid in
              checkb (MD.layout_name layout ^ " roundtrip") true (Value.equal_tuple expected got))
            tids P.departments_rows))
    layouts

let test_roundtrip_reports () =
  (* ordered AUTHORS list must preserve order *)
  List.iter
    (fun layout ->
      with_store ~layout (fun store ->
          let tids = List.map (OS.insert store P.reports) P.reports_rows in
          List.iter2
            (fun tid expected ->
              let got = OS.fetch store P.reports tid in
              checkb "reports roundtrip" true (Value.equal_tuple expected got))
            tids P.reports_rows))
    layouts

let test_roundtrip_flat () =
  (* flat tables: no MD at all conceptually; store must still work *)
  List.iter
    (fun layout ->
      with_store ~layout (fun store ->
          let tids = List.map (OS.insert store P.employees_1nf) P.employees_1nf_rows in
          List.iter2
            (fun tid expected ->
              checkb "flat roundtrip" true (Value.equal_tuple expected (OS.fetch store P.employees_1nf tid)))
            tids P.employees_1nf_rows))
    layouts

let test_md_counts_match_analysis () =
  (* MD subtuple counts must match the closed-form formulas; dept 314:
     subtables=4, complex=2 -> SS1=7, SS2=3, SS3=5 (Fig 6) *)
  let d314 = List.nth P.departments_rows 0 in
  let expected = [ (MD.SS1, 7); (MD.SS2, 3); (MD.SS3, 5) ] in
  List.iter
    (fun (layout, want) ->
      with_store ~layout (fun store ->
          let tid = OS.insert store P.departments d314 in
          let st = OS.md_stats store P.departments tid in
          checki (MD.layout_name layout ^ " md count") want st.OS.md_subtuples;
          (* the view agrees *)
          let view = OS.md_view store P.departments tid in
          checki (MD.layout_name layout ^ " view count") want (MD.count_view_md view)))
    expected

let test_md_order_property () =
  (* SS1 >= SS3 >= SS2 on every generated object *)
  let gen = Nf2_workload.Generator.departments ~params:{ Nf2_workload.Generator.default_dept_params with departments = 5 } () in
  List.iter
    (fun tup ->
      let counts =
        List.map
          (fun layout ->
            with_store ~layout (fun store ->
                let tid = OS.insert store P.departments tup in
                (OS.md_stats store P.departments tid).OS.md_subtuples))
          layouts
      in
      match counts with
      | [ ss1; ss2; ss3 ] ->
          checkb "SS1 > SS3" true (ss1 > ss3);
          checkb "SS3 > SS2" true (ss3 > ss2)
      | _ -> assert false)
    gen

let test_partial_fetch () =
  List.iter
    (fun layout ->
      with_store ~layout (fun store ->
          let d314 = List.nth P.departments_rows 0 in
          let tid = OS.insert store P.departments d314 in
          (* atomic at root *)
          (match OS.fetch_path store P.departments tid [ OS.Attr "DNO" ] with
          | Value.Atom (Atom.Int 314) -> ()
          | v -> Alcotest.failf "DNO: got %s" (Value.render_v v));
          (* whole subtable *)
          (match OS.fetch_path store P.departments tid [ OS.Attr "PROJECTS" ] with
          | Value.Table t -> checki "projects" 2 (List.length t.Value.tuples)
          | _ -> Alcotest.fail "PROJECTS");
          (* element of subtable *)
          (match OS.fetch_path store P.departments tid [ OS.Attr "PROJECTS"; OS.Elem 1 ] with
          | Value.Table { tuples = [ [ Value.Atom (Atom.Int 23); _; _ ] ]; _ } -> ()
          | v -> Alcotest.failf "elem 1: %s" (Value.render_v v));
          (* atomic deep inside *)
          (match
             OS.fetch_path store P.departments tid
               [ OS.Attr "PROJECTS"; OS.Elem 0; OS.Attr "MEMBERS"; OS.Elem 1; OS.Attr "FUNCTION" ]
           with
          | Value.Atom (Atom.Str "Consultant") -> ()
          | v -> Alcotest.failf "function: %s" (Value.render_v v))))
    layouts

let test_navigation_without_data_reads () =
  (* Locating a list element touches MD subtuples only (C7 claim):
     data subtuples are read only for the final atoms. *)
  with_store ~layout:MD.SS3 (fun store ->
      let d314 = List.nth P.departments_rows 0 in
      let tid = OS.insert store P.departments d314 in
      OS.reset_stats store;
      (match OS.fetch_path store P.departments tid [ OS.Attr "PROJECTS"; OS.Elem 1 ] with
      | Value.Table _ -> ()
      | _ -> Alcotest.fail "elem");
      let s = OS.stats store in
      (* reading element 1 must not decode element 0's members etc. *)
      checkb "few data reads" true (s.OS.data_reads <= 6);
      checkb "md reads happened" true (s.OS.md_reads >= 1))

let test_update_atoms () =
  List.iter
    (fun layout ->
      with_store ~layout (fun store ->
          let d314 = List.nth P.departments_rows 0 in
          let tid = OS.insert store P.departments d314 in
          (* give member 56019 a new function *)
          OS.update_atoms store P.departments tid
            [ OS.Attr "PROJECTS"; OS.Elem 0; OS.Attr "MEMBERS"; OS.Elem 1 ]
            [ Atom.Int 56019; Atom.Str "Manager" ];
          (match
             OS.fetch_path store P.departments tid
               [ OS.Attr "PROJECTS"; OS.Elem 0; OS.Attr "MEMBERS"; OS.Elem 1; OS.Attr "FUNCTION" ]
           with
          | Value.Atom (Atom.Str "Manager") -> ()
          | v -> Alcotest.failf "%s updated fn: %s" (MD.layout_name layout) (Value.render_v v));
          (* the rest of the object is untouched *)
          match OS.fetch_path store P.departments tid [ OS.Attr "BUDGET" ] with
          | Value.Atom (Atom.Int 320000) -> ()
          | _ -> Alcotest.fail "budget intact"))
    layouts

let test_append_and_delete_element () =
  List.iter
    (fun layout ->
      with_store ~layout (fun store ->
          let d314 = List.nth P.departments_rows 0 in
          let tid = OS.insert store P.departments d314 in
          (* add an equipment row (flat subtable) *)
          OS.append_element store P.departments tid [ OS.Attr "EQUIP" ]
            [ Value.int_ 9; Value.str "LASER" ];
          (match OS.fetch_path store P.departments tid [ OS.Attr "EQUIP" ] with
          | Value.Table t -> checki (MD.layout_name layout ^ " equip+1") 4 (List.length t.Value.tuples)
          | _ -> Alcotest.fail "equip");
          (* add a whole new project (complex element) *)
          OS.append_element store P.departments tid [ OS.Attr "PROJECTS" ]
            [ Value.int_ 99; Value.str "NEW"; Value.set [ [ Value.int_ 11111; Value.str "Staff" ] ] ];
          (match OS.fetch_path store P.departments tid [ OS.Attr "PROJECTS" ] with
          | Value.Table t -> checki "projects+1" 3 (List.length t.Value.tuples)
          | _ -> Alcotest.fail "projects");
          (* add a member inside the new project *)
          OS.append_element store P.departments tid
            [ OS.Attr "PROJECTS"; OS.Elem 2; OS.Attr "MEMBERS" ]
            [ Value.int_ 22222; Value.str "Consultant" ];
          (match
             OS.fetch_path store P.departments tid [ OS.Attr "PROJECTS"; OS.Elem 2; OS.Attr "MEMBERS" ]
           with
          | Value.Table t -> checki "members 2" 2 (List.length t.Value.tuples)
          | _ -> Alcotest.fail "members");
          (* delete project 0; remaining projects are 23 and 99 *)
          OS.delete_element store P.departments tid [ OS.Attr "PROJECTS" ] ~idx:0;
          (match OS.fetch_path store P.departments tid [ OS.Attr "PROJECTS" ] with
          | Value.Table t -> (
              checki "projects-1" 2 (List.length t.Value.tuples);
              match t.Value.tuples with
              | [ Value.Atom (Atom.Int 23) :: _; Value.Atom (Atom.Int 99) :: _ ] -> ()
              | _ -> Alcotest.fail "remaining projects")
          | _ -> Alcotest.fail "projects after delete");
          (* object still reconstructs wholesale *)
          let whole = OS.fetch store P.departments tid in
          checki "tuple arity" 5 (List.length whole)))
    layouts

let test_delete_object () =
  List.iter
    (fun layout ->
      with_store ~layout (fun store ->
          let tids = List.map (OS.insert store P.departments) P.departments_rows in
          OS.delete store P.departments (List.nth tids 1);
          checki "roots left" 2 (List.length (OS.roots store));
          (* others unaffected *)
          checkb "first intact" true
            (Value.equal_tuple (List.nth P.departments_rows 0)
               (OS.fetch store P.departments (List.nth tids 0)));
          try
            ignore (OS.fetch store P.departments (List.nth tids 1));
            Alcotest.fail "expected Store_error"
          with OS.Store_error _ -> ()))
    layouts

let test_relocate () =
  with_store ~layout:MD.SS3 (fun store ->
      let d314 = List.nth P.departments_rows 0 in
      let tid = OS.insert store P.departments d314 in
      let before = OS.fetch store P.departments tid in
      OS.relocate store tid;
      let after = OS.fetch store P.departments tid in
      checkb "relocation preserves object" true (Value.equal_tuple before after);
      (* partial paths still work (Mini-TIDs survived) *)
      match
        OS.fetch_path store P.departments tid
          [ OS.Attr "PROJECTS"; OS.Elem 0; OS.Attr "MEMBERS"; OS.Elem 0; OS.Attr "FUNCTION" ]
      with
      | Value.Atom (Atom.Str "Leader") -> ()
      | _ -> Alcotest.fail "post-relocation path")

let test_clustering_off_roundtrip () =
  with_store ~clustering:false (fun store ->
      let tids = List.map (OS.insert store P.departments) P.departments_rows in
      List.iter2
        (fun tid expected ->
          checkb "unclustered roundtrip" true (Value.equal_tuple expected (OS.fetch store P.departments tid)))
        tids P.departments_rows)

let test_hier_addresses () =
  List.iter
    (fun layout ->
      with_store ~layout (fun store ->
          let tids = List.map (OS.insert store P.departments) P.departments_rows in
          let tid314 = List.nth tids 0 in
          let fn_entries = OS.index_entries store P.departments tid314 [ "PROJECTS"; "MEMBERS"; "FUNCTION" ] in
          checki "7 FUNCTION values in dept 314" 7 (List.length fn_entries);
          let pno_entries = OS.index_entries store P.departments tid314 [ "PROJECTS"; "PNO" ] in
          checki "2 PNO values" 2 (List.length pno_entries);
          (* Fig 7b: the PNO=17 address must be a prefix of every
             FUNCTION address of members in project 17 *)
          let p17 = List.find (fun (a, _) -> Atom.equal a (Atom.Int 17)) pno_entries |> snd in
          let consultants = List.filter (fun (a, _) -> Atom.equal a (Atom.Str "Consultant")) fn_entries in
          checki "one consultant in 314" 1 (List.length consultants);
          let _, f = List.hd consultants in
          checkb "P prefix-compatible with F" true (OS.hier_prefix_compatible p17 f);
          (* project 23's address must NOT be prefix-compatible with F *)
          let p23 = List.find (fun (a, _) -> Atom.equal a (Atom.Int 23)) pno_entries |> snd in
          checkb "P23 not compatible" false (OS.hier_prefix_compatible p23 f);
          (* resolving the address reads exactly the member's data *)
          let atoms = OS.fetch_hier_atoms store f in
          checkb "resolved atoms" true (List.exists (Atom.equal (Atom.Str "Consultant")) atoms);
          (* root-level attribute: empty path, address = root only *)
          let dno_entries = OS.index_entries store P.departments tid314 [ "DNO" ] in
          (match dno_entries with
          | [ (a, h) ] ->
              checkb "dno value" true (Atom.equal a (Atom.Int 314));
              checki "no path components" 0 (List.length h.OS.path)
          | _ -> Alcotest.fail "dno entries")))
    layouts

let test_spill_inside_object () =
  (* force MD record growth past a tiny page: appends must survive via
     forwarding, Mini-TIDs stay valid *)
  with_store ~layout:MD.SS3 ~page_size:512 (fun store ->
      let schema = Schema.relation "T" [ Schema.int_ "ID"; Schema.set_ "XS" [ Schema.int_ "X" ] ] in
      let tid = OS.insert store schema [ Value.int_ 1; Value.set [] ] in
      for i = 1 to 100 do
        OS.append_element store schema tid [ OS.Attr "XS" ] [ Value.int_ i ]
      done;
      match OS.fetch_path store schema tid [ OS.Attr "XS" ] with
      | Value.Table t ->
          checki "100 elements" 100 (List.length t.Value.tuples);
          (* order of appends preserved even in a Set-kind subtable store *)
          (match List.nth t.Value.tuples 99 with
          | [ Value.Atom (Atom.Int 100) ] -> ()
          | _ -> Alcotest.fail "last element")
      | _ -> Alcotest.fail "XS")

let prop_object_roundtrip =
  (* random department-shaped objects roundtrip under every layout *)
  let gen_dept =
    QCheck.Gen.(
      let member = pair small_nat (oneofl [ "Leader"; "Staff"; "Consultant" ]) in
      let project = triple small_nat (string_size ~gen:printable (return 4)) (list_size (int_bound 5) member) in
      let equip = pair (int_range 1 9) (oneofl [ "PC"; "3278"; "PC/AT" ]) in
      map
        (fun (dno, mgr, projects, budget, equips) ->
          [
            Value.int_ dno;
            Value.int_ mgr;
            Value.set
              (List.map
                 (fun (pno, pname, members) ->
                   [
                     Value.int_ pno;
                     Value.str pname;
                     Value.set (List.map (fun (e, f) -> [ Value.int_ e; Value.str f ]) members);
                   ])
                 projects);
            Value.int_ budget;
            Value.set (List.map (fun (q, ty) -> [ Value.int_ q; Value.str ty ]) equips);
          ])
        (tup5 small_nat small_nat (list_size (int_bound 6) project) small_nat (list_size (int_bound 5) equip)))
  in
  QCheck.Test.make ~name:"object store roundtrip (random objects, all layouts)" ~count:60
    (QCheck.make ~print:Value.render_tuple gen_dept)
    (fun tup ->
      List.for_all
        (fun layout ->
          let _, pool = mk_pool () in
          let store = OS.create ~layout pool in
          let tid = OS.insert store P.departments tup in
          Value.equal_tuple tup (OS.fetch store P.departments tid))
        layouts)



(* --- record & subtuple codecs ------------------------------------------ *)

module Rec = Nf2_storage.Record
module Sub = Nf2_storage.Subtuple
module MT = Nf2_storage.Mini_tid

let test_record_envelope () =
  let roundtrip r = Rec.decode (Rec.encode r) in
  (match roundtrip (Rec.Plain "hello") with
  | Rec.Plain "hello" -> ()
  | _ -> Alcotest.fail "plain");
  (match roundtrip (Rec.Forward { Tid.page = 12345; slot = 7 }) with
  | Rec.Forward { Tid.page = 12345; slot = 7 } -> ()
  | _ -> Alcotest.fail "forward");
  (match roundtrip (Rec.Spilled "") with
  | Rec.Spilled "" -> ()
  | _ -> Alcotest.fail "spilled empty");
  (match roundtrip (Rec.Chunk { part = "xyz"; next = Some { Tid.page = 1; slot = 2 }; scan_root = true }) with
  | Rec.Chunk { part = "xyz"; next = Some { Tid.page = 1; slot = 2 }; scan_root = true } -> ()
  | _ -> Alcotest.fail "chunk");
  (* padding invariant: every encoding is at least min_size *)
  List.iter
    (fun r -> checkb "min size" true (String.length (Rec.encode r) >= Rec.min_size))
    [ Rec.Plain ""; Rec.Spilled "a"; Rec.Forward { Tid.page = 0; slot = 0 };
      Rec.Chunk { part = ""; next = None; scan_root = false } ]

let test_subtuple_codec () =
  let atoms = [ Atom.Int 314; Atom.Str "CGA"; Atom.Null; Atom.Float 1.5 ] in
  checkb "data roundtrip" true
    (List.for_all2 Atom.equal atoms (Sub.decode_data (Sub.encode_data atoms)));
  let sections =
    [
      [ Sub.D { MT.lpage = 0; slot = 1 }; Sub.C { MT.lpage = 2; slot = 3 } ];
      [];
      [ Sub.D { MT.lpage = 9; slot = 9 } ];
    ]
  in
  checkb "md roundtrip" true (Sub.decode_md (Sub.encode_md sections) = sections);
  (* root record: page list + sections *)
  let pl = PL.create () in
  ignore (PL.add pl 100);
  ignore (PL.add pl 200);
  PL.remove pl ~lpage:0;
  let payload = Sub.encode_root pl sections in
  let pl2, sections2 = Sub.decode_root payload in
  checkb "root sections" true (sections2 = sections);
  checki "root page list" 200 (PL.resolve pl2 1);
  checki "gap preserved" 1 (PL.gaps pl2)

(* --- edge cases and failure injection ---------------------------------- *)

let deep_schema =
  Schema.relation "DEEP"
    [
      Schema.int_ "ID";
      Schema.set_ "L1"
        [
          Schema.int_ "A";
          Schema.list_ "L2"
            [ Schema.int_ "B"; Schema.set_ "L3" [ Schema.int_ "C"; Schema.set_ "L4" [ Schema.str_ "D" ] ] ];
        ];
    ]

let deep_value =
  [
    Value.int_ 1;
    Value.set
      [
        [
          Value.int_ 10;
          Value.list_
            [
              [
                Value.int_ 20;
                Value.set
                  [
                    [ Value.int_ 30; Value.set [ [ Value.str "leaf-a" ]; [ Value.str "leaf-b" ] ] ];
                    [ Value.int_ 31; Value.set [] ];
                  ];
              ];
              [ Value.int_ 21; Value.set [] ];
            ];
        ];
      ];
  ]

let test_deep_nesting () =
  List.iter
    (fun layout ->
      with_store ~layout (fun store ->
          let tid = OS.insert store deep_schema deep_value in
          checkb "4-level roundtrip" true (Value.equal_tuple deep_value (OS.fetch store deep_schema tid));
          (* partial fetch at depth 4 *)
          (match
             OS.fetch_path store deep_schema tid
               [ OS.Attr "L1"; OS.Elem 0; OS.Attr "L2"; OS.Elem 0; OS.Attr "L3"; OS.Elem 0; OS.Attr "L4" ]
           with
          | Value.Table t -> checki "2 leaves" 2 (List.length t.Value.tuples)
          | _ -> Alcotest.fail "L4");
          (* append at depth 4 *)
          OS.append_element store deep_schema tid
            [ OS.Attr "L1"; OS.Elem 0; OS.Attr "L2"; OS.Elem 0; OS.Attr "L3"; OS.Elem 0; OS.Attr "L4" ]
            [ Value.str "leaf-c" ];
          match
            OS.fetch_path store deep_schema tid
              [ OS.Attr "L1"; OS.Elem 0; OS.Attr "L2"; OS.Elem 0; OS.Attr "L3"; OS.Elem 0; OS.Attr "L4" ]
          with
          | Value.Table t -> checki "3 leaves" 3 (List.length t.Value.tuples)
          | _ -> Alcotest.fail "L4 after append"))
    layouts

let test_empty_subtables () =
  List.iter
    (fun layout ->
      with_store ~layout (fun store ->
          let tup = [ Value.int_ 1; Value.set []; Value.int_ 2; Value.set [] ] in
          let schema =
            Schema.relation "E"
              [ Schema.int_ "A"; Schema.set_ "XS" [ Schema.int_ "X" ]; Schema.int_ "B"; Schema.set_ "YS" [ Schema.int_ "Y" ] ]
          in
          let tid = OS.insert store schema tup in
          checkb (MD.layout_name layout ^ " empty subtables") true
            (Value.equal_tuple tup (OS.fetch store schema tid));
          (* index walk over empty subtables yields nothing *)
          checki "no entries" 0 (List.length (OS.index_entries store schema tid [ "XS"; "X" ]))))
    layouts

let test_update_atoms_validation () =
  with_store (fun store ->
      let tid = OS.insert store P.departments (List.nth P.departments_rows 0) in
      (* wrong arity *)
      (try
         OS.update_atoms store P.departments tid [] [ Atom.Int 314 ];
         Alcotest.fail "arity"
       with OS.Store_error _ -> ());
      (* wrong type *)
      (try
         OS.update_atoms store P.departments tid [] [ Atom.Int 314; Atom.Str "x"; Atom.Int 1 ];
         Alcotest.fail "type"
       with OS.Store_error _ -> ());
      (* NULL conforms *)
      OS.update_atoms store P.departments tid [] [ Atom.Int 314; Atom.Null; Atom.Int 1 ];
      match OS.fetch_path store P.departments tid [ OS.Attr "MGRNO" ] with
      | Value.Atom Atom.Null -> ()
      | _ -> Alcotest.fail "null stored")

let test_oversized_subtuples_chunked () =
  (* subtuples larger than a page span pages via chunk chains *)
  with_store ~page_size:256 (fun store ->
      let schema = Schema.relation "BIG" [ Schema.int_ "ID"; Schema.str_ "S" ] in
      let big = String.make 4000 'x' in
      let tid = OS.insert store schema [ Value.int_ 1; Value.str big ] in
      (match OS.fetch_path store schema tid [ OS.Attr "S" ] with
      | Value.Atom (Atom.Str s) -> checkb "chunked roundtrip" true (s = big)
      | _ -> Alcotest.fail "S");
      (* growing an existing record past a page spills into a chain *)
      let bigger = String.make 9000 'y' in
      OS.update_atoms store schema tid [] [ Atom.Int 1; Atom.Str bigger ];
      (match OS.fetch_path store schema tid [ OS.Attr "S" ] with
      | Value.Atom (Atom.Str s) -> checkb "grown chunked" true (s = bigger)
      | _ -> Alcotest.fail "S grown");
      (* and shrinking back works too *)
      OS.update_atoms store schema tid [] [ Atom.Int 1; Atom.Str "tiny" ];
      match OS.fetch_path store schema tid [ OS.Attr "S" ] with
      | Value.Atom (Atom.Str "tiny") -> ()
      | _ -> Alcotest.fail "S shrunk")

let test_huge_subtable_md () =
  (* a subtable with thousands of elements: its MD subtuple holds
     thousands of pointers and must span pages (Section 4.1) *)
  List.iter
    (fun layout ->
      with_store ~layout ~page_size:1024 (fun store ->
          let schema = Schema.relation "H" [ Schema.int_ "ID"; Schema.set_ "XS" [ Schema.int_ "X" ] ] in
          let n = 3000 in
          let tup = [ Value.int_ 7; Value.set (List.init n (fun i -> [ Value.int_ i ])) ] in
          let tid = OS.insert store schema tup in
          checkb (MD.layout_name layout ^ " huge roundtrip") true
            (Value.equal_tuple tup (OS.fetch store schema tid));
          (* element access still works through the chunked MD *)
          match OS.fetch_path store schema tid [ OS.Attr "XS"; OS.Elem 2999 ] with
          | Value.Table { tuples = [ [ Value.Atom (Atom.Int 2999) ] ]; _ } -> ()
          | _ -> Alcotest.fail "last element"))
    layouts

let test_relocate_requires_clustering () =
  with_store ~clustering:false (fun store ->
      let tid = OS.insert store P.departments (List.nth P.departments_rows 0) in
      try
        OS.relocate store tid;
        Alcotest.fail "expected Store_error"
      with OS.Store_error _ -> ())

let test_page_reuse_after_object_delete () =
  with_store (fun store ->
      let tids = List.map (OS.insert store P.departments) P.departments_rows in
      let disk_pages_before =
        List.fold_left (fun acc tid -> acc + (OS.md_stats store P.departments tid).OS.pages) 0 tids
      in
      ignore disk_pages_before;
      OS.delete store P.departments (List.nth tids 0);
      (* a new object can reuse the freed pages: page count stays flat *)
      let tid' = OS.insert store P.departments (List.nth P.departments_rows 0) in
      checkb "reinserted" true
        (Value.equal_tuple (List.nth P.departments_rows 0) (OS.fetch store P.departments tid')))

let test_mixed_tables_one_store () =
  (* one store holding objects of different schemas (the Db uses one
     store per table, but nothing in the engine requires it) *)
  with_store (fun store ->
      let t1 = OS.insert store P.departments (List.nth P.departments_rows 0) in
      let t2 = OS.insert store P.reports (List.nth P.reports_rows 0) in
      checkb "dept" true (Value.equal_tuple (List.nth P.departments_rows 0) (OS.fetch store P.departments t1));
      checkb "report" true (Value.equal_tuple (List.nth P.reports_rows 0) (OS.fetch store P.reports t2)))


let test_checkout_checkin () =
  (* ship department 314 to a "workstation" store and back *)
  let _, pool1 = mk_pool () in
  let office = OS.create pool1 in
  let root = OS.insert office P.departments (List.nth P.departments_rows 0) in
  (* make the object non-trivial first: a spilled MD via appends *)
  for i = 1 to 10 do
    OS.append_element office P.departments root [ OS.Attr "EQUIP" ] [ Value.int_ i; Value.str "EXTRA" ]
  done;
  let shipped = OS.checkout office root in
  let _, pool2 = mk_pool () in
  let workstation = OS.create pool2 in
  let wroot = OS.checkin workstation shipped in
  (* identical content on the workstation *)
  checkb "checked-in object identical" true
    (Value.equal_tuple (OS.fetch office P.departments root) (OS.fetch workstation P.departments wroot));
  (* partial paths (Mini-TIDs) survive the transfer *)
  (match
     OS.fetch_path workstation P.departments wroot
       [ OS.Attr "PROJECTS"; OS.Elem 0; OS.Attr "MEMBERS"; OS.Elem 1; OS.Attr "FUNCTION" ]
   with
  | Value.Atom (Atom.Str "Consultant") -> ()
  | _ -> Alcotest.fail "path after checkin");
  (* the workstation copy is independently mutable *)
  OS.update_atoms workstation P.departments wroot [] [ Atom.Int 314; Atom.Int 99999; Atom.Int 1 ];
  (match OS.fetch_path office P.departments root [ OS.Attr "MGRNO" ] with
  | Value.Atom (Atom.Int 56194) -> ()
  | _ -> Alcotest.fail "office copy unchanged");
  (* round-trip back into the office store as a new object *)
  let back = OS.checkin office (OS.checkout workstation wroot) in
  checkb "returned copy carries the edit" true
    (match OS.fetch_path office P.departments back [ OS.Attr "MGRNO" ] with
    | Value.Atom (Atom.Int 99999) -> true
    | _ -> false);
  (* page-size mismatch rejected *)
  let _, pool3 = mk_pool ~page_size:1024 () in
  let other = OS.create pool3 in
  try
    ignore (OS.checkin other shipped);
    Alcotest.fail "expected Store_error"
  with OS.Store_error _ -> ()


let test_fig7a_addresses_insufficient () =
  (* Fig 7a: MD-pointer addresses cannot distinguish subobjects — the
     PNO=17 address and a project-23 member's FUNCTION address share
     their P2/F2 component (both point at the PROJECTS subtable MD),
     even though consultant and project differ.  Fig 7b addresses
     discriminate correctly. *)
  with_store ~layout:MD.SS3 (fun store ->
      let root = OS.insert store P.departments (List.nth P.departments_rows 0) in
      let pno_a = OS.index_entries_fig7a store P.departments root [ "PROJECTS"; "PNO" ] in
      let fn_a = OS.index_entries_fig7a store P.departments root [ "PROJECTS"; "MEMBERS"; "FUNCTION" ] in
      let p17 = List.find (fun (a, _) -> Atom.equal a (Atom.Int 17)) pno_a |> snd in
      (* a member of project 23 *)
      let staff23 = List.find (fun (a, _) -> Atom.equal a (Atom.Str "Staff")) fn_a |> snd in
      (* 7a: first components (PROJECTS subtable MD) are EQUAL although
         the member is in a different project *)
      checkb "7a P2 = F2 across different projects" true
        (List.nth p17.OS.path 0 = List.nth staff23.OS.path 0);
      (* 7b addresses for the same pair are NOT prefix-compatible *)
      let pno_b = OS.index_entries store P.departments root [ "PROJECTS"; "PNO" ] in
      let fn_b = OS.index_entries store P.departments root [ "PROJECTS"; "MEMBERS"; "FUNCTION" ] in
      let p17b = List.find (fun (a, _) -> Atom.equal a (Atom.Int 17)) pno_b |> snd in
      let staff23b = List.find (fun (a, _) -> Atom.equal a (Atom.Str "Staff")) fn_b |> snd in
      checkb "7b discriminates" false (OS.hier_prefix_compatible p17b staff23b);
      (* other layouts refuse 7a addresses *)
      let _, pool = mk_pool () in
      let ss2 = OS.create ~layout:MD.SS2 pool in
      let r2 = OS.insert ss2 P.departments (List.nth P.departments_rows 0) in
      try
        ignore (OS.index_entries_fig7a ss2 P.departments r2 [ "PROJECTS"; "PNO" ]);
        Alcotest.fail "expected Store_error"
      with OS.Store_error _ -> ())

let prop_checkout_roundtrip =
  (* random objects survive checkout/checkin into a fresh store *)
  let gen =
    QCheck.Gen.(
      map
        (fun (a, xs) ->
          [
            Value.int_ a;
            Value.set
              (List.map
                 (fun (x, ys) -> [ Value.int_ x; Value.set (List.map (fun y -> [ Value.int_ y ]) ys) ])
                 xs);
          ])
        (pair small_nat (list_size (int_bound 5) (pair small_nat (list_size (int_bound 5) small_nat)))))
  in
  let schema =
    Schema.relation "R" [ Schema.int_ "A"; Schema.set_ "XS" [ Schema.int_ "X"; Schema.set_ "YS" [ Schema.int_ "Y" ] ] ]
  in
  QCheck.Test.make ~name:"checkout/checkin roundtrip (random)" ~count:60
    (QCheck.make ~print:Value.render_tuple gen)
    (fun tup ->
      let _, pool1 = mk_pool () in
      let src = OS.create pool1 in
      let root = OS.insert src schema tup in
      let _, pool2 = mk_pool () in
      let dst = OS.create pool2 in
      let root' = OS.checkin dst (OS.checkout src root) in
      Value.equal_tuple tup (OS.fetch dst schema root'))


(* Model-based testing: a random sequence of partial mutations applied
   both to the object store (all three layouts) and to a pure in-memory
   value model must agree at every step. *)

type model_op =
  | M_append_x of int (* append (x, {}) to XS *)
  | M_append_y of int * int (* append y to XS[i].YS *)
  | M_delete_x of int (* delete XS[i] *)
  | M_delete_y of int * int (* delete XS[i].YS[j] *)
  | M_update_x of int * int (* set XS[i].X *)

let model_schema =
  Schema.relation "M"
    [ Schema.int_ "ID"; Schema.set_ "XS" [ Schema.int_ "X"; Schema.set_ "YS" [ Schema.int_ "Y" ] ] ]

let model_apply (tup : Value.tuple) (op : model_op) : Value.tuple =
  let xs = match List.nth tup 1 with Value.Table t -> t.Value.tuples | _ -> [] in
  let set_xs xs' = [ List.nth tup 0; Value.set xs' ] in
  match op with
  | M_append_x x -> set_xs (xs @ [ [ Value.int_ x; Value.set [] ] ])
  | M_append_y (i, y) ->
      set_xs
        (List.mapi
           (fun j e ->
             if j = i mod max 1 (List.length xs) && xs <> [] then
               match e with
               | [ xv; Value.Table ys ] -> [ xv; Value.Table { ys with Value.tuples = ys.Value.tuples @ [ [ Value.int_ y ] ] } ]
               | e -> e
             else e)
           xs)
  | M_delete_x i -> if xs = [] then set_xs xs else set_xs (List.filteri (fun j _ -> j <> i mod List.length xs) xs)
  | M_delete_y (i, j) ->
      set_xs
        (List.mapi
           (fun k e ->
             if xs <> [] && k = i mod List.length xs then
               match e with
               | [ xv; Value.Table ys ] when ys.Value.tuples <> [] ->
                   [ xv; Value.Table { ys with Value.tuples = List.filteri (fun l _ -> l <> j mod List.length ys.Value.tuples) ys.Value.tuples } ]
               | e -> e
             else e)
           xs)
  | M_update_x (i, x) ->
      set_xs
        (List.mapi
           (fun j e ->
             if xs <> [] && j = i mod List.length xs then
               match e with [ _; ys ] -> [ Value.int_ x; ys ] | e -> e
             else e)
           xs)

let store_apply store tid (tup_before : Value.tuple) (op : model_op) =
  let xs = match List.nth tup_before 1 with Value.Table t -> t.Value.tuples | _ -> [] in
  let nxs = List.length xs in
  match op with
  | M_append_x x -> OS.append_element store model_schema tid [ OS.Attr "XS" ] [ Value.int_ x; Value.set [] ]
  | M_append_y (i, y) ->
      if nxs > 0 then
        OS.append_element store model_schema tid [ OS.Attr "XS"; OS.Elem (i mod nxs); OS.Attr "YS" ] [ Value.int_ y ]
  | M_delete_x i -> if nxs > 0 then OS.delete_element store model_schema tid [ OS.Attr "XS" ] ~idx:(i mod nxs)
  | M_delete_y (i, j) ->
      if nxs > 0 then begin
        let i = i mod nxs in
        let nys =
          match List.nth (List.nth xs i) 1 with Value.Table t -> List.length t.Value.tuples | _ -> 0
        in
        if nys > 0 then
          OS.delete_element store model_schema tid [ OS.Attr "XS"; OS.Elem i; OS.Attr "YS" ] ~idx:(j mod nys)
      end
  | M_update_x (i, x) ->
      if nxs > 0 then OS.update_atoms store model_schema tid [ OS.Attr "XS"; OS.Elem (i mod nxs) ] [ Atom.Int x ]

let gen_model_op =
  QCheck.Gen.(
    oneof
      [
        map (fun x -> M_append_x x) small_nat;
        map2 (fun i y -> M_append_y (i, y)) small_nat small_nat;
        map (fun i -> M_delete_x i) small_nat;
        map2 (fun i j -> M_delete_y (i, j)) small_nat small_nat;
        map2 (fun i x -> M_update_x (i, x)) small_nat small_nat;
      ])

let prop_store_vs_model =
  QCheck.Test.make ~name:"object store vs value model (random mutations, all layouts)" ~count:40
    (QCheck.make
       ~print:(fun ops -> string_of_int (List.length ops))
       QCheck.Gen.(list_size (int_bound 25) gen_model_op))
    (fun ops ->
      List.for_all
        (fun layout ->
          let _, pool = mk_pool () in
          let store = OS.create ~layout pool in
          let init = [ Value.int_ 1; Value.set [] ] in
          let tid = OS.insert store model_schema init in
          let model = ref init in
          List.for_all
            (fun op ->
              store_apply store tid !model op;
              model := model_apply !model op;
              Value.equal_tuple !model (OS.fetch store model_schema tid))
            ops)
        layouts)

(* --- byte-identical pages ------------------------------------------- *)

(* Seeded mutation streams whose final disk images (and the object
   store's subtuple counters) are pinned by digest: a change to any
   placement or envelope decision of the record layer shows up as a
   different digest.  The expected values were taken from the record
   layer as it stood before heap files and objects shared one record
   protocol; saved images and logs depend on these bytes. *)

let image_digest disk pool =
  BP.flush_all pool;
  let b = Buffer.create 65536 in
  Array.iter (Buffer.add_bytes b) (D.export_pages disk);
  Digest.to_hex (Digest.string (Buffer.contents b))

let stream_payload rng =
  let len =
    match Random.State.int rng 10 with
    | 0 | 1 -> 200 + Random.State.int rng 300 (* about a page *)
    | 2 -> 600 + Random.State.int rng 2000 (* chunk chain *)
    | _ -> 1 + Random.State.int rng 60
  in
  String.init len (fun _ -> Char.chr (97 + Random.State.int rng 26))

(* A heap at 512-byte pages: inserts, growing and shrinking updates
   (forwards, re-spills, chunked spills), deletes and reads. *)
let heap_stream_digest seed =
  let disk, pool = mk_pool ~page_size:512 ~frames:16 () in
  let h = H.create pool in
  let rng = Random.State.make [| seed |] in
  let live = Hashtbl.create 64 in
  let pick () =
    let tids = List.sort Tid.compare (Hashtbl.fold (fun tid _ acc -> tid :: acc) live []) in
    List.nth tids (Random.State.int rng (List.length tids))
  in
  for _ = 1 to 400 do
    match Random.State.int rng 10 with
    | (0 | 1 | 2 | 3) as _ins ->
        let p = stream_payload rng in
        Hashtbl.replace live (H.insert h p) p
    | _ when Hashtbl.length live = 0 -> ()
    | 4 | 5 | 6 ->
        let tid = pick () and p = stream_payload rng in
        H.update h tid p;
        Hashtbl.replace live tid p
    | 7 | 8 ->
        let tid = pick () in
        H.delete h tid;
        Hashtbl.remove live tid
    | _ ->
        let tid = pick () in
        if H.read_exn h tid <> Hashtbl.find live tid then Alcotest.failf "heap stream read at %s" (Tid.to_string tid)
  done;
  checki "heap stream count" (Hashtbl.length live) (H.count h);
  image_digest disk pool

let stream_schema =
  Schema.relation "G"
    [
      Schema.int_ "ID";
      Schema.str_ "NAME";
      Schema.set_ "XS" [ Schema.int_ "X"; Schema.str_ "S"; Schema.set_ "YS" [ Schema.int_ "Y" ] ];
      Schema.list_ "ZS" [ Schema.str_ "Z" ];
    ]

let stream_name rng =
  String.make (if Random.State.int rng 4 = 0 then 150 + Random.State.int rng 250 else 1 + Random.State.int rng 20) 'n'

let stream_x rng =
  [
    Value.int_ (Random.State.int rng 1000);
    Value.str (stream_name rng);
    Value.set (List.init (Random.State.int rng 4) (fun i -> [ Value.int_ i ]));
  ]

let stream_object rng id =
  [
    Value.int_ id;
    Value.str (stream_name rng);
    Value.set (List.init (Random.State.int rng 5) (fun _ -> stream_x rng));
    Value.list_ (List.init (Random.State.int rng 3) (fun i -> [ Value.str (string_of_int i) ]));
  ]

(* The object store at 512-byte pages: inserts, growing atom updates
   (spills), element appends (chunked MD subtuples), element and
   object deletes (page reuse), relocation and check-out/check-in. *)
let object_stream_digest ~layout ~clustering seed =
  let disk, pool = mk_pool ~page_size:512 ~frames:16 () in
  let store = OS.create ~layout ~clustering pool in
  let rng = Random.State.make [| seed |] in
  let roots = ref [] in
  let pick () = List.nth !roots (Random.State.int rng (List.length !roots)) in
  let xs_len root =
    match OS.fetch_path store stream_schema root [ OS.Attr "XS" ] with
    | Value.Table t -> List.length t.Value.tuples
    | _ -> Alcotest.fail "XS"
  in
  for step = 1 to 150 do
    match Random.State.int rng 12 with
    | 0 | 1 -> roots := !roots @ [ OS.insert store stream_schema (stream_object rng step) ]
    | _ when !roots = [] -> ()
    | 2 ->
        OS.update_atoms store stream_schema (pick ()) [] [ Atom.Int step; Atom.Str (stream_name rng) ]
    | 3 ->
        let root = pick () in
        let n = xs_len root in
        if n > 0 then
          OS.update_atoms store stream_schema root
            [ OS.Attr "XS"; OS.Elem (Random.State.int rng n) ]
            [ Atom.Int step; Atom.Str (stream_name rng) ]
    | 4 -> OS.append_element store stream_schema (pick ()) [ OS.Attr "XS" ] (stream_x rng)
    | 5 ->
        let root = pick () in
        let n = xs_len root in
        let path, elem =
          if n > 0 && Random.State.bool rng then
            ([ OS.Attr "XS"; OS.Elem (Random.State.int rng n); OS.Attr "YS" ], fun i -> [ Value.int_ i ])
          else ([ OS.Attr "ZS" ], fun i -> [ Value.str (string_of_int i) ])
        in
        for i = 1 to 200 do
          OS.append_element store stream_schema root path (elem i)
        done
    | 6 ->
        let root = pick () in
        let n = xs_len root in
        if n > 0 then OS.delete_element store stream_schema root [ OS.Attr "XS" ] ~idx:(Random.State.int rng n)
    | 7 ->
        let root = pick () in
        let n = xs_len root in
        if n > 0 then
          OS.append_element store stream_schema root
            [ OS.Attr "XS"; OS.Elem (Random.State.int rng n); OS.Attr "YS" ]
            [ Value.int_ step ]
    | 8 ->
        let root = pick () in
        OS.delete store stream_schema root;
        roots := List.filter (fun r -> not (Tid.equal r root)) !roots
    | 9 -> if clustering then OS.relocate store (pick ())
    | 10 ->
        if clustering then begin
          let root = pick () in
          let copy = OS.checkin store (OS.checkout store root) in
          OS.delete store stream_schema root;
          roots := List.filter (fun r -> not (Tid.equal r root)) !roots @ [ copy ]
        end
    | _ -> ignore (OS.fetch store stream_schema (pick ()))
  done;
  List.iter (fun root -> ignore (OS.fetch store stream_schema root)) !roots;
  let s = OS.stats store in
  Printf.sprintf "%s w=%d md=%d data=%d" (image_digest disk pool) s.OS.subtuple_writes s.OS.md_reads
    s.OS.data_reads

let test_pages_byte_identical () =
  let streams = [ (MD.SS1, true); (MD.SS1, false); (MD.SS2, true); (MD.SS2, false); (MD.SS3, true); (MD.SS3, false) ] in
  Alcotest.(check (list string))
    "heap, then the object store per layout and clustering"
    [
      "3216ff1642f23dd17a60b10cda5719c8";
      "9b04496706ba7b7c0f66cccaf8e1e92b w=6759 md=8059 data=3097";
      "7e661f77820bb29e84e5cfb1ce64351d w=6504 md=8987 data=3919";
      "7916db3efb227635f955fd2127ba6842 w=3294 md=6096 data=3097";
      "60f388d094681d964d402d1dc4a2c2a1 w=4410 md=6831 data=3919";
      "3d8581805d749b2251a0398a648aaee8 w=6693 md=4958 data=3097";
      "d85e5267ec1818f44a5f31da39a274ef w=6446 md=5715 data=3919";
    ]
    (heap_stream_digest 7
    :: List.map (fun (layout, clustering) -> object_stream_digest ~layout ~clustering 11) streams)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_page_model; prop_page_list; prop_object_roundtrip; prop_checkout_roundtrip; prop_store_vs_model ]

let () =
  Alcotest.run "storage"
    [
      ( "page",
        [
          Alcotest.test_case "basic" `Quick test_page_basic;
          Alcotest.test_case "full/compaction" `Quick test_page_full_and_compaction;
        ] );
      ( "buffer pool",
        [
          Alcotest.test_case "eviction" `Quick test_buffer_pool_eviction;
          Alcotest.test_case "hit counting" `Quick test_buffer_pool_hit_counting;
          Alcotest.test_case "partition reconcile" `Quick test_pool_partition_reconcile;
          Alcotest.test_case "eviction under pressure (WAL)" `Quick
            test_pool_eviction_under_pressure;
          Alcotest.test_case "rebalance / exhaustion" `Quick test_pool_rebalance_and_exhaustion;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "forwarding" `Quick test_heap_forwarding;
          Alcotest.test_case "chunked records" `Quick test_heap_chunked_records;
        ] );
      ("page list", [ Alcotest.test_case "gaps" `Quick test_page_list_gaps ]);
      ( "codecs",
        [
          Alcotest.test_case "record envelope" `Quick test_record_envelope;
          Alcotest.test_case "subtuples" `Quick test_subtuple_codec;
        ] );
      ( "object store",
        [
          Alcotest.test_case "roundtrip departments" `Quick test_roundtrip_all_layouts;
          Alcotest.test_case "roundtrip reports (lists)" `Quick test_roundtrip_reports;
          Alcotest.test_case "roundtrip flat" `Quick test_roundtrip_flat;
          Alcotest.test_case "MD counts (Fig 6)" `Quick test_md_counts_match_analysis;
          Alcotest.test_case "MD order SS1>SS3>SS2" `Quick test_md_order_property;
          Alcotest.test_case "partial fetch" `Quick test_partial_fetch;
          Alcotest.test_case "navigation w/o data reads" `Quick test_navigation_without_data_reads;
          Alcotest.test_case "update atoms" `Quick test_update_atoms;
          Alcotest.test_case "append/delete element" `Quick test_append_and_delete_element;
          Alcotest.test_case "delete object" `Quick test_delete_object;
          Alcotest.test_case "relocate (check-out)" `Quick test_relocate;
          Alcotest.test_case "relocate after spill" `Quick test_relocate_after_spill;
          Alcotest.test_case "checkout/checkin (workstation)" `Quick test_checkout_checkin;
          Alcotest.test_case "clustering off" `Quick test_clustering_off_roundtrip;
          Alcotest.test_case "hierarchical addresses (Fig 7b)" `Quick test_hier_addresses;
          Alcotest.test_case "MD-pointer addresses (Fig 7a)" `Quick test_fig7a_addresses_insufficient;
          Alcotest.test_case "spill inside object" `Quick test_spill_inside_object;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "deep nesting (4 levels)" `Quick test_deep_nesting;
          Alcotest.test_case "empty subtables" `Quick test_empty_subtables;
          Alcotest.test_case "update_atoms validation" `Quick test_update_atoms_validation;
          Alcotest.test_case "oversized subtuples (chunking)" `Quick test_oversized_subtuples_chunked;
          Alcotest.test_case "huge subtable MD (chunked)" `Quick test_huge_subtable_md;
          Alcotest.test_case "relocate needs clustering" `Quick test_relocate_requires_clustering;
          Alcotest.test_case "page reuse after delete" `Quick test_page_reuse_after_object_delete;
          Alcotest.test_case "mixed schemas in one store" `Quick test_mixed_tables_one_store;
          Alcotest.test_case "pages byte-identical (seeded streams)" `Quick test_pages_byte_identical;
        ] );
      ("properties", props);
    ]
