(* Tests for access paths: B+-tree, value indexes under the three
   addressing strategies of Section 4.2, and the word-fragment text
   index of Section 5. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module P = Nf2_workload.Paper_data
module G = Nf2_workload.Generator
module D = Nf2_storage.Disk
module BP = Nf2_storage.Buffer_pool
module OS = Nf2_storage.Object_store
module Tid = Nf2_storage.Tid
module BT = Nf2_index.Bptree
module VI = Nf2_index.Value_index
module TI = Nf2_index.Text_index

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let mk_store ?(layout = Nf2_storage.Mini_directory.SS3) () =
  let disk = D.create () in
  let pool = BP.create ~frames:256 disk in
  OS.create ~layout pool

(* --- B+-tree ------------------------------------------------------------ *)

let test_bptree_basic () =
  let t = BT.create () in
  for i = 0 to 999 do
    BT.insert t ~key:(Codec.key_of_int i) (i * 10)
  done;
  BT.check t;
  checki "entries" 1000 (BT.entry_count t);
  checkb "height grew" true (BT.height t > 1);
  Alcotest.(check (list int)) "find" [ 420 ] (BT.find t (Codec.key_of_int 42));
  Alcotest.(check (list int)) "missing" [] (BT.find t (Codec.key_of_int 5000));
  (* duplicate keys accumulate postings *)
  BT.insert t ~key:(Codec.key_of_int 42) 421;
  Alcotest.(check (list int)) "postings" [ 421; 420 ] (BT.find t (Codec.key_of_int 42))

let test_bptree_range () =
  let t = BT.create () in
  List.iter (fun i -> BT.insert t ~key:(Codec.key_of_int i) i) [ 5; 1; 9; 3; 7; 2; 8 ];
  let hits = BT.range t ~lo:(Codec.key_of_int 3) ~hi:(Codec.key_of_int 8) () in
  Alcotest.(check (list int)) "range keys in order" [ 3; 5; 7; 8 ] (List.concat_map snd hits);
  let all = BT.range t () in
  Alcotest.(check (list int)) "full scan sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (List.concat_map snd all)

let test_bptree_remove () =
  let t = BT.create () in
  for i = 0 to 99 do
    BT.insert t ~key:(Codec.key_of_int (i mod 10)) i
  done;
  checki "10 keys" 10 (BT.entry_count t);
  (* remove all postings of key 3 *)
  BT.remove t ~key:(Codec.key_of_int 3) (fun _ -> true);
  checki "9 keys" 9 (BT.entry_count t);
  Alcotest.(check (list int)) "gone" [] (BT.find t (Codec.key_of_int 3));
  (* selective posting removal *)
  BT.remove t ~key:(Codec.key_of_int 4) (fun v -> v >= 50);
  checkb "partial" true (List.for_all (fun v -> v < 50) (BT.find t (Codec.key_of_int 4)))

let test_bptree_prefix () =
  let t = BT.create () in
  List.iter (fun w -> BT.insert t ~key:w w) [ "comp"; "computer"; "compute"; "zebra"; "apple"; "com" ];
  let hits = BT.prefix_range t "comp" in
  Alcotest.(check (list string)) "prefix" [ "comp"; "compute"; "computer" ] (List.map fst hits)

let prop_bptree_vs_model =
  QCheck.Test.make ~name:"bptree vs assoc model" ~count:100
    QCheck.(list (pair (int_bound 100) (int_bound 3)))
    (fun ops ->
      let t = BT.create () in
      let model : (int, int list) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (k, op) ->
          if op = 0 then begin
            BT.remove t ~key:(Codec.key_of_int k) (fun _ -> true);
            Hashtbl.remove model k
          end
          else begin
            BT.insert t ~key:(Codec.key_of_int k) op;
            Hashtbl.replace model k (op :: Option.value ~default:[] (Hashtbl.find_opt model k))
          end)
        ops;
      BT.check t;
      Hashtbl.fold (fun k v acc -> acc && BT.find t (Codec.key_of_int k) = v) model true)

(* A frozen handle keeps answering for the tree it froze: apply random
   inserts and removes to the live handle afterwards, and everything
   the frozen one reports stays as it was, while both stay well-formed
   and the live one follows the model. *)
let prop_bptree_freeze =
  let ops = QCheck.(list_of_size Gen.(0 -- 600) (pair (int_bound 300) (int_bound 3))) in
  QCheck.Test.make ~name:"bptree frozen handle is unchanged by later updates" ~count:100
    (QCheck.pair ops ops)
    (fun (before, after) ->
      let t = BT.create () in
      let model : (int, int list) Hashtbl.t = Hashtbl.create 64 in
      let apply (k, op) =
        let key = Codec.key_of_int k in
        if op = 0 then begin
          BT.remove t ~key (fun v -> v mod 2 = 0);
          match List.filter (fun v -> v mod 2 <> 0) (Option.value ~default:[] (Hashtbl.find_opt model k)) with
          | [] -> Hashtbl.remove model k
          | vs -> Hashtbl.replace model k vs
        end
        else begin
          let v = (k * 4) + op in
          BT.insert t ~key v;
          Hashtbl.replace model k (v :: Option.value ~default:[] (Hashtbl.find_opt model k))
        end
      in
      List.iter apply before;
      let frozen = BT.freeze t in
      let observe b =
        ( List.init 302 (fun k -> BT.find b (Codec.key_of_int k)),
          BT.range b ~lo:(Codec.key_of_int 40) ~hi:(Codec.key_of_int 170) (),
          BT.range b (),
          BT.keys b,
          BT.entry_count b,
          BT.height b )
      in
      let seen = observe frozen in
      List.iter apply after;
      BT.check frozen;
      BT.check t;
      observe frozen = seen
      && BT.entry_count t = Hashtbl.length model
      && Hashtbl.fold (fun k v acc -> acc && BT.find t (Codec.key_of_int k) = v) model true)

(* --- value indexes ---------------------------------------------------------- *)

let strategies = [ VI.Data_tid; VI.Root_tid; VI.Hierarchical ]

let test_roots_for_all_strategies () =
  List.iter
    (fun strategy ->
      let store = mk_store () in
      let tids = List.map (OS.insert store P.departments) P.departments_rows in
      let idx = VI.create store P.departments strategy [ "PROJECTS"; "MEMBERS"; "FUNCTION" ] in
      let roots = VI.roots_for idx (Atom.Str "Consultant") in
      (* departments 314 and 218 have consultants *)
      checki (VI.strategy_name strategy ^ ": two departments") 2 (List.length roots);
      checkb "314 in" true (List.exists (Tid.equal (List.nth tids 0)) roots);
      checkb "218 in" true (List.exists (Tid.equal (List.nth tids 1)) roots);
      let none = VI.roots_for idx (Atom.Str "Janitor") in
      checki "no janitors" 0 (List.length none))
    strategies

let test_root_tid_dedup () =
  (* the Root_tid strategy must not store one posting per hit (dept 218
     has two consultants but one posting) *)
  let store = mk_store () in
  ignore (List.map (OS.insert store P.departments) P.departments_rows);
  let idx = VI.create store P.departments VI.Root_tid [ "PROJECTS"; "MEMBERS"; "FUNCTION" ] in
  checki "one posting per object" 2 (List.length (VI.lookup idx (Atom.Str "Consultant")));
  let hier = VI.create store P.departments VI.Hierarchical [ "PROJECTS"; "MEMBERS"; "FUNCTION" ] in
  checki "hier: one posting per occurrence" 3 (List.length (VI.lookup hier (Atom.Str "Consultant")))

let test_prefix_join_fig7 () =
  let store = mk_store () in
  ignore (List.map (OS.insert store P.departments) P.departments_rows);
  let pno_idx = VI.create store P.departments VI.Hierarchical [ "PROJECTS"; "PNO" ] in
  let fn_idx = VI.create store P.departments VI.Hierarchical [ "PROJECTS"; "MEMBERS"; "FUNCTION" ] in
  (* PNO=17 and FUNCTION='Consultant' in the same project: dept 314 only *)
  let roots = VI.prefix_join pno_idx (Atom.Int 17) fn_idx (Atom.Str "Consultant") in
  checki "one object" 1 (List.length roots);
  (* PNO=23 has no consultant: empty *)
  let roots = VI.prefix_join pno_idx (Atom.Int 23) fn_idx (Atom.Str "Consultant") in
  checki "no object" 0 (List.length roots);
  (* non-hierarchical indexes refuse *)
  let data_idx = VI.create store P.departments VI.Data_tid [ "PROJECTS"; "PNO" ] in
  try
    ignore (VI.prefix_join data_idx (Atom.Int 17) fn_idx (Atom.Str "Consultant"));
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_index_maintenance () =
  let store = mk_store () in
  let idx = VI.create store P.departments VI.Hierarchical [ "PROJECTS"; "MEMBERS"; "FUNCTION" ] in
  let tid = OS.insert store P.departments (List.nth P.departments_rows 0) in
  VI.insert_object idx tid;
  checki "indexed after insert" 1 (List.length (VI.roots_for idx (Atom.Str "Consultant")));
  VI.remove_object idx tid;
  OS.delete store P.departments tid;
  checki "gone after remove" 0 (List.length (VI.roots_for idx (Atom.Str "Consultant")))

let test_range_lookup () =
  let store = mk_store () in
  ignore (List.map (OS.insert store P.departments) P.departments_rows);
  let idx = VI.create store P.departments VI.Hierarchical [ "BUDGET" ] in
  let hits = VI.lookup_range idx ~lo:(Atom.Int 300_000) ~hi:(Atom.Int 400_000) in
  checki "two budgets in range" 2 (List.length hits)

let test_index_path_validation () =
  let store = mk_store () in
  try
    ignore (VI.create store P.departments VI.Hierarchical [ "PROJECTS" ]);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_index_at_scale () =
  let store = mk_store () in
  let depts = G.departments ~params:{ G.default_dept_params with G.departments = 30 } () in
  let tids = List.map (OS.insert store P.departments) depts in
  let idx = VI.create store P.departments VI.Hierarchical [ "PROJECTS"; "MEMBERS"; "FUNCTION" ] in
  (* every department generated has some Leader with prob ~1; check against a scan *)
  let expect =
    List.filter
      (fun (_, tup) ->
        List.exists (Atom.equal (Atom.Str "Leader"))
          (Value.atoms_on_path P.departments.Schema.table tup [ "PROJECTS"; "MEMBERS"; "FUNCTION" ]))
      (List.combine tids depts)
    |> List.map fst |> List.sort Tid.compare
  in
  let got = List.sort Tid.compare (VI.roots_for idx (Atom.Str "Leader")) in
  checkb "index agrees with scan" true (List.equal Tid.equal expect got)

let test_range_lookup_edges () =
  let store = mk_store () in
  ignore (List.map (OS.insert store P.departments) P.departments_rows);
  let idx = VI.create store P.departments VI.Hierarchical [ "BUDGET" ] in
  (* inclusive bounds *)
  checki "exact bounds" 3 (List.length (VI.lookup_range idx ~lo:(Atom.Int 320_000) ~hi:(Atom.Int 440_000)));
  checki "point range" 1 (List.length (VI.lookup_range idx ~lo:(Atom.Int 360_000) ~hi:(Atom.Int 360_000)));
  checki "empty range" 0 (List.length (VI.lookup_range idx ~lo:(Atom.Int 1) ~hi:(Atom.Int 2)));
  (* reversed bounds yield nothing *)
  checki "reversed" 0 (List.length (VI.lookup_range idx ~lo:(Atom.Int 999_999) ~hi:(Atom.Int 0)))

let test_root_dedup_survives_maintenance () =
  let store = mk_store () in
  let idx = VI.create store P.departments VI.Root_tid [ "PROJECTS"; "MEMBERS"; "FUNCTION" ] in
  let tid = OS.insert store P.departments (List.nth P.departments_rows 1) in
  (* dept 218 has two consultants: still one posting *)
  VI.insert_object idx tid;
  checki "one posting" 1 (List.length (VI.lookup idx (Atom.Str "Consultant")));
  VI.remove_object idx tid;
  checki "gone" 0 (List.length (VI.lookup idx (Atom.Str "Consultant")));
  (* re-add is idempotent at one posting *)
  VI.insert_object idx tid;
  VI.insert_object idx tid;
  checki "still deduped" 1 (List.length (VI.roots_for idx (Atom.Str "Consultant")))

(* --- text index ----------------------------------------------------------------- *)

let mk_reports_store () =
  let store = mk_store () in
  ignore (List.map (OS.insert store P.reports) P.reports_rows);
  store

let test_text_masked_search () =
  let store = mk_reports_store () in
  let ti = TI.create store P.reports [ "TITLE" ] in
  (* '*onsist*' hits "Consistency" in report 0179 only *)
  checki "consistency" 1 (List.length (TI.roots_matching ti "*onsist*"));
  (* '*earch' (suffix-anchored) hits "Search" *)
  checki "search" 1 (List.length (TI.roots_matching ti "*earch"));
  (* 'branch*' (prefix-anchored) *)
  checki "branch" 1 (List.length (TI.roots_matching ti "branch*"));
  (* '?ound' single-char wildcard: "Bound" *)
  checki "bound" 1 (List.length (TI.roots_matching ti "?ound"));
  (* no match *)
  checki "none" 0 (List.length (TI.roots_matching ti "*quux*"))

let test_text_index_agrees_with_scan () =
  let store = mk_store () in
  let rows = G.reports ~params:{ G.default_report_params with G.reports = 120 } () in
  let tids = List.map (OS.insert store P.reports) rows in
  let ti = TI.create store P.reports [ "TITLE" ] in
  List.iter
    (fun pat ->
      let mask = Masked.compile pat in
      let expect =
        List.filter
          (fun (_, tup) ->
            match List.nth tup 2 with
            | Value.Atom (Atom.Str title) -> Masked.matches_word mask title
            | _ -> false)
          (List.combine tids rows)
        |> List.map fst |> List.sort Tid.compare
      in
      let got = List.sort Tid.compare (TI.roots_matching ti pat) in
      checkb (Printf.sprintf "pattern %s" pat) true (List.equal Tid.equal expect got))
    [ "*comput*"; "data*"; "*tion"; "index"; "*a*e*" ]

let test_text_index_maintenance () =
  let store = mk_reports_store () in
  let ti = TI.create store P.reports [ "TITLE" ] in
  let extra =
    P.report "9999" [ "Zuse" ] "Xylophone Acoustics" [ ("Music", 1.0) ]
  in
  let tid = OS.insert store P.reports extra in
  TI.insert_object ti tid;
  checki "new word found" 1 (List.length (TI.roots_matching ti "xylo*"));
  TI.remove_object ti tid;
  checki "removed" 0 (List.length (TI.roots_matching ti "xylo*"))

(* --- masked pattern unit tests ---------------------------------------------------- *)

let test_masked () =
  let m = Masked.compile "*comput*" in
  checkb "computational" true (Masked.matches m "computational");
  checkb "minicomputer" true (Masked.matches m "minicomputer");
  checkb "computer" true (Masked.matches m "computer");
  checkb "banana" false (Masked.matches m "banana");
  checkb "case-insensitive" true (Masked.matches m "COMPUTER");
  let anchored = Masked.compile "comput*" in
  checkb "prefix ok" true (Masked.matches anchored "computer");
  checkb "prefix fail" false (Masked.matches anchored "minicomputer");
  let q = Masked.compile "c?t" in
  checkb "cat" true (Masked.matches q "cat");
  checkb "cart" false (Masked.matches q "cart");
  checkb "word in text" true (Masked.matches_word m "introduction to computer science");
  checkb "no word" false (Masked.matches_word anchored "a minicomputer only")

let props = List.map QCheck_alcotest.to_alcotest [ prop_bptree_vs_model; prop_bptree_freeze ]

let () =
  Alcotest.run "index"
    [
      ( "bptree",
        [
          Alcotest.test_case "basic" `Quick test_bptree_basic;
          Alcotest.test_case "range" `Quick test_bptree_range;
          Alcotest.test_case "remove" `Quick test_bptree_remove;
          Alcotest.test_case "prefix" `Quick test_bptree_prefix;
        ] );
      ( "value index",
        [
          Alcotest.test_case "roots_for (all strategies)" `Quick test_roots_for_all_strategies;
          Alcotest.test_case "root-tid dedup" `Quick test_root_tid_dedup;
          Alcotest.test_case "prefix join (Fig 7b)" `Quick test_prefix_join_fig7;
          Alcotest.test_case "maintenance" `Quick test_index_maintenance;
          Alcotest.test_case "range lookup" `Quick test_range_lookup;
          Alcotest.test_case "path validation" `Quick test_index_path_validation;
          Alcotest.test_case "at scale vs scan" `Quick test_index_at_scale;
          Alcotest.test_case "range edges" `Quick test_range_lookup_edges;
          Alcotest.test_case "root-tid maintenance" `Quick test_root_dedup_survives_maintenance;
        ] );
      ( "text index",
        [
          Alcotest.test_case "masked search" `Quick test_text_masked_search;
          Alcotest.test_case "agrees with scan" `Quick test_text_index_agrees_with_scan;
          Alcotest.test_case "maintenance" `Quick test_text_index_maintenance;
          Alcotest.test_case "masked patterns" `Quick test_masked;
        ] );
      ("properties", props);
    ]
