(* Unit + property tests for the data model: atoms, schemas, values. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module P = Nf2_workload.Paper_data

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* --- atoms --------------------------------------------------------- *)

let atom_roundtrip a =
  let b = Codec.create_sink () in
  Atom.encode b a;
  let src = Codec.source_of_string (Codec.contents b) in
  Atom.decode src

let test_atom_codec () =
  let atoms =
    [
      Atom.Int 0; Atom.Int 42; Atom.Int (-17); Atom.Int max_int; Atom.Int min_int;
      Atom.Float 3.14; Atom.Float (-0.0); Atom.Float infinity;
      Atom.Str ""; Atom.Str "hello world"; Atom.Str "quo'te";
      Atom.Bool true; Atom.Bool false; Atom.Date 5128; Atom.Null;
    ]
  in
  List.iter (fun a -> checkb "roundtrip" true (Atom.equal a (atom_roundtrip a))) atoms

let test_atom_order () =
  checkb "int lt" true (Atom.compare (Atom.Int 1) (Atom.Int 2) < 0);
  checkb "null first" true (Atom.compare Atom.Null (Atom.Int (-100)) < 0);
  checkb "str" true (Atom.compare (Atom.Str "abc") (Atom.Str "abd") < 0);
  checkb "eq" true (Atom.equal (Atom.Date 10) (Atom.Date 10))

let test_atom_keys_order_preserving () =
  let ints = [ min_int; -5; -1; 0; 1; 7; 10_000; max_int ] in
  let rec pairs = function a :: (b :: _ as rest) -> (a, b) :: pairs rest | _ -> [] in
  List.iter
    (fun (a, b) ->
      checkb "int key order" true (String.compare (Atom.to_key (Atom.Int a)) (Atom.to_key (Atom.Int b)) < 0))
    (pairs ints);
  let floats = [ neg_infinity; -3.5; -0.25; 0.0; 0.5; 2.0; 1e30 ] in
  List.iter
    (fun (a, b) ->
      checkb "float key order" true
        (String.compare (Atom.to_key (Atom.Float a)) (Atom.to_key (Atom.Float b)) < 0))
    (pairs floats)

let test_dates () =
  (match Atom.date_of_string "1984-01-15" with
  | Some (Atom.Date d) ->
      check Alcotest.string "render" "1984-01-15" (Atom.to_string (Atom.Date d));
      let y, m, day = Atom.ymd_of_days d in
      checki "y" 1984 y;
      checki "m" 1 m;
      checki "d" 15 day
  | _ -> Alcotest.fail "date parse");
  (* leap-year day *)
  (match Atom.date_of_string "2000-02-29" with
  | Some a -> checks "leap" "2000-02-29" (Atom.to_string a)
  | None -> Alcotest.fail "leap parse");
  checkb "invalid" true (Atom.date_of_string "2001-02-29" = None);
  checkb "garbage" true (Atom.date_of_string "xyz" = None);
  (* pre-epoch *)
  match Atom.date_of_string "1969-12-31" with
  | Some (Atom.Date d) -> checki "pre-epoch" (-1) d
  | _ -> Alcotest.fail "pre-epoch parse"

(* --- schemas -------------------------------------------------------- *)

let test_schema_validate () =
  checkb "flat" true (Schema.flat P.departments_1nf.Schema.table);
  checkb "nested not flat" false (Schema.flat P.departments.Schema.table);
  checki "depth" 2 (Schema.depth P.departments.Schema.table);
  checki "table attrs" 3 (Schema.count_table_attrs P.departments.Schema.table);
  (* duplicate attribute rejected *)
  (try
     ignore (Schema.relation "BAD" [ Schema.int_ "A"; Schema.str_ "a" ]);
     Alcotest.fail "expected Schema_error"
   with Schema.Schema_error _ -> ());
  (* empty table rejected *)
  try
    ignore (Schema.relation "BAD" [ Schema.set_ "X" [] ]);
    Alcotest.fail "expected Schema_error"
  with Schema.Schema_error _ -> ()

let test_schema_codec () =
  let roundtrip s =
    let b = Codec.create_sink () in
    Schema.encode b s;
    Schema.decode (Codec.source_of_string (Codec.contents b))
  in
  List.iter
    (fun s ->
      let s' = roundtrip s in
      checks "name" s.Schema.name s'.Schema.name;
      checks "structure" (Schema.to_string s) (Schema.to_string s'))
    [ P.departments; P.reports; P.employees_1nf ]

let test_schema_paths () =
  (match Schema.path_attr P.departments.Schema.table [ "PROJECTS"; "MEMBERS"; "FUNCTION" ] with
  | Schema.Atomic Atom.Tstring -> ()
  | _ -> Alcotest.fail "path type");
  (match Schema.path_attr P.departments.Schema.table [ "PROJECTS" ] with
  | Schema.Table _ -> ()
  | _ -> Alcotest.fail "projects is a table");
  (* case-insensitive *)
  (match Schema.path_attr P.departments.Schema.table [ "projects"; "pno" ] with
  | Schema.Atomic Atom.Tint -> ()
  | _ -> Alcotest.fail "case-insensitive path");
  try
    ignore (Schema.path_attr P.departments.Schema.table [ "DNO"; "X" ]);
    Alcotest.fail "expected error"
  with Schema.Schema_error _ -> ()

let test_segment_tree () =
  let r = Schema.render_segment_tree P.departments in
  checkb "root line" true (String.length r > 0);
  checkb "has members" true
    (String.split_on_char '\n' r |> List.exists (fun l -> String.trim l |> String.starts_with ~prefix:"MEMBERS"))

(* --- values --------------------------------------------------------- *)

let test_conformance () =
  checkb "table 5 conforms" true (Value.conforms P.departments P.departments_table);
  checkb "wrong arity" false
    (Value.conforms_tuple P.departments.Schema.table [ Value.int_ 1 ]);
  checkb "wrong type" false
    (Value.conforms_tuple P.departments_1nf.Schema.table [ Value.str "x"; Value.int_ 1; Value.int_ 2 ]);
  (* NULL conforms to any atomic type *)
  checkb "null ok" true
    (Value.conforms_tuple P.departments_1nf.Schema.table [ Value.null; Value.int_ 1; Value.int_ 2 ])

let test_set_equality_order_insensitive () =
  let t1 = Value.set [ [ Value.int_ 1 ]; [ Value.int_ 2 ] ] in
  let t2 = Value.set [ [ Value.int_ 2 ]; [ Value.int_ 1 ] ] in
  checkb "sets equal" true (Value.equal_v t1 t2);
  let l1 = Value.list_ [ [ Value.int_ 1 ]; [ Value.int_ 2 ] ] in
  let l2 = Value.list_ [ [ Value.int_ 2 ]; [ Value.int_ 1 ] ] in
  checkb "lists differ" false (Value.equal_v l1 l2);
  checkb "kind differs" false (Value.equal_v t1 l1)

let test_field_access () =
  let d314 = List.nth P.departments_rows 0 in
  (match Value.field P.departments.Schema.table d314 "DNO" with
  | Value.Atom (Atom.Int 314) -> ()
  | _ -> Alcotest.fail "DNO");
  match Value.field P.departments.Schema.table d314 "PROJECTS" with
  | Value.Table t -> checki "two projects" 2 (List.length t.Value.tuples)
  | _ -> Alcotest.fail "PROJECTS"

let test_atoms_on_path () =
  let d314 = List.nth P.departments_rows 0 in
  let fns =
    Value.atoms_on_path P.departments.Schema.table d314 [ "PROJECTS"; "MEMBERS"; "FUNCTION" ]
  in
  checki "7 members" 7 (List.length fns);
  checkb "has consultant" true (List.exists (Atom.equal (Atom.Str "Consultant")) fns)

let test_structure_counts () =
  let d314 = List.nth P.departments_rows 0 in
  let subtables, complex = Value.structure_counts P.departments.Schema.table d314 in
  (* dept 314: PROJECTS + EQUIP + MEMBERS(17) + MEMBERS(23) = 4 subtables,
     projects 17 and 23 = 2 complex subobjects (Fig 6 of the paper) *)
  checki "subtables" 4 subtables;
  checki "complex subobjects" 2 complex

let test_value_codec () =
  List.iter
    (fun tup ->
      let b = Codec.create_sink () in
      Value.encode_tuple b tup;
      let tup' = Value.decode_tuple (Codec.source_of_string (Codec.contents b)) in
      checkb "tuple roundtrip" true (Value.equal_tuple tup tup'))
    (P.departments_rows @ P.reports_rows @ P.employees_1nf_rows)

let test_render () =
  let d314 = List.nth P.departments_rows 0 in
  let s = Value.render_tuple d314 in
  checkb "renders braces" true (String.contains s '{');
  let boxed = Value.render_named P.departments P.departments_table in
  checkb "named header" true (String.starts_with ~prefix:"{ DEPARTMENTS }" boxed);
  let r = Value.render_named P.reports { Value.kind = Schema.Set; tuples = P.reports_rows } in
  checkb "list marker" true (String.contains r '<' || String.length r > 0)

(* --- properties ----------------------------------------------------- *)

let arb_atom =
  QCheck.make ~print:Atom.to_string
    QCheck.Gen.(
      oneof
        [
          map (fun i -> Atom.Int i) small_signed_int;
          map (fun f -> Atom.Float f) (float_bound_inclusive 1000.0);
          map (fun s -> Atom.Str s) (string_size (int_bound 12));
          map (fun b -> Atom.Bool b) bool;
          map (fun d -> Atom.Date d) (int_bound 40000);
          return Atom.Null;
        ])

let prop_atom_codec =
  QCheck.Test.make ~name:"atom codec roundtrip" ~count:500 arb_atom (fun a ->
      Atom.equal a (atom_roundtrip a))

let prop_atom_key_order =
  QCheck.Test.make ~name:"atom key order-preserving (ints)" ~count:500
    QCheck.(pair int int)
    (fun (a, b) ->
      let ka = Atom.to_key (Atom.Int a) and kb = Atom.to_key (Atom.Int b) in
      Int.compare a b = String.compare ka kb || (a = b && ka = kb))

let prop_varint =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500 QCheck.int (fun v ->
      let b = Codec.create_sink () in
      Codec.put_varint b v;
      Codec.get_varint (Codec.source_of_string (Codec.contents b)) = v)

let prop_date_roundtrip =
  QCheck.Test.make ~name:"ymd <-> days roundtrip" ~count:500
    QCheck.(triple (int_range 1900 2100) (int_range 1 12) (int_range 1 28))
    (fun (y, m, d) ->
      let days = Atom.days_of_ymd y m d in
      Atom.ymd_of_days days = (y, m, d))

(* Name equality without allocation agrees with comparing the
   uppercased strings; the second name is often a case-flipped copy of
   the first, so both outcomes are exercised. *)
let prop_same_name =
  let name = QCheck.Gen.(string_size ~gen:(char_range ' ' '~') (int_range 0 8)) in
  let flip_case s =
    QCheck.Gen.(
      map
        (fun flips ->
          String.mapi
            (fun i c ->
              if List.nth flips (i mod List.length flips) then
                if Char.uppercase_ascii c = c then Char.lowercase_ascii c else Char.uppercase_ascii c
              else c)
            s)
        (list_size (int_range 1 8) bool))
  in
  QCheck.Test.make ~name:"same_name = uppercase comparison" ~count:1000
    (QCheck.make ~print:(fun (a, b) -> a ^ " | " ^ b)
       QCheck.Gen.(name >>= fun a -> map (fun b -> (a, b)) (oneof [ name; flip_case a ])))
    (fun (a, b) -> Schema.same_name a b = (String.uppercase_ascii a = String.uppercase_ascii b))

(* Dedup returns already strictly increasing input as it is, and sorts
   everything else: either way it equals sort-uniq.  Half the lists are
   sorted first so both branches run. *)
let prop_dedup =
  let tuple = QCheck.Gen.(map (List.map (fun i -> Value.Atom (Atom.Int i))) (list_size (int_range 1 3) (int_range 0 3))) in
  QCheck.Test.make ~name:"dedup = sort-uniq" ~count:1000
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map Value.render_tuple l))
       QCheck.Gen.(
         list_size (int_range 0 12) tuple >>= fun l ->
         map (fun sorted -> if sorted then List.sort_uniq Value.compare_tuple l else l) bool))
    (fun l -> Value.dedup l = List.sort_uniq Value.compare_tuple l)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_atom_codec; prop_atom_key_order; prop_varint; prop_date_roundtrip; prop_same_name; prop_dedup ]

let () =
  Alcotest.run "model"
    [
      ( "atom",
        [
          Alcotest.test_case "codec" `Quick test_atom_codec;
          Alcotest.test_case "order" `Quick test_atom_order;
          Alcotest.test_case "keys order-preserving" `Quick test_atom_keys_order_preserving;
          Alcotest.test_case "dates" `Quick test_dates;
        ] );
      ( "schema",
        [
          Alcotest.test_case "validate" `Quick test_schema_validate;
          Alcotest.test_case "codec" `Quick test_schema_codec;
          Alcotest.test_case "paths" `Quick test_schema_paths;
          Alcotest.test_case "segment tree" `Quick test_segment_tree;
        ] );
      ( "value",
        [
          Alcotest.test_case "conformance" `Quick test_conformance;
          Alcotest.test_case "set equality" `Quick test_set_equality_order_insensitive;
          Alcotest.test_case "field access" `Quick test_field_access;
          Alcotest.test_case "atoms on path" `Quick test_atoms_on_path;
          Alcotest.test_case "structure counts" `Quick test_structure_counts;
          Alcotest.test_case "codec" `Quick test_value_codec;
          Alcotest.test_case "render" `Quick test_render;
        ] );
      ("properties", props);
    ]
