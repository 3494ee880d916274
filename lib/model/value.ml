(* Values of the extended NF2 data model.

   A tuple is a list of attribute values positionally matching its
   schema; table values carry their kind so that set-valued and
   list-valued results can be distinguished without a schema at hand.
   Sets are stored as lists too, but all set-level comparisons are
   order-insensitive. *)

type v = Atom of Atom.t | Table of table

and table = { kind : Schema.kind; tuples : tuple list }

and tuple = v list

exception Value_error of string

let value_error fmt = Fmt.kstr (fun s -> raise (Value_error s)) fmt

let set tuples = Table { kind = Set; tuples }
let list_ tuples = Table { kind = List; tuples }
let int_ v = Atom (Atom.Int v)
let str v = Atom (Atom.Str v)
let float_ v = Atom (Atom.Float v)
let bool_ v = Atom (Atom.Bool v)
let null = Atom Atom.Null

(* --- comparison ---------------------------------------------------- *)

(* Total order on values.  Set-valued attributes are compared as
   multisets by comparing their canonically sorted tuple lists, so two
   sets differing only in insertion order are equal. *)
let rec compare_v (a : v) (b : v) =
  match a, b with
  | Atom x, Atom y -> Atom.compare x y
  | Atom _, Table _ -> -1
  | Table _, Atom _ -> 1
  | Table x, Table y -> compare_table x y

and compare_table (x : table) (y : table) =
  match Stdlib.compare x.kind y.kind with
  | 0 ->
      let xs = canonical_tuples x and ys = canonical_tuples y in
      compare_tuple_lists xs ys
  | c -> c

and compare_tuple_lists xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: xs', y :: ys' -> (
      match compare_tuple x y with 0 -> compare_tuple_lists xs' ys' | c -> c)

and compare_tuple (x : tuple) (y : tuple) =
  match x, y with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | a :: x', b :: y' -> ( match compare_v a b with 0 -> compare_tuple x' y' | c -> c)

and canonical_tuples (t : table) =
  match t.kind with
  | List -> t.tuples
  | Set -> Stdlib.List.sort_uniq compare_tuple t.tuples

let equal_v a b = compare_v a b = 0
let equal_tuple a b = compare_tuple a b = 0
let equal_table a b = compare_table a b = 0

(* Set-semantic deduplication: sorted, duplicates dropped.  Input that
   is already strictly increasing (a nested loop over sorted sets often
   is) costs one linear check instead of a sort. *)
let dedup tuples =
  let rec increasing = function
    | a :: (b :: _ as rest) -> compare_tuple a b < 0 && increasing rest
    | _ -> true
  in
  if increasing tuples then tuples else Stdlib.List.sort_uniq compare_tuple tuples

(* --- schema conformance -------------------------------------------- *)

let rec conforms_attr (attr : Schema.attr) (v : v) =
  match attr, v with
  | Schema.Atomic ty, Atom a -> Atom.conforms ty a
  | Schema.Table sub, Table t -> t.kind = sub.kind && Stdlib.List.for_all (conforms_tuple sub) t.tuples
  | Schema.Atomic _, Table _ | Schema.Table _, Atom _ -> false

and conforms_tuple (tbl : Schema.table) (tup : tuple) =
  Stdlib.List.length tup = Stdlib.List.length tbl.fields
  && Stdlib.List.for_all2 (fun (f : Schema.field) v -> conforms_attr f.attr v) tbl.fields tup

let check_tuple (tbl : Schema.table) (tup : tuple) =
  if not (conforms_tuple tbl tup) then value_error "tuple does not conform to schema"

let conforms (s : Schema.t) (t : table) =
  t.kind = s.table.kind && Stdlib.List.for_all (conforms_tuple s.table) t.tuples

(* --- field access --------------------------------------------------- *)

let field (tbl : Schema.table) (tup : tuple) name =
  match Schema.find_field tbl name with
  | None -> value_error "unknown attribute %s" name
  | Some (i, _) -> (
      match Stdlib.List.nth_opt tup i with
      | Some v -> v
      | None -> value_error "tuple too short for attribute %s" name)

(* Follow a schema path inside one tuple; table steps must be the last
   component unless the value is descended per-tuple by the caller. *)
let rec project_path (tbl : Schema.table) (tup : tuple) (p : Schema.path) : v =
  match p with
  | [] -> value_error "empty path"
  | [ name ] -> field tbl tup name
  | name :: rest -> (
      let _, f = Schema.field_exn tbl name in
      match f.attr, field tbl tup name with
      | Schema.Table sub, Table inner ->
          (* collect over all tuples of the subtable *)
          let vs = Stdlib.List.map (fun t -> project_path sub t rest) inner.tuples in
          Table { kind = inner.kind; tuples = Stdlib.List.map (fun v -> [ v ]) vs }
      | _ -> value_error "path step %s is not a table" name)

(* Atoms reachable under path [p], flattened across all nesting levels.
   Used by index building and CONTAINS evaluation. *)
let rec atoms_on_path (tbl : Schema.table) (tup : tuple) (p : Schema.path) : Atom.t list =
  match p with
  | [] -> []
  | [ name ] -> (
      match field tbl tup name with
      | Atom a -> [ a ]
      | Table _ -> value_error "path ends at a table, expected atom")
  | name :: rest -> (
      let _, f = Schema.field_exn tbl name in
      match f.attr, field tbl tup name with
      | Schema.Table sub, Table inner ->
          Stdlib.List.concat_map (fun t -> atoms_on_path sub t rest) inner.tuples
      | _ -> value_error "path step %s is not a table" name)

(* --- statistics used by the storage experiments --------------------- *)

(* Counts (number of subtables, number of complex subobjects) inside one
   object, per the terminology of Section 4.1 of the paper.  The object
   itself is not counted as a complex subobject; each table-valued
   attribute *instance* is a subtable; each tuple of a non-flat subtable
   is a complex subobject. *)
let structure_counts (tbl : Schema.table) (tup : tuple) =
  let subtables = ref 0 and complex_subobjects = ref 0 in
  let rec go (tbl : Schema.table) (tup : tuple) =
    Stdlib.List.iter2
      (fun (f : Schema.field) v ->
        match f.attr, v with
        | Schema.Atomic _, _ -> ()
        | Schema.Table sub, Table inner ->
            incr subtables;
            let complex = not (Schema.flat sub) in
            Stdlib.List.iter
              (fun t ->
                if complex then incr complex_subobjects;
                go sub t)
              inner.tuples
        | Schema.Table _, Atom _ -> value_error "schema mismatch in structure_counts")
      tbl.fields tup
  in
  go tbl tup;
  (!subtables, !complex_subobjects)

(* --- rendering ------------------------------------------------------ *)

(* [add] each element, separated by ", ". *)
let add_sep add b = function
  | [] -> ()
  | x :: rest ->
      add b x;
      Stdlib.List.iter
        (fun x ->
          Buffer.add_string b ", ";
          add b x)
        rest

(* One recursive writer into one buffer: every cell is written once. *)
let rec add_v b = function
  | Atom a -> Atom.add_literal b a
  | Table t -> add_table b t

and add_table b (t : table) =
  let o, c = match t.kind with Schema.Set -> ('{', '}') | Schema.List -> ('<', '>') in
  Buffer.add_char b o;
  add_sep add_tuple b t.tuples;
  Buffer.add_char b c

and add_tuple b (tup : tuple) =
  Buffer.add_char b '(';
  add_sep add_v b tup;
  Buffer.add_char b ')'

let render_with add x =
  let b = Buffer.create 64 in
  add b x;
  Buffer.contents b

let render_table = render_with add_table
let render_tuple = render_with add_tuple

let render_v = function
  | Atom a -> Atom.to_literal a
  | Table t -> render_table t

(* Paper-style nested box rendering: every nested table becomes an
   inlined multi-line ASCII table inside its parent cell. *)
let rec render_boxed (tbl : Schema.table) (t : table) : string =
  let header = Schema.field_names tbl in
  let rows =
    Stdlib.List.map
      (fun tup ->
        Stdlib.List.map2
          (fun (f : Schema.field) v ->
            match f.attr, v with
            | Schema.Atomic _, Atom a -> Atom.to_string a
            | Schema.Table sub, Table inner -> render_boxed sub inner
            | _ -> "?")
          tbl.fields tup)
      t.tuples
  in
  (* strip trailing newline so nesting stays tight *)
  let s = Ascii_table.render ~header rows in
  if String.length s > 0 && s.[String.length s - 1] = '\n' then String.sub s 0 (String.length s - 1)
  else s

let render_named (s : Schema.t) (t : table) =
  let mark = match s.table.kind with Schema.Set -> Printf.sprintf "{ %s }" s.name | Schema.List -> Printf.sprintf "< %s >" s.name in
  mark ^ "\n" ^ render_boxed s.table t ^ "\n"

(* --- binary codec: a whole value tree (used by catalog defaults and
   the baseline stores; the NF2 object store encodes per-subtuple
   instead). *)

let rec encode_v b = function
  | Atom a ->
      Codec.put_u8 b 0;
      Atom.encode b a
  | Table t ->
      Codec.put_u8 b 1;
      Codec.put_u8 b (match t.kind with Schema.Set -> 0 | Schema.List -> 1);
      Codec.put_uvarint b (Stdlib.List.length t.tuples);
      Stdlib.List.iter (encode_tuple b) t.tuples

and encode_tuple b (tup : tuple) =
  Codec.put_uvarint b (Stdlib.List.length tup);
  Stdlib.List.iter (encode_v b) tup

let rec decode_v src : v =
  match Codec.get_u8 src with
  | 0 -> Atom (Atom.decode src)
  | 1 ->
      let kind = match Codec.get_u8 src with 0 -> Schema.Set | 1 -> Schema.List | n -> Codec.decode_error "kind %d" n in
      let n = Codec.get_uvarint src in
      Table { kind; tuples = Stdlib.List.init n (fun _ -> decode_tuple src) }
  | n -> Codec.decode_error "Value.decode_v: tag %d" n

and decode_tuple src : tuple =
  let n = Codec.get_uvarint src in
  Stdlib.List.init n (fun _ -> decode_v src)
