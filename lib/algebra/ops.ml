(* Operators of the (extended) NF2 algebra.

   Following /JS82, Jae85a, SS86/: the classical relational operators
   generalised to relation-valued attributes, plus NEST and UNNEST as
   the structure-changing pair, plus order-aware operators for the
   "extended" part of the model (lists). *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
open Rel

let set_tuples schema tuples = trusted schema { Value.kind = Schema.Set; tuples = Value.dedup tuples }

let keep_kind (r : Rel.t) schema tuples =
  match Rel.kind r with
  | Schema.Set -> set_tuples schema tuples
  | Schema.List -> trusted { schema with Schema.kind = Schema.List } { Value.kind = Schema.List; tuples }

(* --- selection ----------------------------------------------------- *)

let select (r : Rel.t) pred = keep_kind r r.schema (List.filter pred (Rel.tuples r))

(* --- projection ----------------------------------------------------- *)

(* Project onto named attributes (top-level); set semantics dedup. *)
let project (r : Rel.t) (names : string list) =
  if names = [] then algebra_error "project: empty attribute list";
  let picks =
    List.map
      (fun n ->
        match Schema.find_field r.schema n with
        | Some (i, f) -> (i, f)
        | None -> algebra_error "project: unknown attribute %s" n)
      names
  in
  let schema = { r.schema with Schema.fields = List.map snd picks } in
  let tuples = List.map (fun tup -> List.map (fun (i, _) -> List.nth tup i) picks) (Rel.tuples r) in
  keep_kind r schema tuples

let rename (r : Rel.t) (renames : (string * string) list) =
  let fields =
    List.map
      (fun (f : Schema.field) ->
        match List.find_opt (fun (o, _) -> String.uppercase_ascii o = String.uppercase_ascii f.name) renames with
        | Some (_, n) -> { f with Schema.name = n }
        | None -> f)
      r.schema.Schema.fields
  in
  trusted { r.schema with Schema.fields } r.data

(* --- set operations -------------------------------------------------- *)

let same_structure a b =
  (* structural compatibility: same attribute types in order (names of
     the first operand win, as usual) *)
  let rec eq_table (x : Schema.table) (y : Schema.table) =
    x.Schema.kind = y.Schema.kind
    && List.length x.Schema.fields = List.length y.Schema.fields
    && List.for_all2
         (fun (f : Schema.field) (g : Schema.field) ->
           match f.attr, g.attr with
           | Schema.Atomic t1, Schema.Atomic t2 -> t1 = t2
           | Schema.Table t1, Schema.Table t2 -> eq_table t1 t2
           | _ -> false)
         x.Schema.fields y.Schema.fields
  in
  eq_table a.schema b.schema

let check_compatible op a b =
  if not (same_structure a b) then algebra_error "%s: incompatible relation structures" op

let union a b =
  check_compatible "union" a b;
  set_tuples a.schema (Rel.tuples a @ Rel.tuples b)

let difference a b =
  check_compatible "difference" a b;
  let mem tup = List.exists (Value.equal_tuple tup) (Rel.tuples b) in
  set_tuples a.schema (List.filter (fun t -> not (mem t)) (Rel.tuples a))

let intersection a b =
  check_compatible "intersection" a b;
  let mem tup = List.exists (Value.equal_tuple tup) (Rel.tuples b) in
  set_tuples a.schema (List.filter mem (Rel.tuples a))

(* --- product and joins ------------------------------------------------ *)

let disjoint_fields (a : Schema.table) (b : Schema.table) =
  let names t = List.map (fun (f : Schema.field) -> String.uppercase_ascii f.Schema.name) t.Schema.fields in
  List.for_all (fun n -> not (List.mem n (names b))) (names a)

let product a b =
  if not (disjoint_fields a.schema b.schema) then
    algebra_error "product: attribute name clash (rename first)";
  let schema = { Schema.kind = Schema.Set; fields = a.schema.Schema.fields @ b.schema.Schema.fields } in
  let tuples =
    List.concat_map (fun ta -> List.map (fun tb -> ta @ tb) (Rel.tuples b)) (Rel.tuples a)
  in
  set_tuples schema tuples

let join a b ~on =
  if not (disjoint_fields a.schema b.schema) then
    algebra_error "join: attribute name clash (rename first)";
  let schema = { Schema.kind = Schema.Set; fields = a.schema.Schema.fields @ b.schema.Schema.fields } in
  let tuples =
    List.concat_map
      (fun ta -> List.filter_map (fun tb -> if on ta tb then Some (ta @ tb) else None) (Rel.tuples b))
      (Rel.tuples a)
  in
  set_tuples schema tuples

(* Equi-join accelerated with a hash table on the right operand. *)
let equi_join a b ~left ~right =
  if not (disjoint_fields a.schema b.schema) then
    algebra_error "equi_join: attribute name clash (rename first)";
  let li =
    match Schema.find_field a.schema left with
    | Some (i, _) -> i
    | None -> algebra_error "equi_join: unknown attribute %s" left
  in
  let ri =
    match Schema.find_field b.schema right with
    | Some (i, _) -> i
    | None -> algebra_error "equi_join: unknown attribute %s" right
  in
  let index : (string, Value.tuple list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun tb ->
      match List.nth tb ri with
      | Value.Atom a ->
          let k = Atom.to_key a in
          Hashtbl.replace index k (tb :: (Option.value ~default:[] (Hashtbl.find_opt index k)))
      | Value.Table _ -> algebra_error "equi_join: join attribute must be atomic")
    (Rel.tuples b);
  let schema = { Schema.kind = Schema.Set; fields = a.schema.Schema.fields @ b.schema.Schema.fields } in
  let tuples =
    List.concat_map
      (fun ta ->
        match List.nth ta li with
        | Value.Atom a ->
            List.map (fun tb -> ta @ tb) (Option.value ~default:[] (Hashtbl.find_opt index (Atom.to_key a)))
        | Value.Table _ -> algebra_error "equi_join: join attribute must be atomic")
      (Rel.tuples a)
  in
  set_tuples schema tuples

(* --- nest / unnest ----------------------------------------------------- *)

(* NEST: group by the complement of [attrs]; the grouped [attrs] become
   one relation-valued attribute called [as_]. *)
let nest (r : Rel.t) ~(attrs : string list) ~(as_ : string) =
  if attrs = [] then algebra_error "nest: empty attribute list";
  let idxs =
    List.map
      (fun n ->
        match Schema.find_field r.schema n with
        | Some (i, _) -> i
        | None -> algebra_error "nest: unknown attribute %s" n)
      attrs
  in
  let nested_fields = List.map (fun i -> List.nth r.schema.Schema.fields i) idxs in
  let keep_fields_i =
    List.filteri (fun i _ -> not (List.mem i idxs)) (List.mapi (fun i _ -> i) r.schema.Schema.fields)
  in
  if keep_fields_i = [] then algebra_error "nest: cannot nest every attribute";
  let keep_fields = List.map (fun i -> List.nth r.schema.Schema.fields i) keep_fields_i in
  let schema =
    {
      Schema.kind = Schema.Set;
      fields = keep_fields @ [ { Schema.name = as_; attr = Schema.Table { Schema.kind = Schema.Set; fields = nested_fields } } ];
    }
  in
  (* group in first-appearance order *)
  let groups : (Value.tuple * Value.tuple list ref) list ref = ref [] in
  List.iter
    (fun tup ->
      let key = List.map (fun i -> List.nth tup i) keep_fields_i in
      let inner = List.map (fun i -> List.nth tup i) idxs in
      match List.find_opt (fun (k, _) -> Value.equal_tuple k key) !groups with
      | Some (_, cell) -> cell := inner :: !cell
      | None -> groups := (key, ref [ inner ]) :: !groups)
    (Rel.tuples r);
  let tuples =
    List.rev_map
      (fun (key, cell) ->
        key @ [ Value.Table { Value.kind = Schema.Set; tuples = Value.dedup (List.rev !cell) } ])
      !groups
  in
  set_tuples schema tuples

(* UNNEST: flatten one relation-valued attribute; tuples whose subtable
   is empty disappear (standard unnest semantics). *)
let unnest (r : Rel.t) ~(attr : string) =
  let i, f =
    match Schema.find_field r.schema attr with
    | Some x -> x
    | None -> algebra_error "unnest: unknown attribute %s" attr
  in
  let sub =
    match f.Schema.attr with
    | Schema.Table sub -> sub
    | Schema.Atomic _ -> algebra_error "unnest: %s is atomic" attr
  in
  let outer_fields = List.filteri (fun j _ -> j <> i) r.schema.Schema.fields in
  let schema = { Schema.kind = Schema.Set; fields = outer_fields @ sub.Schema.fields } in
  let tuples =
    List.concat_map
      (fun tup ->
        let outer = List.filteri (fun j _ -> j <> i) tup in
        match List.nth tup i with
        | Value.Table inner -> List.map (fun sub_tup -> outer @ sub_tup) inner.Value.tuples
        | Value.Atom _ -> algebra_error "unnest: schema mismatch")
      (Rel.tuples r)
  in
  set_tuples schema tuples

(* Nested application: apply an algebra transformation *inside* a
   table-valued attribute of every tuple — the hallmark operator of the
   NF2 algebras (/Jae85b, SS86/ close their algebra under application
   to subrelations).  The function receives each subtable as a relation
   and must return a relation over a fixed schema. *)
let nest_apply (r : Rel.t) ~(attr : string) (f : Rel.t -> Rel.t) : Rel.t =
  let i, fd =
    match Schema.find_field r.schema attr with
    | Some x -> x
    | None -> algebra_error "nest_apply: unknown attribute %s" attr
  in
  let sub =
    match fd.Schema.attr with
    | Schema.Table sub -> sub
    | Schema.Atomic _ -> algebra_error "nest_apply: %s is atomic" attr
  in
  (* determine the output subtable schema from an empty application *)
  let out_sub = (f (Rel.trusted sub { Value.kind = sub.Schema.kind; tuples = [] })).Rel.schema in
  let schema =
    {
      r.schema with
      Schema.fields =
        List.mapi
          (fun j (g : Schema.field) ->
            if j = i then { g with Schema.attr = Schema.Table out_sub } else g)
          r.schema.Schema.fields;
    }
  in
  let tuples =
    List.map
      (fun tup ->
        List.mapi
          (fun j v ->
            if j = i then
              match v with
              | Value.Table inner ->
                  let transformed = f (Rel.trusted sub { inner with Value.kind = sub.Schema.kind }) in
                  Value.Table transformed.Rel.data
              | Value.Atom _ -> algebra_error "nest_apply: schema mismatch"
            else v)
          tup)
      (Rel.tuples r)
  in
  keep_kind r schema tuples

(* --- ordering (lists, the "extended" part) ---------------------------- *)

let order_by (r : Rel.t) ~key =
  let tuples = List.stable_sort (fun a b -> Value.compare_tuple (key a) (key b)) (Rel.tuples r) in
  trusted
    { r.schema with Schema.kind = Schema.List }
    { Value.kind = Schema.List; tuples }

let as_set (r : Rel.t) =
  set_tuples { r.schema with Schema.kind = Schema.Set } (Rel.tuples r)

(* 1-based subscript, as in the paper's AUTHORS[1]. *)
let nth (r : Rel.t) i =
  if Rel.kind r <> Schema.List then algebra_error "subscript on an unordered table";
  List.nth_opt (Rel.tuples r) (i - 1)

let limit (r : Rel.t) n = keep_kind r r.schema (List.filteri (fun i _ -> i < n) (Rel.tuples r))

(* --- aggregates --------------------------------------------------------- *)

type agg = Count | Sum | Min | Max | Avg

let aggregate (r : Rel.t) (agg : agg) (attr : string option) : Atom.t =
  match agg, attr with
  | Count, None -> Atom.Int (Rel.cardinality r)
  | Count, Some _ -> Atom.Int (Rel.cardinality r)
  | _, None -> algebra_error "aggregate needs an attribute"
  | _, Some name -> (
      let i =
        match Schema.find_field r.schema name with
        | Some (i, _) -> i
        | None -> algebra_error "aggregate: unknown attribute %s" name
      in
      let nums =
        List.filter_map
          (fun tup ->
            match List.nth tup i with
            | Value.Atom (Atom.Int v) -> Some (float_of_int v, `I)
            | Value.Atom (Atom.Float v) -> Some (v, `F)
            | Value.Atom Atom.Null -> None
            | Value.Atom a -> (
                match agg with
                | Min | Max -> Some (0., `Other a)
                | _ -> algebra_error "aggregate: non-numeric attribute %s" name)
            | Value.Table _ -> algebra_error "aggregate: table-valued attribute %s" name)
          (Rel.tuples r)
      in
      let atoms =
        List.filter_map
          (fun tup -> match List.nth tup i with Value.Atom Atom.Null -> None | Value.Atom a -> Some a | _ -> None)
          (Rel.tuples r)
      in
      match agg with
      | Count -> Atom.Int (List.length atoms)
      | Min -> (
          match atoms with [] -> Atom.Null | a :: rest -> List.fold_left (fun acc x -> if Atom.compare x acc < 0 then x else acc) a rest)
      | Max -> (
          match atoms with [] -> Atom.Null | a :: rest -> List.fold_left (fun acc x -> if Atom.compare x acc > 0 then x else acc) a rest)
      | Sum ->
          let total = List.fold_left (fun acc (v, _) -> acc +. v) 0. nums in
          if List.for_all (fun (_, k) -> k = `I) nums then Atom.Int (int_of_float total) else Atom.Float total
      | Avg ->
          if nums = [] then Atom.Null
          else Atom.Float (List.fold_left (fun acc (v, _) -> acc +. v) 0. nums /. float_of_int (List.length nums)))

(* --- quantifiers over subtables ----------------------------------------- *)

let exists_in (tb : Value.table) pred = List.exists pred tb.Value.tuples
let for_all_in (tb : Value.table) pred = List.for_all pred tb.Value.tuples
