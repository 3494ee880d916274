(* Abstract syntax of the AIM-II query language: a SELECT-FROM-WHERE
   language generalised to NF2 tables (Section 3 of the paper, after
   /PT85, PA86/), plus the DDL and DML needed to define and maintain
   extended NF2 tables. *)

module Atom = Nf2_model.Atom

type path = { var : string option; steps : path_step list }

and path_step = Field of string | Subscript of int (* 1-based, lists *)

type expr =
  | Const of Atom.t
  | Param of int (* 1-based '?' placeholder, bound at execution *)
  | Path of path
  | Subquery of query
  | Binop of binop * expr * expr
  | Neg of expr
  | Agg of agg * expr option (* COUNT(T), SUM(x.A), ... over a table expr *)

and binop = Add | Sub | Mul | Div

and agg = Count | Sum | Min | Max | Avg

and pred =
  | Cmp of cmp * expr * expr
  | And of pred * pred
  | Or of pred * pred
  | Not of pred
  | Exists of range * pred
  | Forall of range * pred
  | Contains of expr * string (* masked pattern *)
  | Bool_expr of expr (* e.g. a BOOL attribute used directly *)

and cmp = Eq | Ne | Lt | Le | Gt | Ge

and range = { rvar : string; source : source; asof : expr option }

and source = Table_src of string | Path_src of path

and sel_item = { expr : expr; alias : string option }

and order_item = { key : expr; descending : bool }

and query = {
  distinct : bool;
  select : sel_list;
  from : range list;
  where : pred option;
  order_by : order_item list;
}

and sel_list = Star | Items of sel_item list

(* --- DDL / DML ------------------------------------------------------- *)

type field_def = { fname : string; ftype : type_def }

and type_def =
  | T_atom of Atom.ty
  | T_table of Nf2_model.Schema.kind * field_def list

type literal_value =
  | L_atom of Atom.t
  | L_param of int (* '?' placeholder in a VALUES literal *)
  | L_table of Nf2_model.Schema.kind * literal_value list list (* rows of values *)

type index_strategy = S_data | S_root | S_hier

type stmt =
  | Select of query
  | Create_table of { name : string; fields : field_def list; versioned : bool }
  | Drop_table of string
  | Create_index of { table : string; path : string list; strategy : index_strategy }
  | Create_text_index of { table : string; path : string list }
  | Insert of { table : string; sub_path : string list; where : pred option; rows : literal_value list list }
  | Update of {
      table : string;
      sub_path : string list;  (* non-empty: update elements of a subtable *)
      sets : (string * expr) list;
      where : pred option;
      at : expr option;
    }
  | Delete of {
      table : string;
      sub_path : string list;  (* non-empty: delete elements of a subtable *)
      where : pred option;
      at : expr option;
    }
  | Alter_add of { table : string; field : field_def }
  | Alter_drop of { table : string; attr : string }
  | Explain of query
  | Explain_analyze of query
  | Begin_txn
  | Commit
  | Rollback
  | Show_tables
  | Describe of string

(* Does the statement change stored data or schema? *)
let mutates = function
  | Select _ | Explain _ | Explain_analyze _ | Show_tables | Describe _ | Begin_txn | Commit
  | Rollback ->
      false
  | Create_table _ | Drop_table _ | Create_index _ | Create_text_index _ | Insert _ | Update _
  | Delete _ | Alter_add _ | Alter_drop _ ->
      true

(* --- ranges ------------------------------------------------------------

   One fold over every range a statement names: FROM lists, EXISTS /
   ALL quantifiers, nested SELECTs in any expression, and the ranges
   inside ASOF expressions.  Each occurrence is visited once, so a
   self-join yields its table twice.  Session lock specs, shard routing
   and the coordinator's ASOF check all walk statements through it. *)

let rec fold_query_ranges f acc (q : query) =
  let acc = List.fold_left (fold_range f) acc q.from in
  let acc =
    match q.select with
    | Star -> acc
    | Items items -> List.fold_left (fun acc it -> fold_expr_ranges f acc it.expr) acc items
  in
  let acc = match q.where with Some p -> fold_pred_ranges f acc p | None -> acc in
  List.fold_left (fun acc oi -> fold_expr_ranges f acc oi.key) acc q.order_by

and fold_range f acc (r : range) =
  let acc = f acc r in
  match r.asof with Some e -> fold_expr_ranges f acc e | None -> acc

and fold_expr_ranges f acc = function
  | Const _ | Param _ | Path _ | Agg (_, None) -> acc
  | Neg e | Agg (_, Some e) -> fold_expr_ranges f acc e
  | Binop (_, a, b) -> fold_expr_ranges f (fold_expr_ranges f acc a) b
  | Subquery q -> fold_query_ranges f acc q

and fold_pred_ranges f acc = function
  | Cmp (_, a, b) -> fold_expr_ranges f (fold_expr_ranges f acc a) b
  | And (a, b) | Or (a, b) -> fold_pred_ranges f (fold_pred_ranges f acc a) b
  | Not p -> fold_pred_ranges f acc p
  | Exists (r, body) | Forall (r, body) -> fold_pred_ranges f (fold_range f acc r) body
  | Contains (e, _) | Bool_expr e -> fold_expr_ranges f acc e

(* The ranges a statement reads through: its query, or the WHERE, SET
   and AT expressions of a mutation.  INSERT rows are literals. *)
let fold_stmt_ranges f acc = function
  | Select q | Explain q | Explain_analyze q -> fold_query_ranges f acc q
  | Insert { where; _ } -> Option.fold ~none:acc ~some:(fold_pred_ranges f acc) where
  | Update { sets; where; at; _ } ->
      let acc = List.fold_left (fun acc (_, e) -> fold_expr_ranges f acc e) acc sets in
      let acc = Option.fold ~none:acc ~some:(fold_pred_ranges f acc) where in
      Option.fold ~none:acc ~some:(fold_expr_ranges f acc) at
  | Delete { where; at; _ } ->
      let acc = Option.fold ~none:acc ~some:(fold_pred_ranges f acc) where in
      Option.fold ~none:acc ~some:(fold_expr_ranges f acc) at
  | Create_table _ | Drop_table _ | Create_index _ | Create_text_index _ | Alter_add _
  | Alter_drop _ | Begin_txn | Commit | Rollback | Show_tables | Describe _ ->
      acc

(* A fold step collecting stored-table names, newest first. *)
let add_table acc (r : range) = match r.source with Table_src n -> n :: acc | Path_src _ -> acc

(* --- printing (used for parser round-trip tests and EXPLAIN) ---------- *)

let path_to_string (p : path) =
  let steps =
    List.map (function Field f -> "." ^ f | Subscript i -> Printf.sprintf "[%d]" i) p.steps
  in
  let base = match p.var with Some v -> v | None -> "" in
  let s = base ^ String.concat "" steps in
  if String.length s > 0 && s.[0] = '.' then String.sub s 1 (String.length s - 1) else s

let rec expr_to_string = function
  | Const a -> Atom.to_literal a
  | Param i -> Printf.sprintf "?%d" i
  | Path p -> path_to_string p
  | Subquery q -> "(" ^ query_to_string q ^ ")"
  | Binop (op, a, b) ->
      let o = match op with Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" in
      Printf.sprintf "(%s %s %s)" (expr_to_string a) o (expr_to_string b)
  | Neg e -> "(-" ^ expr_to_string e ^ ")"
  | Agg (a, e) ->
      let n = match a with Count -> "COUNT" | Sum -> "SUM" | Min -> "MIN" | Max -> "MAX" | Avg -> "AVG" in
      n ^ "(" ^ (match e with Some e -> expr_to_string e | None -> "*") ^ ")"

and pred_to_string = function
  | Cmp (c, a, b) ->
      let o = match c with Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" in
      Printf.sprintf "%s %s %s" (expr_to_string a) o (expr_to_string b)
  | And (a, b) -> Printf.sprintf "(%s AND %s)" (pred_to_string a) (pred_to_string b)
  | Or (a, b) -> Printf.sprintf "(%s OR %s)" (pred_to_string a) (pred_to_string b)
  | Not p -> "NOT (" ^ pred_to_string p ^ ")"
  | Exists (r, p) -> Printf.sprintf "EXISTS %s: %s" (range_to_string r) (pred_to_string p)
  | Forall (r, p) -> Printf.sprintf "ALL %s: %s" (range_to_string r) (pred_to_string p)
  | Contains (e, pat) -> Printf.sprintf "%s CONTAINS '%s'" (expr_to_string e) pat
  | Bool_expr e -> expr_to_string e

and range_to_string r =
  let src = match r.source with Table_src t -> t | Path_src p -> path_to_string p in
  let asof = match r.asof with Some e -> " ASOF " ^ expr_to_string e | None -> "" in
  Printf.sprintf "%s IN %s%s" r.rvar src asof

and query_to_string q =
  let sel =
    match q.select with
    | Star -> "*"
    | Items items ->
        String.concat ", "
          (List.map
             (fun { expr; alias } ->
               expr_to_string expr ^ match alias with Some a -> " AS " ^ a | None -> "")
             items)
  in
  let from = String.concat ", " (List.map range_to_string q.from) in
  let where = match q.where with Some p -> " WHERE " ^ pred_to_string p | None -> "" in
  let order =
    match q.order_by with
    | [] -> ""
    | items ->
        " ORDER BY "
        ^ String.concat ", "
            (List.map (fun { key; descending } -> expr_to_string key ^ if descending then " DESC" else "") items)
  in
  Printf.sprintf "SELECT %s%s FROM %s%s%s" (if q.distinct then "DISTINCT " else "") sel from where order

let rec type_def_to_string = function
  | T_atom Atom.Tint -> "INT"
  | T_atom Atom.Tfloat -> "FLOAT"
  | T_atom Atom.Tstring -> "TEXT"
  | T_atom Atom.Tbool -> "BOOL"
  | T_atom Atom.Tdate -> "DATE"
  | T_table (kind, fields) ->
      let kw = match kind with Nf2_model.Schema.Set -> "TABLE" | Nf2_model.Schema.List -> "LIST" in
      kw ^ " (" ^ field_defs_to_string fields ^ ")"

and field_defs_to_string fields =
  String.concat ", " (List.map (fun f -> f.fname ^ " " ^ type_def_to_string f.ftype) fields)

let rec literal_to_string = function
  | L_atom a -> Atom.to_literal a
  | L_param i -> Printf.sprintf "?%d" i
  | L_table (kind, rows) ->
      let o, c = match kind with Nf2_model.Schema.Set -> ("{", "}") | Nf2_model.Schema.List -> ("<", ">") in
      o
      ^ String.concat ", "
          (List.map (fun row -> "(" ^ String.concat ", " (List.map literal_to_string row) ^ ")") rows)
      ^ c

let dotted table sub_path = String.concat "." (table :: sub_path)

let stmt_to_string = function
  | Select q -> query_to_string q
  | Explain q -> "EXPLAIN " ^ query_to_string q
  | Explain_analyze q -> "EXPLAIN ANALYZE " ^ query_to_string q
  | Create_table { name; fields; versioned } ->
      Printf.sprintf "CREATE TABLE %s (%s)%s" name (field_defs_to_string fields)
        (if versioned then " WITH VERSIONS" else "")
  | Drop_table name -> "DROP TABLE " ^ name
  | Create_index { table; path; strategy } ->
      let s = match strategy with S_data -> "DATA" | S_root -> "ROOT" | S_hier -> "HIERARCHICAL" in
      Printf.sprintf "CREATE INDEX ON %s (%s) USING %s" table (String.concat "." path) s
  | Create_text_index { table; path } ->
      Printf.sprintf "CREATE TEXT INDEX ON %s (%s)" table (String.concat "." path)
  | Insert { table; sub_path; where; rows } ->
      Printf.sprintf "INSERT INTO %s%s VALUES %s" (dotted table sub_path)
        (match where with Some p -> " WHERE " ^ pred_to_string p | None -> "")
        (String.concat ", "
           (List.map
              (fun row -> "(" ^ String.concat ", " (List.map literal_to_string row) ^ ")")
              rows))
  | Update { table; sub_path; sets; where; at } ->
      Printf.sprintf "UPDATE %s SET %s%s%s" (dotted table sub_path)
        (String.concat ", " (List.map (fun (a, e) -> a ^ " = " ^ expr_to_string e) sets))
        (match where with Some p -> " WHERE " ^ pred_to_string p | None -> "")
        (match at with Some e -> " AT " ^ expr_to_string e | None -> "")
  | Delete { table; sub_path; where; at } ->
      Printf.sprintf "DELETE FROM %s%s%s" (dotted table sub_path)
        (match where with Some p -> " WHERE " ^ pred_to_string p | None -> "")
        (match at with Some e -> " AT " ^ expr_to_string e | None -> "")
  | Alter_add { table; field } ->
      Printf.sprintf "ALTER TABLE %s ADD %s %s" table field.fname (type_def_to_string field.ftype)
  | Alter_drop { table; attr } -> Printf.sprintf "ALTER TABLE %s DROP %s" table attr
  | Begin_txn -> "BEGIN"
  | Commit -> "COMMIT"
  | Rollback -> "ROLLBACK"
  | Show_tables -> "SHOW TABLES"
  | Describe name -> "DESCRIBE " ^ name
