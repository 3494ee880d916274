(* Reference evaluator for the AIM-II query language: the oracle the
   compiled executor is checked against.

   A direct, name-keyed interpreter of the "loop" semantics (Section 3,
   Example 2): every tuple variable is an entry of an association-list
   environment looked up by name, every path is resolved field by field
   on every evaluation, and a SELECT block is a plain nested loop over
   its FROM ranges with the whole WHERE clause checked after the last
   range.  No planner, no index, no pushdown: it shares nothing with the
   engine's executor but the catalog interface and the typing pass
   (result schemas). *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module Rel = Nf2_algebra.Rel
module Eval = Nf2_lang.Eval
open Nf2_lang.Ast

let eval_error fmt = Fmt.kstr (fun s -> raise (Eval.Eval_error s)) fmt

(* Variable bindings, innermost first. *)
type env = (string * (Schema.table * Value.tuple)) list

let lookup_var (env : env) v =
  List.find_opt (fun (name, _) -> String.uppercase_ascii name = String.uppercase_ascii v) env
  |> Option.map snd

(* A resolved path: a positioned tuple (with its schema) or a plain
   value (atom or table, with its schema attr). *)
type pv = P_tuple of Schema.table * Value.tuple | P_value of Schema.attr * Value.v

let rec walk_steps (cur : pv) (steps : path_step list) : pv =
  match steps with
  | [] -> cur
  | Field f :: rest -> (
      match cur with
      | P_tuple (tbl, tup) ->
          let _, fd = Schema.field_exn tbl f in
          walk_steps (P_value (fd.Schema.attr, Value.field tbl tup f)) rest
      | P_value (Schema.Table sub, Value.Table inner) ->
          (* implicit projection across the subtable's tuples *)
          let _, fd = Schema.field_exn sub f in
          let vs = List.map (fun t -> [ Value.field sub t f ]) inner.Value.tuples in
          let attr =
            Schema.Table
              { Schema.kind = inner.Value.kind; fields = [ { Schema.name = f; attr = fd.Schema.attr } ] }
          in
          walk_steps (P_value (attr, Value.Table { Value.kind = inner.Value.kind; tuples = vs })) rest
      | P_value (Schema.Atomic _, _) -> eval_error "cannot select attribute %s of an atomic value" f
      | P_value _ -> eval_error "schema mismatch at %s" f)
  | Subscript i :: rest -> (
      match cur with
      | P_value (Schema.Table sub, Value.Table inner) -> (
          if sub.Schema.kind <> Schema.List then eval_error "subscript on an unordered table";
          match List.nth_opt inner.Value.tuples (i - 1) with
          | Some tup -> walk_steps (P_tuple (sub, tup)) rest
          | None -> eval_error "subscript [%d] out of range" i)
      | _ -> eval_error "subscript on a non-table value")

let resolve_path (env : env) (p : path) : pv =
  match p.var with
  | None -> eval_error "path without head"
  | Some head -> (
      match lookup_var env head with
      | Some (tbl, tup) -> walk_steps (P_tuple (tbl, tup)) p.steps
      | None ->
          (* unqualified attribute: innermost variable owning it wins *)
          let rec search = function
            | [] -> eval_error "unknown variable or attribute %s" head
            | (_, (tbl, tup)) :: rest -> (
                match Schema.find_field tbl head with
                | Some (_, fd) -> walk_steps (P_value (fd.Schema.attr, Value.field tbl tup head)) p.steps
                | None -> search rest)
          in
          search env)

let pv_to_value = function
  | P_value (_, v) -> v
  | P_tuple (tbl, tup) -> Value.Table { Value.kind = tbl.Schema.kind; tuples = [ tup ] }

let rec coerce_atom (v : Value.v) : Atom.t option =
  match v with
  | Value.Atom a -> Some a
  | Value.Table { tuples = [ [ single ] ]; _ } -> coerce_atom single
  | Value.Table _ -> None

let compare_values (a : Value.v) (b : Value.v) : int =
  match coerce_atom a, coerce_atom b with
  | Some x, Some y -> Atom.compare x y
  | _ -> Value.compare_v a b

let atom_arith op a b =
  let to_f = function
    | Atom.Int v -> float_of_int v
    | Atom.Float v -> v
    | _ -> eval_error "arithmetic on non-number"
  in
  let both_int = match a, b with Atom.Int _, Atom.Int _ -> true | _ -> false in
  let fa = to_f a and fb = to_f b in
  if op = Div && fb = 0. then eval_error "division by zero";
  let r = match op with Add -> fa +. fb | Sub -> fa -. fb | Mul -> fa *. fb | Div -> fa /. fb in
  if both_int && (op <> Div || Float.is_integer r) then Atom.Int (int_of_float r) else Atom.Float r

let agg_atom agg (tb : Value.table) : Atom.t =
  let atoms =
    List.filter_map
      (fun tup ->
        match tup with [ v ] -> coerce_atom v | _ -> ( match agg with Count -> Some Atom.Null | _ -> None))
      tb.Value.tuples
  in
  match agg with
  | Count -> Atom.Int (List.length tb.Value.tuples)
  | Min -> (
      match atoms with
      | [] -> Atom.Null
      | a :: rest -> List.fold_left (fun acc x -> if Atom.compare x acc < 0 then x else acc) a rest)
  | Max -> (
      match atoms with
      | [] -> Atom.Null
      | a :: rest -> List.fold_left (fun acc x -> if Atom.compare x acc > 0 then x else acc) a rest)
  | Sum | Avg -> (
      let nums =
        List.map
          (function
            | Atom.Int v -> float_of_int v
            | Atom.Float v -> v
            | Atom.Null -> 0.
            | _ -> eval_error "numeric aggregate on non-number")
          atoms
      in
      let total = List.fold_left ( +. ) 0. nums in
      match agg with
      | Sum ->
          if List.for_all (function Atom.Int _ | Atom.Null -> true | _ -> false) atoms then
            Atom.Int (int_of_float total)
          else Atom.Float total
      | _ -> if nums = [] then Atom.Null else Atom.Float (total /. float_of_int (List.length nums)))

let rec eval_expr (catalog : Eval.catalog) (env : env) (e : expr) : Value.v =
  match e with
  | Const a -> Value.Atom a
  | Param i -> eval_error "unbound parameter ?%d (use Db.prepare/execute)" i
  | Path p -> pv_to_value (resolve_path env p)
  | Neg e -> (
      match eval_expr catalog env e with
      | Value.Atom (Atom.Int v) -> Value.Atom (Atom.Int (-v))
      | Value.Atom (Atom.Float v) -> Value.Atom (Atom.Float (-.v))
      | _ -> eval_error "negation of a non-number")
  | Binop (op, a, b) -> (
      match eval_expr catalog env a, eval_expr catalog env b with
      | Value.Atom x, Value.Atom y -> Value.Atom (atom_arith op x y)
      | _ -> eval_error "arithmetic on table values")
  | Agg (agg, arg) -> (
      match arg with
      | None -> eval_error "COUNT(*) is only meaningful applied to a table expression"
      | Some arg -> (
          match eval_expr catalog env arg with
          | Value.Table tb -> Value.Atom (agg_atom agg tb)
          | Value.Atom _ -> eval_error "aggregate applied to an atomic value"))
  | Subquery q -> Value.Table (run_block catalog env q).Rel.data

and range_tuples (catalog : Eval.catalog) (env : env) (r : range) : Schema.table * Value.tuple list =
  let asof () =
    match r.asof with
    | None -> Eval.Current
    | Some e -> (
        match eval_expr catalog env e with
        | Value.Atom (Atom.Date d) -> Eval.Asof_date d
        | Value.Atom (Atom.Int i) -> Eval.Asof_int i
        | _ -> eval_error "ASOF expression must be a date or integer timestamp")
  in
  match r.source with
  | Table_src name -> (
      match catalog name with
      | Some st -> (st.Eval.schema.Schema.table, st.Eval.scan (asof ()))
      | None -> (
          if asof () <> Eval.Current then eval_error "ASOF applies to stored tables only";
          match resolve_path env { var = Some name; steps = [] } with
          | P_value (Schema.Table sub, Value.Table inner) -> (sub, inner.Value.tuples)
          | _ -> eval_error "unknown table or subtable %s" name))
  | Path_src p -> (
      if asof () <> Eval.Current then eval_error "ASOF applies to stored tables only";
      match resolve_path env p with
      | P_value (Schema.Table sub, Value.Table inner) -> (sub, inner.Value.tuples)
      | P_tuple _ -> eval_error "range source %s is a tuple, not a table" (path_to_string p)
      | P_value (Schema.Atomic _, _) -> eval_error "range source %s is atomic" (path_to_string p)
      | P_value _ -> eval_error "schema mismatch in range source")

and eval_pred (catalog : Eval.catalog) (env : env) (p : pred) : bool =
  match p with
  | Cmp (c, a, b) -> (
      let va = eval_expr catalog env a and vb = eval_expr catalog env b in
      let r = compare_values va vb in
      match c with Eq -> r = 0 | Ne -> r <> 0 | Lt -> r < 0 | Le -> r <= 0 | Gt -> r > 0 | Ge -> r >= 0)
  | And (a, b) -> eval_pred catalog env a && eval_pred catalog env b
  | Or (a, b) -> eval_pred catalog env a || eval_pred catalog env b
  | Not a -> not (eval_pred catalog env a)
  | Exists (r, body) ->
      let tbl, tuples = range_tuples catalog env r in
      List.exists (fun tup -> eval_pred catalog ((r.rvar, (tbl, tup)) :: env) body) tuples
  | Forall (r, body) ->
      let tbl, tuples = range_tuples catalog env r in
      List.for_all (fun tup -> eval_pred catalog ((r.rvar, (tbl, tup)) :: env) body) tuples
  | Contains (e, pat) -> (
      let mask = Masked.compile pat in
      match eval_expr catalog env e with
      | Value.Atom (Atom.Str s) -> Masked.matches_word mask s
      | Value.Atom _ -> false
      | Value.Table tb ->
          List.exists
            (fun tup ->
              List.exists (function Value.Atom (Atom.Str s) -> Masked.matches_word mask s | _ -> false) tup)
            tb.Value.tuples)
  | Bool_expr e -> (
      match eval_expr catalog env e with
      | Value.Atom (Atom.Bool b) -> b
      | _ -> eval_error "predicate expression is not boolean")

(* One SELECT block as a plain nested loop: every binding of the FROM
   ranges in order, the WHERE clause on each complete binding, then the
   select list, ORDER BY (a stable sort), and set-semantic dedup. *)
and run_block (catalog : Eval.catalog) (outer : env) (q : query) : Rel.t =
  let schema = Eval.type_query catalog (List.map (fun (v, (tbl, _)) -> (v, tbl)) outer) q in
  let rec bindings env = function
    | [] -> [ env ]
    | r :: rest ->
        let tbl, tuples = range_tuples catalog env r in
        List.concat_map (fun tup -> bindings ((r.rvar, (tbl, tup)) :: env) rest) tuples
  in
  let envs = bindings outer q.from in
  let envs =
    match q.where with None -> envs | Some w -> List.filter (fun env -> eval_pred catalog env w) envs
  in
  let row env =
    match q.select with
    | Star ->
        List.concat_map
          (fun r ->
            match lookup_var env r.rvar with
            | Some (_, tup) -> tup
            | None -> eval_error "unbound range %s" r.rvar)
          q.from
    | Items items -> List.map (fun { expr; _ } -> eval_expr catalog env expr) items
  in
  (* an ORDER BY key naming a result column sorts on that column *)
  let key env r (oi : order_item) =
    match oi.key with
    | Path { var = Some name; steps = [] } -> (
        match Schema.find_field schema name with
        | Some (i, _) -> List.nth r i
        | None -> eval_expr catalog env oi.key)
    | e -> eval_expr catalog env e
  in
  let keyed = List.map (fun env -> let r = row env in (r, List.map (key env r) q.order_by)) envs in
  let rows =
    if q.order_by = [] then List.map fst keyed
    else
      let rec cmp ka kb (obs : order_item list) =
        match ka, kb, obs with
        | a :: ka, b :: kb, oi :: obs ->
            let c = compare_values a b in
            let c = if oi.descending then -c else c in
            if c <> 0 then c else cmp ka kb obs
        | _ -> 0
      in
      List.map fst (List.stable_sort (fun (_, ka) (_, kb) -> cmp ka kb q.order_by) keyed)
  in
  let kind = schema.Schema.kind in
  let rows = if q.distinct || (kind = Schema.Set && q.order_by = []) then Value.dedup rows else rows in
  Rel.trusted schema { Value.kind; tuples = rows }

(* A top-level query, after the engine's rewrite pass. *)
let run catalog (q : query) : Rel.t = run_block catalog [] (Nf2_lang.Rewrite.rewrite_query q)

(* The DML evaluation frames: [#row] is the statement's object, and a
   subtable statement binds each element as [#elem] inside it. *)
let row_env (schema : Schema.table) (tup : Value.tuple) : env = [ ("#row", (schema, tup)) ]
