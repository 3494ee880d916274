(* Evaluator for the AIM-II query language.

   Expressions, predicates, quantifiers and range sources evaluate over
   a catalog of stored tables and an environment of tuple-variable
   bindings, following the "loop" mental model the paper gives for
   tuple variables (Section 3, Example 2).  SELECT blocks themselves
   are planned and executed by [Nf2_plan.Driver]; a nested SELECT met
   here is handed to the statement's block runner (see {!context}).
   Typing (result schemas) lives here too. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module Rel = Nf2_algebra.Rel
module VI = Nf2_index.Value_index
module TI = Nf2_index.Text_index
module Tid = Nf2_storage.Tid
open Ast

exception Eval_error of string

let eval_error fmt = Fmt.kstr (fun s -> raise (Eval_error s)) fmt

module Tr = Nf2_obs.Trace

(* --- catalog interface ------------------------------------------------ *)

type source_table = {
  schema : Schema.t;
  versioned : bool;
  scan : unit -> Value.tuple list;
  scan_asof : (int -> Value.tuple list) option;
  scan_asof_lsn : (int -> Value.tuple list) option;
  roots : (unit -> Tid.t list) option;
  fetch_root : (Tid.t -> Value.tuple) option;
  indexes : (Schema.path * VI.t) list;
  text_indexes : (Schema.path * TI.t) list;
}

type catalog = string -> source_table option

(* --- environments ------------------------------------------------------ *)

(* innermost binding first *)
type env = (string * (Schema.table * Value.tuple)) list

let lookup_var (env : env) v =
  List.find_opt (fun (name, _) -> String.uppercase_ascii name = String.uppercase_ascii v) env
  |> Option.map snd

(* --- statement context ---------------------------------------------------

   What evaluation needs from the statement it runs in: the block runner
   that executes a nested SELECT (installed by [Nf2_plan.Driver], which
   plans each nested block once per statement), and the trace node under
   which quantifier, subquery and subscript spans open.  It is
   dynamically scoped through domain-local storage rather than threaded
   through every signature.  Safety under the parallel read path: a
   statement runs either under the engine's exclusive latch (domain 0)
   or on an executor worker domain that executes one statement at a
   time, so no two statements share the slot; the untraced path pays
   only a DLS read per nested block. *)

type context = {
  run_block : catalog -> env -> query -> Rel.t;
  cursor : (Tr.t * Tr.node) option;
}

let no_statement =
  {
    run_block = (fun _ _ _ -> eval_error "nested SELECT evaluated outside a statement");
    cursor = None;
  }

let context_key : context Domain.DLS.key = Domain.DLS.new_key (fun () -> no_statement)
let context () = Domain.DLS.get context_key

(* The slot is restored only while it still holds [ctx]: should two
   statements ever interleave on one domain, the one finishing first
   leaves the other's context in place instead of unsetting it. *)
let with_context ctx f =
  let saved = Domain.DLS.get context_key in
  Domain.DLS.set context_key ctx;
  Fun.protect
    ~finally:(fun () -> if Domain.DLS.get context_key == ctx then Domain.DLS.set context_key saved)
    f

(* --- path resolution ----------------------------------------------------- *)

(* A resolved path value: either a positioned tuple (with its schema) or
   a plain value (atom or table with its schema attr). *)
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
            Schema.Table { Schema.kind = inner.Value.kind; fields = [ { Schema.name = f; attr = fd.Schema.attr } ] }
          in
          walk_steps (P_value (attr, Value.Table { Value.kind = inner.Value.kind; tuples = vs })) rest
      | P_value (Schema.Atomic _, _) -> eval_error "cannot select attribute %s of an atomic value" f
      | P_value _ -> eval_error "schema mismatch at %s" f)
  | Subscript i :: rest -> (
      (match (context ()).cursor with Some (_, node) -> Tr.add_counter node "subscript.evals" 1 | None -> ());
      match cur with
      | P_value (Schema.Table sub, Value.Table inner) ->
          if sub.Schema.kind <> Schema.List then eval_error "subscript on an unordered table";
          (match List.nth_opt inner.Value.tuples (i - 1) with
          | Some tup -> walk_steps (P_tuple (sub, tup)) rest
          | None -> eval_error "subscript [%d] out of range" i)
      | _ -> eval_error "subscript on a non-table value")

let resolve_path (env : env) (p : path) : pv =
  match p.var with
  | None -> eval_error "path without head"
  | Some head -> (
      match lookup_var env head with
      | Some (tbl, tup) -> walk_steps (P_tuple (tbl, tup)) p.steps
      | None -> (
          (* unqualified attribute: innermost variable owning it wins *)
          let rec search = function
            | [] -> eval_error "unknown variable or attribute %s" head
            | (_, (tbl, tup)) :: rest -> (
                match Schema.find_field tbl head with
                | Some (_, fd) ->
                    walk_steps (P_value (fd.Schema.attr, Value.field tbl tup head)) p.steps
                | None -> search rest)
          in
          search env))

(* Collapse a resolved path into a Value.v; a positioned tuple becomes a
   one-tuple table (so Example 8's x.AUTHORS[1] can be compared). *)
let pv_to_value = function
  | P_value (_, v) -> v
  | P_tuple (tbl, tup) -> Value.Table { Value.kind = tbl.Schema.kind; tuples = [ tup ] }

(* Coerce a value to an atom where a scalar is expected: single-attr,
   single-tuple tables collapse. *)
let rec coerce_atom (v : Value.v) : Atom.t option =
  match v with
  | Value.Atom a -> Some a
  | Value.Table { tuples = [ [ single ] ]; _ } -> coerce_atom single
  | Value.Table _ -> None

(* --- typing (result schemas) ---------------------------------------------- *)

type tenv = (string * Schema.table) list

let lookup_tvar (tenv : tenv) v =
  List.find_opt (fun (name, _) -> String.uppercase_ascii name = String.uppercase_ascii v) tenv
  |> Option.map snd

type ety = E_atom of Atom.ty option | E_table of Schema.table

let rec type_steps (cur : ety) steps =
  match steps with
  | [] -> cur
  | Field f :: rest -> (
      match cur with
      | E_table tbl -> (
          let _, fd = Schema.field_exn tbl f in
          match fd.Schema.attr with
          | Schema.Atomic ty -> type_steps (E_atom (Some ty)) rest
          | Schema.Table sub -> type_steps (E_table sub) rest)
      | E_atom _ -> eval_error "cannot select attribute %s of an atomic value" f)
  | Subscript _ :: rest -> (
      match cur with
      | E_table sub -> (
          match rest with
          | Field _ :: _ ->
              (* further attribute selection inside the element *)
              type_steps (E_table sub) rest
          | _ -> (
              (* element of a list: single-attr elements collapse to atoms *)
              match sub.Schema.fields with
              | [ { Schema.attr = Schema.Atomic ty; _ } ] -> type_steps (E_atom (Some ty)) rest
              | _ -> type_steps (E_table { sub with Schema.kind = Schema.Set }) rest))
      | E_atom _ -> eval_error "subscript on an atomic value")

let type_path (catalog : catalog) (tenv : tenv) (p : path) : ety =
  match p.var with
  | None -> eval_error "path without head"
  | Some head -> (
      match lookup_tvar tenv head with
      | Some tbl -> (
          match p.steps with
          | [] -> E_table tbl (* whole variable *)
          | steps -> type_steps (E_table tbl) steps)
      | None -> (
          let rec search = function
            | [] -> eval_error "unknown variable or attribute %s" head
            | (_, tbl) :: rest -> (
                match Schema.find_field tbl head with
                | Some (_, fd) -> (
                    let base =
                      match fd.Schema.attr with
                      | Schema.Atomic ty -> E_atom (Some ty)
                      | Schema.Table sub -> E_table sub
                    in
                    match p.steps with [] -> base | steps -> type_steps base steps)
                | None -> search rest)
          in
          let _ = catalog in
          search tenv))

(* --- range resolution -------------------------------------------------------- *)

(* A range source at typing time: its element schema. *)
let type_source (catalog : catalog) (tenv : tenv) (r : range) : Schema.table =
  match r.source with
  | Table_src name -> (
      match catalog name with
      | Some st -> st.schema.Schema.table
      | None -> (
          (* maybe an unqualified subtable attribute of a var in scope *)
          match
            type_path catalog tenv { var = Some name; steps = [] }
          with
          | E_table tbl -> tbl
          | E_atom _ -> eval_error "range source %s is atomic" name))
  | Path_src p -> (
      match type_path catalog tenv p with
      | E_table tbl -> tbl
      | E_atom _ -> eval_error "range source %s is atomic" (path_to_string p))

let rec type_pred (catalog : catalog) (tenv : tenv) (p : pred) : unit =
  match p with
  | Cmp (_, a, b) ->
      ignore (type_expr catalog tenv a);
      ignore (type_expr catalog tenv b)
  | And (a, b) | Or (a, b) ->
      type_pred catalog tenv a;
      type_pred catalog tenv b
  | Not a -> type_pred catalog tenv a
  | Exists (r, body) | Forall (r, body) ->
      let tbl = type_source catalog tenv r in
      type_pred catalog ((r.rvar, tbl) :: tenv) body
  | Contains (e, _) -> ignore (type_expr catalog tenv e)
  | Bool_expr e -> ignore (type_expr catalog tenv e)

and type_expr (catalog : catalog) (tenv : tenv) (e : expr) : ety =
  match e with
  | Const a -> E_atom (Atom.ty_of_atom a)
  | Param i -> eval_error "unbound parameter ?%d (use Db.prepare/execute)" i
  | Path p -> type_path catalog tenv p
  | Neg e -> type_expr catalog tenv e
  | Binop (_, a, b) -> (
      match type_expr catalog tenv a, type_expr catalog tenv b with
      | E_atom (Some Atom.Tfloat), _ | _, E_atom (Some Atom.Tfloat) -> E_atom (Some Atom.Tfloat)
      | E_atom _, E_atom _ -> E_atom (Some Atom.Tint)
      | _ -> eval_error "arithmetic on table values")
  | Agg (Count, _) -> E_atom (Some Atom.Tint)
  | Agg (Avg, _) -> E_atom (Some Atom.Tfloat)
  | Agg ((Sum | Min | Max), Some arg) -> (
      match type_expr catalog tenv arg with
      | E_atom ty -> E_atom ty
      | E_table { fields = [ { Schema.attr = Schema.Atomic ty; _ } ]; _ } -> E_atom (Some ty)
      | E_table _ -> eval_error "aggregate needs a single-attribute table")
  | Agg (_, None) -> eval_error "this aggregate needs an argument"
  | Subquery q -> E_table (type_query catalog tenv q)

(* Result schema of a query in a typing environment. *)
and type_query (catalog : catalog) (outer : tenv) (q : query) : Schema.table =
  let tenv =
    List.fold_left
      (fun acc r ->
        let tbl = type_source catalog acc r in
        (r.rvar, tbl) :: acc)
      outer q.from
  in
  (match q.where with Some p -> type_pred catalog tenv p | None -> ());
  let kind = if q.order_by <> [] then Schema.List else Schema.Set in
  match q.select with
  | Star ->
      (* all attributes of all ranges, in range order *)
      let fields =
        List.concat_map
          (fun r ->
            match lookup_tvar tenv r.rvar with
            | Some tbl -> tbl.Schema.fields
            | None -> eval_error "unbound range %s" r.rvar)
          q.from
      in
      { Schema.kind; fields }
  | Items items ->
      let fields =
        List.mapi
          (fun i { expr; alias } ->
            let name =
              match alias with
              | Some a -> a
              | None -> (
                  match expr with
                  | Path { steps; var } -> (
                      let rec last = function
                        | [ Field f ] -> Some f
                        | _ :: rest -> last rest
                        | [] -> (match var with Some v -> Some v | None -> None)
                      in
                      match last steps with Some f -> f | None -> Printf.sprintf "COL%d" (i + 1))
                  | Agg (Count, _) -> "COUNT"
                  | Agg (Sum, _) -> "SUM"
                  | Agg (Min, _) -> "MIN"
                  | Agg (Max, _) -> "MAX"
                  | Agg (Avg, _) -> "AVG"
                  | _ -> Printf.sprintf "COL%d" (i + 1))
            in
            let attr =
              match type_expr catalog tenv expr with
              | E_atom (Some ty) -> Schema.Atomic ty
              | E_atom None -> Schema.Atomic Atom.Tstring (* NULL-only column *)
              | E_table tbl -> Schema.Table tbl
            in
            { Schema.name; attr })
          items
      in
      { Schema.kind; fields }

(* --- expression evaluation ------------------------------------------------------ *)

let atom_arith op a b =
  let to_f = function Atom.Int v -> float_of_int v | Atom.Float v -> v | _ -> eval_error "arithmetic on non-number" in
  let both_int = match a, b with Atom.Int _, Atom.Int _ -> true | _ -> false in
  let fa = to_f a and fb = to_f b in
  if op = Div && fb = 0. then eval_error "division by zero";
  let r = match op with Add -> fa +. fb | Sub -> fa -. fb | Mul -> fa *. fb | Div -> fa /. fb in
  if both_int && (op <> Div || Float.is_integer r) then Atom.Int (int_of_float r) else Atom.Float r

let compare_values (a : Value.v) (b : Value.v) : int =
  match coerce_atom a, coerce_atom b with
  | Some x, Some y -> Atom.compare x y
  | _ -> Value.compare_v a b

let rec eval_expr (catalog : catalog) (env : env) (e : expr) : Value.v =
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
          | Value.Table tb -> Value.Atom (eval_agg agg tb)
          | Value.Atom _ -> eval_error "aggregate applied to an atomic value"))
  | Subquery q -> Value.Table ((context ()).run_block catalog env q).Rel.data

and eval_agg agg (tb : Value.table) : Atom.t =
  let atoms =
    List.filter_map
      (fun tup -> match tup with [ v ] -> coerce_atom v | _ -> (match agg with Count -> Some Atom.Null | _ -> None))
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

(* --- range iteration -------------------------------------------------------------- *)

and range_tuples (catalog : catalog) (env : env) (r : range) : Schema.table * Value.tuple list =
  let ts_of_asof () =
    (* [`Date]: a Section 5 time-version timestamp; [`Lsn]: an integer,
       which versioned tables also read as a timestamp (timestamps are
       logical ints) while unversioned tables read it as a commit LSN
       (MVCC time-travel = an old snapshot) *)
    match r.asof with
    | None -> None
    | Some e -> (
        match eval_expr catalog env e with
        | Value.Atom (Atom.Date d) -> Some (`Date, d)
        | Value.Atom (Atom.Int i) -> Some (`Lsn, i)
        | _ -> eval_error "ASOF expression must be a date or integer timestamp")
  in
  match r.source with
  | Table_src name -> (
      match catalog name with
      | Some st -> (
          match ts_of_asof () with
          | None -> (st.schema.Schema.table, st.scan ())
          | Some (kind, ts) -> (
              match st.scan_asof, kind, st.scan_asof_lsn with
              | Some f, _, _ -> (st.schema.Schema.table, f ts)
              | None, `Lsn, Some f -> (st.schema.Schema.table, f ts)
              | None, _, _ ->
                  eval_error "table %s is not versioned (DATE ASOF unavailable; ASOF <lsn> reads an old snapshot)"
                    name))
      | None -> (
          (* unqualified subtable attribute of a variable in scope *)
          if ts_of_asof () <> None then eval_error "ASOF applies to stored tables only";
          match resolve_path env { var = Some name; steps = [] } with
          | P_value (Schema.Table sub, Value.Table inner) -> (sub, inner.Value.tuples)
          | _ -> eval_error "unknown table or subtable %s" name))
  | Path_src p -> (
      if ts_of_asof () <> None then eval_error "ASOF applies to stored tables only";
      match resolve_path env p with
      | P_value (Schema.Table sub, Value.Table inner) -> (sub, inner.Value.tuples)
      | P_tuple _ -> eval_error "range source %s is a tuple, not a table" (path_to_string p)
      | P_value (Schema.Atomic _, _) -> eval_error "range source %s is atomic" (path_to_string p)
      | P_value _ -> eval_error "schema mismatch in range source")

(* --- predicate evaluation ------------------------------------------------------------ *)

and eval_pred (catalog : catalog) (env : env) (p : pred) : bool =
  match p with
  | Cmp (c, a, b) -> (
      let va = eval_expr catalog env a and vb = eval_expr catalog env b in
      let r = compare_values va vb in
      match c with
      | Eq -> r = 0
      | Ne -> r <> 0
      | Lt -> r < 0
      | Le -> r <= 0
      | Gt -> r > 0
      | Ge -> r >= 0)
  | And (a, b) -> eval_pred catalog env a && eval_pred catalog env b
  | Or (a, b) -> eval_pred catalog env a || eval_pred catalog env b
  | Not a -> not (eval_pred catalog env a)
  | Exists (r, body) ->
      let tbl, tuples = quantifier_range "EXISTS" catalog env r in
      List.exists (fun tup -> eval_pred catalog ((r.rvar, (tbl, tup)) :: env) body) tuples
  | Forall (r, body) ->
      let tbl, tuples = quantifier_range "ALL" catalog env r in
      List.for_all (fun tup -> eval_pred catalog ((r.rvar, (tbl, tup)) :: env) body) tuples
  | Contains (e, pat) -> (
      let mask = Masked.compile pat in
      match eval_expr catalog env e with
      | Value.Atom (Atom.Str s) -> Masked.matches_word mask s
      | Value.Atom _ -> false
      | Value.Table tb ->
          List.exists
            (fun tup ->
              List.exists
                (function Value.Atom (Atom.Str s) -> Masked.matches_word mask s | _ -> false)
                tup)
            tb.Value.tuples)
  | Bool_expr e -> (
      match eval_expr catalog env e with
      | Value.Atom (Atom.Bool b) -> b
      | _ -> eval_error "predicate expression is not boolean")

(* Materializing a quantifier's range is where its storage work happens
   (the body predicate recurses through eval_pred); one node accumulates
   every activation across outer tuples. *)
and quantifier_range kind (catalog : catalog) (env : env) (r : range) :
    Schema.table * Value.tuple list =
  match (context ()).cursor with
  | None -> range_tuples catalog env r
  | Some (tr, cursor) ->
      let src = match r.source with Table_src n -> n | Path_src p -> path_to_string p in
      let node = Tr.child cursor (Printf.sprintf "quantifier %s %s IN %s" kind r.rvar src) in
      Tr.timed tr node (fun () ->
          let tbl, tuples = range_tuples catalog env r in
          Tr.add_rows node (List.length tuples);
          (tbl, tuples))

