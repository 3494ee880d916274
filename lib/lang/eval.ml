(* Typing and catalog interface of the AIM-II query language.

   The catalog of stored tables a query reads, the typing pass that
   gives every query its result schema (and surfaces unknown variables
   and attributes before anything runs), and the value operations
   evaluation shares: comparison with scalar coercion, arithmetic and
   aggregates.  Evaluation itself is compiled: [Nf2_plan.Compile]
   resolves each statement once into slot- and offset-addressed
   closures, following the "loop" mental model the paper gives for
   tuple variables (Section 3, Example 2). *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module VI = Nf2_index.Value_index
module TI = Nf2_index.Text_index
module Tid = Nf2_storage.Tid
open Ast

exception Eval_error of string

let eval_error fmt = Fmt.kstr (fun s -> raise (Eval_error s)) fmt


(* --- catalog interface ------------------------------------------------ *)

type asof = Current | Asof_date of int | Asof_int of int

type index_access = {
  fetch : Tid.t -> Value.tuple;
  indexes : (Schema.path * VI.t) list;
  text_indexes : (Schema.path * TI.t) list;
}

type source_table = {
  schema : Schema.t;
  scan : asof -> Value.tuple list;
  index : index_access option;
}

let not_versioned table =
  eval_error "table %s is not versioned (DATE ASOF unavailable; ASOF <lsn> reads an old snapshot)"
    table

type catalog = string -> source_table option

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
  List.find_opt (fun (name, _) -> Schema.same_name name v) tenv
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

(* --- value operations ------------------------------------------------------ *)

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

let eval_agg agg (tb : Value.table) : Atom.t =
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
