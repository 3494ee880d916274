(* Execution driver: the entry points that run statements through
   compiled blocks ({!Compile}).  A query is rewritten, then compiled
   once — every block typed, planned and resolved to slot- and
   offset-addressed closures, nested blocks included — and run; EXPLAIN
   compiles without running, so its plan shows where each WHERE
   conjunct is checked.  A DML statement compiles its predicate, SET
   expressions and AT timestamp once, over the frame of its row and
   elements ({!Compile.pred_in}, {!Compile.expr_in}), and finds its
   candidate objects through the planner ({!candidate_roots}).

   Plan notes come from the top-level block only.  The differential
   tests in [test_plan.ml] hold results byte-equal across plan shapes,
   forced-seq included, and equal to a name-keyed reference
   interpreter. *)

module Schema = Nf2_model.Schema
module Rel = Nf2_algebra.Rel
module Tid = Nf2_storage.Tid
module Tr = Nf2_obs.Trace
module Eval = Nf2_lang.Eval
module Rewrite = Nf2_lang.Rewrite
open Nf2_lang.Ast

(* Plan, compile and execute a top-level query.  Returns the result and
   the chosen plan tree (estimates only — EXPLAIN ANALYZE pairs it with
   the trace's actuals). *)
let run ?plan_note ?trace ?(force_seq = false) ?on_access ?(rewrite = true) ~stats
    (catalog : Eval.catalog) (q : query) : Rel.t * Plan.node =
  let q = if rewrite then Rewrite.rewrite_query q else q in
  let span = Option.map (fun tr -> (tr, Tr.child (Tr.root tr) "query")) trace in
  let tree, run =
    Compile.query (Compile.statement ~force_seq ?on_access ~stats catalog) ?span ?note:plan_note q
  in
  (run (), tree)

(* Plan without executing: EXPLAIN.  Compiling types every block
   (errors surface), but no probe and no scan is performed. *)
let explain ?(force_seq = false) ?(rewrite = true) ~stats (catalog : Eval.catalog) (q : query) :
    Plan.node =
  let q = if rewrite then Rewrite.rewrite_query q else q in
  fst (Compile.query (Compile.statement ~force_seq ~stats catalog) q)

(* --- DML predicates ------------------------------------------------------

   UPDATE, DELETE and subtable INSERT evaluate their WHERE clause with
   the statement's object bound to [#row] and attributes written
   unqualified.  Planning it as the one-range block [#row IN table]
   needs those attributes spelled as paths of [#row]: [qualify_row]
   rewrites every reference that resolves to the row exactly as the
   evaluator resolves it — a bound variable name wins, then the
   innermost scope owning the attribute, and a quantifier source that
   names a stored table stays that table.  Quantifiers over a subtable
   extend the scope; every other construct is left as written, which
   can only make a conjunct non-sargable, never change a result: the
   rewritten predicate is only planned, and each candidate is
   re-checked with the original one. *)

let row_var = "#row"

let qualify_row (catalog : Eval.catalog) (scope : (string * Schema.table) list) (w : pred) : pred =
  (* the path and the schema of the scope entry it starts from *)
  let resolve scope (p : path) =
    match p.var with
    | None -> None
    | Some h -> (
        match List.find_opt (fun (v, _) -> Schema.same_name v h) scope with
        | Some (_, tbl) -> Some (p, tbl)
        | None ->
            List.find_opt (fun (_, tbl) -> Schema.find_field tbl h <> None) scope
            |> Option.map (fun (v, tbl) -> ({ var = Some v; steps = Field h :: p.steps }, tbl)))
  in
  let expr scope = function
    | Path p -> ( match resolve scope p with Some (p, _) -> Path p | None -> Path p)
    | e -> e
  in
  (* the element schema a quantifier over [p] binds *)
  let subtable scope (p : path) =
    match resolve scope p with
    | None -> None
    | Some (p, tbl) -> (
        let rec fields acc = function
          | [] -> Some (List.rev acc)
          | Field f :: rest -> fields (f :: acc) rest
          | Subscript _ :: _ -> None
        in
        match fields [] p.steps with
        | None -> None
        | Some sp -> (
            match Schema.path_attr tbl sp with
            | Schema.Table sub -> Some (p, sub)
            | Schema.Atomic _ -> None
            | exception Schema.Schema_error _ -> None))
  in
  let rec pred scope = function
    | Cmp (op, a, b) -> Cmp (op, expr scope a, expr scope b)
    | And (a, b) -> And (pred scope a, pred scope b)
    | Contains (e, pat) -> Contains (expr scope e, pat)
    | Exists (({ asof = None; _ } as r), body) as p -> (
        let src =
          match r.source with
          | Path_src src -> Some src
          | Table_src name when catalog name = None -> Some { var = Some name; steps = [] }
          | Table_src _ -> None
        in
        match Option.bind src (subtable scope) with
        | Some (src, sub) -> Exists ({ r with source = Path_src src }, pred ((r.rvar, sub) :: scope) body)
        | None -> p)
    | p -> p
  in
  pred scope w

(* Candidate objects for a DML predicate on [table]: the roots an index
   path yields for the block [#row IN table] planned under the
   statement's statistics, with the access kind taken; [None] when the
   plan is a sequential scan (no sargable conjunct, an index that loses
   on cost, no WHERE clause, or [force_seq]) and every object is a
   candidate.  [inner] are the element schemas a subtable statement
   binds around the row, innermost first: attributes they own shadow
   the row's.  The roots are TID-sorted; the caller fetches each one
   and re-checks the full predicate. *)
let candidate_roots ?(force_seq = false) ?(inner = []) ~stats (catalog : Eval.catalog) ~table
    (where : pred option) : (Tid.t list * Compile.access_kind) option =
  match where, catalog table with
  | None, _ | _, None -> None
  | Some w, Some st -> (
      let scope = List.map (fun sub -> ("#elem", sub)) inner @ [ (row_var, st.Eval.schema.Schema.table) ] in
      let q =
        {
          distinct = false;
          select = Star;
          from = [ { rvar = row_var; source = Table_src table; asof = None } ];
          where = Some (qualify_row catalog scope w);
          order_by = [];
        }
      in
      match (Planner.plan ~force_seq ~filters:[] ~stats catalog q).Planner.first with
      | Some (Planner.F_index { sets; intersect; _ }) ->
          Some (Planner.probe_sets sets, if intersect then `Intersect else `Index)
      | _ -> None)
