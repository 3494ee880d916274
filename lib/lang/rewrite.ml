(* Symbolic query transformation (listed in the paper's Section 5 as a
   research direction: "symbolic query transformation and
   optimization").

   The rewriter normalises predicates so that (a) trivially decidable
   subtrees disappear and (b) indexable shapes surface for the planner:

   - constant folding of arithmetic and comparisons;
   - boolean simplification (TRUE/FALSE absorption, double negation);
   - negation pushdown through AND/OR and through comparisons;
   - quantifier duality:  NOT EXISTS r: p  =>  ALL r: NOT p   and
                          NOT ALL r: p     =>  EXISTS r: NOT p
     (and, applied inside-out, the reverse direction when it exposes an
     EXISTS chain the planner can match against an index);
   - flattening/deduplication of conjunctions.

   All rules are semantics-preserving over the language's two-valued
   logic (comparisons never return unknown; NULL compares like a
   value).  An equivalence property test in test_lang.ml checks rewritten
   queries against the originals on random databases. *)

module Atom = Nf2_model.Atom
open Ast

let tt : pred = Bool_expr (Const (Atom.Bool true))
let ff : pred = Bool_expr (Const (Atom.Bool false))

let is_true = function Bool_expr (Const (Atom.Bool true)) -> true | _ -> false
let is_false = function Bool_expr (Const (Atom.Bool false)) -> true | _ -> false

(* Cumulative count of query rewrites (subqueries included), exposed
   so the session's prepared-statement cache can be regression-tested:
   Execute on a cached handle must not rewrite again. *)
let rewrites = Atomic.make 0
let rewrite_count () = Atomic.get rewrites

(* --- expression folding ----------------------------------------------- *)

let fold_arith op (a : Atom.t) (b : Atom.t) : Atom.t option =
  let to_f = function Atom.Int v -> Some (float_of_int v, true) | Atom.Float v -> Some (v, false) | _ -> None in
  match to_f a, to_f b with
  (* never fold x/0: evaluation raises "division by zero" at runtime,
     and folding to a Float inf here would silence that error *)
  | Some _, Some (0., _) when op = Div -> None
  | Some (fa, ia), Some (fb, ib) ->
      let r = match op with Add -> fa +. fb | Sub -> fa -. fb | Mul -> fa *. fb | Div -> fa /. fb in
      if ia && ib && (op <> Div || Float.is_integer r) then Some (Atom.Int (int_of_float r))
      else Some (Atom.Float r)
  | _ -> None

let rec rewrite_expr (e : expr) : expr =
  match e with
  | Const _ | Path _ | Param _ -> e
  | Neg e' -> (
      match rewrite_expr e' with
      | Const (Atom.Int v) -> Const (Atom.Int (-v))
      | Const (Atom.Float v) -> Const (Atom.Float (-.v))
      | e' -> Neg e')
  | Binop (op, a, b) -> (
      let a = rewrite_expr a and b = rewrite_expr b in
      match a, b with
      | Const ca, Const cb -> (
          match fold_arith op ca cb with Some c -> Const c | None -> Binop (op, a, b))
      (* arithmetic identities *)
      | e, Const (Atom.Int 0) when op = Add || op = Sub -> e
      | Const (Atom.Int 0), e when op = Add -> e
      | e, Const (Atom.Int 1) when op = Mul || op = Div -> e
      | Const (Atom.Int 1), e when op = Mul -> e
      | _ -> Binop (op, a, b))
  | Agg (a, arg) -> Agg (a, Option.map rewrite_expr arg)
  | Subquery q -> Subquery (rewrite_query q)

(* --- predicate rewriting ------------------------------------------------ *)

and negate_cmp = function Eq -> Ne | Ne -> Eq | Lt -> Ge | Le -> Gt | Gt -> Le | Ge -> Lt

and push_not (p : pred) : pred =
  (* NOT p, with the negation pushed as deep as possible *)
  match p with
  | Bool_expr (Const (Atom.Bool b)) -> if b then ff else tt
  | Cmp (c, a, b) -> Cmp (negate_cmp c, a, b)
  | Not inner -> rewrite_pred inner
  | And (a, b) -> rewrite_pred (Or (Not a, Not b))
  | Or (a, b) -> rewrite_pred (And (Not a, Not b))
  | Exists (r, body) -> Forall (r, push_not body)
  | Forall (r, body) -> Exists (r, push_not body)
  | Contains _ | Bool_expr _ -> Not p

and rewrite_pred (p : pred) : pred =
  match p with
  | Cmp (c, a, b) -> (
      let a = rewrite_expr a and b = rewrite_expr b in
      match a, b with
      | Const ca, Const cb ->
          let r = Atom.compare ca cb in
          let holds =
            match c with Eq -> r = 0 | Ne -> r <> 0 | Lt -> r < 0 | Le -> r <= 0 | Gt -> r > 0 | Ge -> r >= 0
          in
          if holds then tt else ff
      | _ -> Cmp (c, a, b))
  | And (a, b) -> (
      let a = rewrite_pred a and b = rewrite_pred b in
      if is_false a || is_false b then ff
      else if is_true a then b
      else if is_true b then a
      else if a = b then a
      else And (a, b))
  | Or (a, b) -> (
      let a = rewrite_pred a and b = rewrite_pred b in
      if is_true a || is_true b then tt
      else if is_false a then b
      else if is_false b then a
      else if a = b then a
      else Or (a, b))
  | Not inner -> push_not (rewrite_pred inner)
  | Exists (r, body) -> Exists (rewrite_range r, rewrite_pred body)
  | Forall (r, body) -> Forall (rewrite_range r, rewrite_pred body)
  | Contains (e, pat) -> Contains (rewrite_expr e, pat)
  | Bool_expr e -> Bool_expr (rewrite_expr e)

and rewrite_range (r : range) : range = { r with asof = Option.map rewrite_expr r.asof }

and rewrite_query (q : query) : query =
  Atomic.incr rewrites;
  let select =
    match q.select with
    | Star -> Star
    | Items items -> Items (List.map (fun it -> { it with expr = rewrite_expr it.expr }) items)
  in
  let where =
    match q.where with
    | None -> None
    | Some w ->
        let w = rewrite_pred w in
        if is_true w then None else Some w
  in
  {
    q with
    select;
    from = List.map rewrite_range q.from;
    where;
    order_by = List.map (fun oi -> { oi with key = rewrite_expr oi.key }) q.order_by;
  }

(* Whole-statement normalisation: rewrite the query (or the embedded
   predicates/expressions of a mutation) exactly once, so callers can
   cache the result — the session does this per statement and per
   prepared handle, and evaluation then runs with [rewrite:false]. *)
let rewrite_stmt (s : stmt) : stmt =
  match s with
  | Select q -> Select (rewrite_query q)
  | Explain q -> Explain (rewrite_query q)
  | Explain_analyze q -> Explain_analyze (rewrite_query q)
  | Insert i -> Insert { i with where = Option.map rewrite_pred i.where }
  | Update u ->
      Update
        {
          u with
          sets = List.map (fun (n, e) -> (n, rewrite_expr e)) u.sets;
          where = Option.map rewrite_pred u.where;
          at = Option.map rewrite_expr u.at;
        }
  | Delete d ->
      Delete { d with where = Option.map rewrite_pred d.where; at = Option.map rewrite_expr d.at }
  | Create_table _ | Drop_table _ | Create_index _ | Create_text_index _ | Alter_add _
  | Alter_drop _ | Begin_txn | Commit | Rollback | Show_tables | Describe _ -> s
