(** Symbolic query transformation (the paper's Section 5 research
    direction): semantics-preserving normalisation applied before
    evaluation — constant folding, boolean simplification, negation
    pushdown, and quantifier duality (NOT EXISTS ⇔ ALL NOT), which
    also surfaces indexable shapes for the planner. *)

val rewrite_expr : Ast.expr -> Ast.expr
val rewrite_pred : Ast.pred -> Ast.pred
val rewrite_query : Ast.query -> Ast.query

(** Normalise a whole statement (queries, and the predicates and
    expressions embedded in mutations) exactly once, so callers can
    cache the result and execute it without rewriting again. *)
val rewrite_stmt : Ast.stmt -> Ast.stmt

(** Cumulative number of {!rewrite_query} applications (subqueries
    included) — lets tests assert that cached statements are not
    rewritten again. *)
val rewrite_count : unit -> int

val is_true : Ast.pred -> bool
val is_false : Ast.pred -> bool
val tt : Ast.pred
val ff : Ast.pred
