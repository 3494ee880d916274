(** Evaluator for the AIM-II query language.

    Expressions, predicates, quantifiers and range sources evaluate
    over a {!catalog} of stored tables and an {!env} of tuple-variable
    bindings — the "loop" mental model the paper gives for variable
    bindings (Section 3, Example 2).  SELECT blocks are planned and
    executed by [Nf2_plan.Driver]; a nested SELECT inside an expression
    runs through the statement's {!context}. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module Rel = Nf2_algebra.Rel
module VI = Nf2_index.Value_index
module TI = Nf2_index.Text_index
module Tid = Nf2_storage.Tid

exception Eval_error of string

(** What the evaluator needs to know about one stored table. *)
type source_table = {
  schema : Schema.t;
  versioned : bool;
  scan : unit -> Value.tuple list;  (** current contents *)
  scan_asof : (int -> Value.tuple list) option;
      (** versioned tables: date/timestamp ASOF (Section 5) *)
  scan_asof_lsn : (int -> Value.tuple list) option;
      (** unversioned tables under MVCC: [ASOF <int>] selects the
          newest committed version at or below that commit LSN
          (time-travel = old snapshot); raises
          {!Nf2_temporal.Mvcc.Snapshot_too_old} below the GC horizon *)
  roots : (unit -> Tid.t list) option;  (** for index plans *)
  fetch_root : (Tid.t -> Value.tuple) option;
  indexes : (Schema.path * VI.t) list;
  text_indexes : (Schema.path * TI.t) list;
}

(** Case-insensitive table lookup. *)
type catalog = string -> source_table option

(** Variable bindings, innermost first. *)
type env = (string * (Schema.table * Value.tuple)) list

val eval_pred : catalog -> env -> Ast.pred -> bool
val eval_expr : catalog -> env -> Ast.expr -> Value.v

(** Result schema of a query in a typing environment. *)
val type_query : catalog -> (string * Schema.table) list -> Ast.query -> Schema.table

(** {1 Block execution helpers} *)

(** Materialize one FROM range in an environment (stored table, ASOF
    state, or unnested subtable). *)
val range_tuples : catalog -> env -> Ast.range -> Schema.table * Value.tuple list

(** Comparison used by predicates and ORDER BY: atoms compare as atoms
    (scalar coercion first), everything else structurally. *)
val compare_values : Value.v -> Value.v -> int

(** Collapse single-attribute, single-tuple tables to their atom. *)
val coerce_atom : Value.v -> Atom.t option

(** Innermost binding of a variable (case-insensitive). *)
val lookup_var : env -> string -> (Schema.table * Value.tuple) option

(** {1 Statement context} *)

(** What evaluation needs from the running statement: [run_block]
    executes a nested SELECT block in the environment of its enclosing
    blocks, and [cursor] is the trace node under which quantifier,
    subquery and subscript spans open ([None] when untraced). *)
type context = {
  run_block : catalog -> env -> Ast.query -> Rel.t;
  cursor : (Nf2_obs.Trace.t * Nf2_obs.Trace.node) option;
}

(** The context of the statement running on this domain.  Outside any
    statement its [run_block] raises {!Eval_error}. *)
val context : unit -> context

(** Run [f] with [ctx] installed as the current context; the previous
    one is restored on exit. *)
val with_context : context -> (unit -> 'a) -> 'a
