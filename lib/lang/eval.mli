(** Typing and catalog interface of the AIM-II query language.

    The {!catalog} of stored tables a query reads, the typing pass that
    gives a query its result schema, and the value operations
    evaluation shares.  Queries, predicates and DML expressions are
    evaluated by code compiled once per statement
    ([Nf2_plan.Compile]). *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module VI = Nf2_index.Value_index
module TI = Nf2_index.Text_index
module Tid = Nf2_storage.Tid

exception Eval_error of string

(** The state a range reads: the current one, or [ASOF] a date or an
    integer.  Versioned tables (Section 5) read both as a timestamp;
    other tables read the integer as a commit LSN — the newest committed
    version at or below it (time travel to an old snapshot). *)
type asof = Current | Asof_date of int | Asof_int of int

(** Index access paths of a stored table (Section 4.2).  The paths
    address live objects, so they come with the function that fetches
    a root's current tuple. *)
type index_access = {
  fetch : Tid.t -> Value.tuple;
  indexes : (Schema.path * VI.t) list;
  text_indexes : (Schema.path * TI.t) list;
}

(** What the evaluator needs to know about one stored table. *)
type source_table = {
  schema : Schema.t;
  scan : asof -> Value.tuple list;
      (** the table's objects in heap order at that state.  A table
          with no such state raises {!Eval_error} through
          {!not_versioned}; [ASOF <int>] below the MVCC GC horizon
          raises {!Nf2_temporal.Mvcc.Snapshot_too_old}. *)
  index : index_access option;  (** [None]: every plan scans *)
}

(** Raise the error for an [ASOF] that [table] (as the query names it)
    cannot answer. *)
val not_versioned : string -> 'a

(** Case-insensitive table lookup. *)
type catalog = string -> source_table option

(** Result schema of a query in a typing environment. *)
val type_query : catalog -> (string * Schema.table) list -> Ast.query -> Schema.table

(** {1 Value operations} *)

(** Comparison used by predicates and ORDER BY: atoms compare as atoms
    (scalar coercion first), everything else structurally. *)
val compare_values : Value.v -> Value.v -> int

(** Collapse single-attribute, single-tuple tables to their atom. *)
val coerce_atom : Value.v -> Atom.t option

(** Arithmetic on two atoms: integer while exact, float otherwise.
    @raise Eval_error on a non-number or a division by zero. *)
val atom_arith : Ast.binop -> Atom.t -> Atom.t -> Atom.t

(** An aggregate over a (single-attribute) table. *)
val eval_agg : Ast.agg -> Value.table -> Atom.t
