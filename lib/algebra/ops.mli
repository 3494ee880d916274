(** Operators of the (extended) NF² algebra, after Jaeschke/Schek
    (/JS82, Jae85a, SS86/): the classical relational operators
    generalised to relation-valued attributes, NEST/UNNEST as the
    structure-changing pair, and order-aware operators for the
    "extended" part of the model (lists).

    Unless stated otherwise, operators on Set-kind inputs produce
    Set-kind (deduplicated) outputs, and operators on List-kind inputs
    preserve order. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value

(** {1 Selection / projection} *)

val select : Rel.t -> (Value.tuple -> bool) -> Rel.t

(** Project onto named attributes (possibly table-valued).
    @raise Rel.Algebra_error on unknown names or empty list. *)
val project : Rel.t -> string list -> Rel.t

val rename : Rel.t -> (string * string) list -> Rel.t

(** {1 Set operations} — operands must be structurally compatible. *)

val union : Rel.t -> Rel.t -> Rel.t
val difference : Rel.t -> Rel.t -> Rel.t
val intersection : Rel.t -> Rel.t -> Rel.t
val same_structure : Rel.t -> Rel.t -> bool

(** {1 Products and joins} — attribute names must be disjoint
    (use {!rename}). *)

val product : Rel.t -> Rel.t -> Rel.t

(** Theta join by nested loops. *)
val join : Rel.t -> Rel.t -> on:(Value.tuple -> Value.tuple -> bool) -> Rel.t

(** Hash-accelerated equi-join on one atomic attribute per side. *)
val equi_join : Rel.t -> Rel.t -> left:string -> right:string -> Rel.t

(** {1 Nest / unnest} *)

(** [nest r ~attrs ~as_] groups by the complement of [attrs]; the
    grouped attributes become one relation-valued attribute [as_]. *)
val nest : Rel.t -> attrs:string list -> as_:string -> Rel.t

(** [unnest r ~attr] flattens one table-valued attribute; tuples whose
    subtable is empty disappear (standard unnest semantics). *)
val unnest : Rel.t -> attr:string -> Rel.t

(** Nested application: transform the subtable of [attr] inside every
    tuple with an algebra function — the operator that closes the NF²
    algebra under application to subrelations.  The function must be
    schema-uniform (its output schema may not depend on the input
    rows).  @raise Rel.Algebra_error. *)
val nest_apply : Rel.t -> attr:string -> (Rel.t -> Rel.t) -> Rel.t

(** {1 Ordering (lists)} *)

(** Stable sort by a computed key; the result is List-kind. *)
val order_by : Rel.t -> key:(Value.tuple -> Value.tuple) -> Rel.t

val as_set : Rel.t -> Rel.t

(** 1-based subscript (the paper's [AUTHORS\[1\]]); [None] when out of
    range.  @raise Rel.Algebra_error on unordered tables. *)
val nth : Rel.t -> int -> Value.tuple option

val limit : Rel.t -> int -> Rel.t

(** {1 Aggregates} *)

type agg = Count | Sum | Min | Max | Avg

(** [aggregate r agg attr]: [Count] ignores [attr]; numeric aggregates
    skip NULLs; empty inputs yield [Null] (0 for Count). *)
val aggregate : Rel.t -> agg -> string option -> Atom.t

(** {1 Quantifiers over table values} *)

val exists_in : Value.table -> (Value.tuple -> bool) -> bool
val for_all_in : Value.table -> (Value.tuple -> bool) -> bool
