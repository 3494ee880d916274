(** Values of the extended NF² data model.

    A tuple is a list of attribute values positionally matching its
    schema; table values carry their kind so set- and list-valued
    results stay distinguishable without a schema at hand.  All
    set-level comparisons are insertion-order-insensitive. *)

type v = Atom of Atom.t | Table of table

and table = { kind : Schema.kind; tuples : tuple list }

and tuple = v list

exception Value_error of string

val value_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** {1 Construction helpers} *)

val set : tuple list -> v
val list_ : tuple list -> v
val int_ : int -> v
val str : string -> v
val float_ : float -> v
val bool_ : bool -> v
val null : v

(** {1 Comparison}

    Total order on values; [Set]-kind tables compare as canonically
    sorted, deduplicated tuple lists, so two sets differing only in
    order are equal.  [List]-kind tables compare positionally. *)

val compare_v : v -> v -> int
val compare_table : table -> table -> int
val compare_tuple : tuple -> tuple -> int
val equal_v : v -> v -> bool
val equal_tuple : tuple -> tuple -> bool
val equal_table : table -> table -> bool

(** Canonical (sorted, deduplicated) tuples of a table; [List]-kind
    tables are returned as-is. *)
val canonical_tuples : table -> tuple list

(** Sort + dedup under set semantics. *)
val dedup : tuple list -> tuple list

(** {1 Schema conformance} *)

val conforms_attr : Schema.attr -> v -> bool
val conforms_tuple : Schema.table -> tuple -> bool

(** @raise Value_error when the tuple does not conform. *)
val check_tuple : Schema.table -> tuple -> unit

(** Conformance of a whole table value to a named schema. *)
val conforms : Schema.t -> table -> bool

(** {1 Access} *)

(** Case-insensitive field projection.  @raise Value_error. *)
val field : Schema.table -> tuple -> string -> v

(** Follow a schema path inside one tuple; descending through a
    table-valued step maps over its tuples (implicit projection). *)
val project_path : Schema.table -> tuple -> Schema.path -> v

(** All atoms reachable under a path ending at an atomic attribute,
    flattened across every nesting level (used for indexing). *)
val atoms_on_path : Schema.table -> tuple -> Schema.path -> Atom.t list

(** [(subtables, complex_subobjects)] inside one object, using the
    terminology of Section 4.1 of the paper: each table-attribute
    instance is a subtable; each tuple of a non-flat subtable is a
    complex subobject. *)
val structure_counts : Schema.table -> tuple -> int * int

(** {1 Rendering} *)

(** Literal form: [{(314, 56194, {...}, 320000, {...})}]. *)
val render_v : v -> string

val render_table : table -> string
val render_tuple : tuple -> string

(** Paper-style nested-box ASCII rendering. *)
val render_boxed : Schema.table -> table -> string

(** Boxed rendering with the [{ NAME }] / [< NAME >] headline. *)
val render_named : Schema.t -> table -> string

(** {1 Binary codec} *)

val encode_v : Codec.sink -> v -> unit
val encode_tuple : Codec.sink -> tuple -> unit
val decode_v : Codec.source -> v
val decode_tuple : Codec.source -> tuple
