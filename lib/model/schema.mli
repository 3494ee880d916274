(** Schemas of the extended NF² data model.

    A table is either unordered (a relation, written [{ }] in the
    paper) or ordered (a list, written [< >]).  Attributes are atomic
    or again tables, nested to arbitrary depth; a 1NF table is the
    special case with only atomic attributes. *)

type kind = Set  (** unordered: a relation *) | List  (** ordered: a list *)

type attr = Atomic of Atom.ty | Table of table

and field = { name : string; attr : attr }

and table = { kind : kind; fields : field list }

(** A named top-level table schema. *)
type t = { name : string; table : table }

exception Schema_error of string

val schema_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** True iff the table has only atomic attributes (is in 1NF). *)
val flat : table -> bool

val field_names : table -> string list

(** Case-insensitive name equality (ASCII), without allocating: how
    attribute, variable and table names compare everywhere. *)
val same_name : string -> string -> bool

(** Case-insensitive field lookup; returns position and field. *)
val find_field : table -> string -> (int * field) option

(** Like {!find_field}.  @raise Schema_error when absent. *)
val field_exn : table -> string -> int * field

(** Check well-formedness (non-empty tables, unique attribute names,
    recursively) and return the schema.  @raise Schema_error. *)
val validate : t -> t

(** Number of table-valued attributes, at all nesting levels. *)
val count_table_attrs : table -> int

(** Maximum nesting depth (0 for a flat table). *)
val depth : table -> int

(** {1 Attribute paths} *)

(** A path through nested tables down to an attribute, e.g.
    [["PROJECTS"; "MEMBERS"; "FUNCTION"]]. *)
type path = string list

(** Resolve a path to the attribute it denotes.
    @raise Schema_error if a step is unknown or descends an atom. *)
val path_attr : table -> path -> attr

val path_to_string : path -> string

(** {1 Rendering} *)

val pp_attr : Format.formatter -> attr -> unit
val pp_table : Format.formatter -> table -> unit

(** One-line structure, e.g.
    [DEPARTMENTS { DNO: INT, PROJECTS: { ... }, ... }]. *)
val to_string : t -> string

(** IMS-style segment-tree rendering (the paper's Fig 1): one line per
    nesting level, fields = first-level atomic attributes. *)
val render_segment_tree : t -> string

(** {1 Binary codec} (used by catalogs) *)

val encode_table : Codec.sink -> table -> unit
val decode_table : Codec.source -> table
val encode : Codec.sink -> t -> unit
val decode : Codec.source -> t

(** {1 Construction helpers} *)

val atom : string -> Atom.ty -> field
val int_ : string -> field
val str_ : string -> field
val float_ : string -> field
val bool_ : string -> field

(** Relation-valued attribute. *)
val set_ : string -> field list -> field

(** List-valued attribute. *)
val list_ : string -> field list -> field

(** Validated top-level relation / ordered table. *)
val relation : string -> field list -> t

val ordered : string -> field list -> t
