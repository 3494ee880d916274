(** Atomic attribute values of the extended NF² data model.

    Atoms are the leaves of every NF² value tree: integers, floats,
    text, booleans, dates (day granularity, stored as days since
    1970-01-01), and NULL. *)

(** Atomic types. *)
type ty = Tint | Tfloat | Tstring | Tbool | Tdate

(** Atomic values.  [Null] conforms to every atomic type. *)
type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Date of int  (** days since 1970-01-01 (may be negative) *)
  | Null

(** [type_name ty] is the DDL spelling of [ty] ([INT], [TEXT], ...). *)
val type_name : ty -> string

(** The type of an atom; [None] for [Null]. *)
val ty_of_atom : t -> ty option

(** [conforms ty a] is true iff [a] may be stored in a column of type
    [ty] ([Null] always conforms). *)
val conforms : ty -> t -> bool

(** Total order: [Null] first, then by constructor, then by value.
    Only comparisons within one type are semantically meaningful. *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** {1 Calendar arithmetic} *)

val is_leap : int -> bool

(** [days_in_month y m] with [m] in 1..12. *)
val days_in_month : int -> int -> int

(** [days_of_ymd y m d] is the day number of the given date.
    @raise Invalid_argument on out-of-range month/day. *)
val days_of_ymd : int -> int -> int -> int

(** Inverse of {!days_of_ymd}: [(year, month, day)]. *)
val ymd_of_days : int -> int * int * int

val date_of_ymd : int -> int -> int -> t

(** Parse a ['YYYY-MM-DD'] string; [None] if malformed or invalid. *)
val date_of_string : string -> t option

(** {1 Rendering} *)

(** Plain rendering (no quotes): [42], [1984-01-15], [NULL]. *)
val to_string : t -> string

(** SQL-literal rendering: strings quoted with [''] escaping, dates as
    [DATE 'YYYY-MM-DD']. *)
val to_literal : t -> string

(** [add_literal b a] appends [to_literal a] to [b]. *)
val add_literal : Buffer.t -> t -> unit

val pp : Format.formatter -> t -> unit

(** {1 Binary codec} *)

val encode : Codec.sink -> t -> unit
val decode : Codec.source -> t

(** Order-preserving binary key: for atoms [a], [b] of the same type,
    [String.compare (to_key a) (to_key b)] agrees with {!compare}.
    Used as B+-tree keys. *)
val to_key : t -> string
