(** Tuple names (Section 4.3 of the paper): system-generated keys that
    identify complex objects, subobjects, and subtables across tables,
    implemented like hierarchical index addresses so the same machinery
    applies.  Unlike index addresses, t-names also exist for subtables
    — and exactly those are not legal as index addresses. *)

module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module OS = Nf2_storage.Object_store
module Tid = Nf2_storage.Tid

exception Tname_error of string

type kind =
  | K_object  (** a whole complex object *)
  | K_subobject  (** a complex or flat subobject *)
  | K_subtable of int  (** a subtable (payload: path length) *)

type t = { table : string; kind : kind; root : Tid.t; steps : OS.step list }

val to_string : t -> string

(** Subtable t-names are not legal index addresses (the paper's
    distinction between t-names and i-addresses). *)
val valid_as_index_address : t -> bool

(** {1 Construction} *)

val of_object : table:string -> Tid.t -> t

(** Path must end at an element.  @raise Tname_error. *)
val of_subobject : table:string -> Tid.t -> OS.step list -> t

(** Path must end at a table attribute.  @raise Tname_error. *)
val of_subtable : table:string -> Tid.t -> OS.step list -> t

(** {1 Resolution} *)

(** Dereference against the store the name was minted on: objects and
    subobjects yield one-tuple tables; subtables yield their rows. *)
val resolve : OS.t -> Schema.t -> t -> Value.v

(** {1 Token registry}

    Databases hand out opaque string tokens for embedding in
    application programs (the paper's motivation). *)

type registry

val create_registry : unit -> registry
val register : registry -> t -> string

(** @raise Tname_error on unknown tokens. *)
val find_token : registry -> string -> t

val all : registry -> (string * t) list

(** Rebuild a registry from persisted pairs; new tokens stay unique. *)
val restore_registry : (string * t) list -> registry
