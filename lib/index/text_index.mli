(** Text index for masked search (Section 5 of the paper; the
    Schek/Kropp word-fragment / reference-string method).

    Words of the indexed text attribute are decomposed into character
    trigrams over [^word$]; a fragment tree maps fragment -> words and
    a word tree maps word -> hierarchical addresses.  Masked patterns
    such as ['*comput*'] are answered by intersecting fragment posting
    sets, verifying the mask on the candidate words, and returning the
    addresses — without touching data pages. *)

module Schema = Nf2_model.Schema
module OS = Nf2_storage.Object_store
module Tid = Nf2_storage.Tid

type t

(** Build over every object in the store; the path must end at a TEXT
    attribute.  @raise Invalid_argument. *)
val create : OS.t -> Schema.t -> Schema.path -> t

val insert_object : t -> Tid.t -> unit
val remove_object : t -> Tid.t -> unit

(** The index as it is now, in O(1): both B+-trees frozen
    ({!Bptree.freeze}).  Searches on the frozen handle read only its
    own nodes. *)
val freeze : t -> t

val path : t -> Schema.path

(** All indexed words (sorted). *)
val vocabulary : t -> string list

(** Words matching a compiled mask, via fragment intersection. *)
val candidates : t -> Masked.t -> string list

(** [(word, addresses)] for every vocabulary word matching the mask. *)
val search : t -> string -> (string * OS.hier list) list

(** Root TIDs of objects whose indexed text matches the mask. *)
val roots_matching : t -> string -> Tid.t list

(** Word normalisation/fragment helpers (exposed for tests). *)
val words_of_text : string -> string list

val fragments_of_word : string -> string list
