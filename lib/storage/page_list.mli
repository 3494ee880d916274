(** Page lists: the local address space of a complex object
    (Section 4.1 of the paper).

    A page list maps local page numbers (positions) to database page
    numbers.  Removal leaves a gap and additions reuse gaps before
    extending at the end, so every existing Mini-TID stays valid. *)

type t

val create : unit -> t

(** Length including gaps. *)
val length : t -> int

(** Register a database page; returns its (gap-reusing) position. *)
val add : t -> int -> int

(** Leave a gap at the position.  @raise Invalid_argument on gaps. *)
val remove : t -> lpage:int -> unit

(** Database page at a position.  @raise Invalid_argument on gaps. *)
val resolve : t -> int -> int

(** Replace the page at a position, keeping the position — the
    relocation (check-out) primitive. *)
val replace : t -> lpage:int -> page:int -> unit

val position_of : t -> int -> int option

(** Live (position, page) pairs in position order. *)
val entries : t -> (int * int) list

val gaps : t -> int

val encode : Codec.sink -> t -> unit
val decode : Codec.source -> t
val copy : t -> t
