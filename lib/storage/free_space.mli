(** Free-space map: the pages a record store owns, newest first, with
    the free bytes of each.  Heap files and the complex-object store
    keep their pages here; every page write through the record protocol
    ({!Record}) refreshes the page's entry, and placement reads it. *)

type t

val create : Buffer_pool.t -> t

(** Re-attach to pages persisted earlier, reading each page's free
    bytes. *)
val restore : Buffer_pool.t -> int list -> t

(** An independent copy of the map over the same pages. *)
val copy : t -> t

val pool : t -> Buffer_pool.t

(** Owned pages, newest first. *)
val pages : t -> int list

(** Record a page's free bytes after a write to its image. *)
val note : t -> int -> Bytes.t -> unit

(** Drop a page's entry: placement no longer picks it (an emptied page
    waiting for reuse).  The page stays owned. *)
val forget : t -> int -> unit

(** Allocate a page, format it empty and own it. *)
val alloc : t -> int

(** Format an owned page empty again (reuse of an emptied page). *)
val format : t -> int -> unit

(** Own a page whose image was written by copying (relocation,
    check-in). *)
val adopt : t -> int -> unit

(** Insert an encoded record on the first of [candidates] with room for
    it (its bytes plus a slot entry), else on [fresh ()]; returns
    (page, slot). *)
val place : t -> candidates:int list -> fresh:(unit -> int) -> string -> int * int
