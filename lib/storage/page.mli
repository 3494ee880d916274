(** Slotted-page layout, operating in place on a page image.

    {v
    +--------+-------------------------------+-----------------+
    | header |  records (grow up) ... free   | slot dir (down) |
    +--------+-------------------------------+-----------------+
    v}

    Slot numbers are stable: deletion frees a slot for reuse but never
    renumbers others, so TIDs and Mini-TIDs stay valid.  Records never
    exceed one page at this layer (larger payloads are chunked by the
    heap / object store). *)

val header_size : int
val slot_size : int

(** Initialise an empty page image. *)
val init : Bytes.t -> unit

val nslots : Bytes.t -> int

(** Upper bound for a single record on an empty page. *)
val max_record_size : Bytes.t -> int

(** Total reclaimable free space (counting compaction). *)
val usable_free : Bytes.t -> int

(** Contiguous free space without compaction. *)
val contiguous_free : Bytes.t -> int

val can_insert : Bytes.t -> int -> bool

(** Insert a record; returns its slot, or [None] when it cannot fit
    even after compaction. *)
val insert : Bytes.t -> string -> int option

(** Read a record; [None] for free/unknown slots. *)
val read : Bytes.t -> int -> string option

(** Free a slot (keeping its number reserved); false if already free. *)
val delete : Bytes.t -> int -> bool

(** In-place update (compacting if needed); false when the new contents
    cannot fit on this page — the caller must spill.
    @raise Invalid_argument on free slots. *)
val update : Bytes.t -> int -> string -> bool

(** Occupied slot numbers in ascending order. *)
val live_records : Bytes.t -> int list

(** Rewrite the record area compactly, preserving slot numbers. *)
val compact : Bytes.t -> unit

val slot_used : Bytes.t -> int -> bool
