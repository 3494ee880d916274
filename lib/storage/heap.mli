(** Heap file: an unordered record store over a set of pages, with
    stable TIDs (via forward pointers) and an in-memory free-space map.

    The record protocol itself (forwarding, spilling, chunk chains)
    lives in {!Record}; a heap is that protocol over global TIDs with
    first-fit placement, plus scans in page order.  Used for flat (1NF)
    tables, for root MD subtuples of complex objects, for version
    deltas, and by the Lorie-style baseline. *)

type t

val create : Buffer_pool.t -> t

(** Re-attach a heap to pages persisted earlier (free-space map is
    rebuilt from the page contents). *)
val restore : Buffer_pool.t -> pages:int list -> t

(** Pages owned by this heap, newest first. *)
val pages : t -> int list

(** An independent copy of the heap's in-memory bookkeeping over the
    same pages.  Once the pages are rewound to the state they had when
    the copy was taken (a rolled-back transaction), the copy is that
    heap again, without reading a page as {!restore} does. *)
val copy : t -> t

(** Store a record; returns its stable TID. *)
val insert : t -> string -> Tid.t

(** Read a record, following at most one forward hop; [None] when
    deleted/absent. *)
val read : t -> Tid.t -> string option

(** @raise Invalid_argument when absent. *)
val read_exn : t -> Tid.t -> string

(** Delete a record (and its spilled copy, if forwarded). *)
val delete : t -> Tid.t -> unit

(** Update in place when possible; otherwise spill the payload to
    another page and leave a forward pointer — the TID never changes.
    @raise Record.Broken when no record is at the TID. *)
val update : t -> Tid.t -> string -> unit

(** Iterate live records, each exactly once, under its home TID. *)
val iter : t -> (Tid.t -> string -> unit) -> unit

val fold : t -> ('a -> Tid.t -> string -> 'a) -> 'a -> 'a

(** Where {!iter} visits the record homed at a TID: (rank of its page in
    the append-only page list, slot).  Positions order exactly as
    [iter] visits, and stay valid after the record is deleted.
    @raise Invalid_argument for a page this heap does not own. *)
val position : t -> Tid.t -> int * int

(** Is a live record homed at this TID (one {!iter} would visit)? *)
val is_home : t -> Tid.t -> bool
val count : t -> int
