(** The record layer: one envelope and one protocol, shared by the heap
    files (global TIDs, first-fit placement) and the complex-object
    store (Mini-TIDs resolved through an object's page list, clustered
    placement).  Neither keeps record logic of its own.

    Envelope:
    - [Plain]: an ordinary record.
    - [Forward]: pointer to the record's current location, left behind
      when an update outgrows its page so TIDs/Mini-TIDs stay valid.
    - [Spilled]: the moved payload itself, reachable only via its
      forward pointer and skipped by scans.
    - [Chunk]: one piece of a record larger than a page; pieces chain
      through addresses of the same space.  Needed because subtable MD
      subtuples may hold thousands of pointers (Section 4.1).

    Encoded records are padded to {!min_size} bytes so any slot can
    later be overwritten in place by a forward pointer, even on a full
    page. *)

type t =
  | Plain of string
  | Forward of Tid.t
  | Spilled of string
  | Chunk of { part : string; next : Tid.t option; scan_root : bool }
      (** [scan_root] is true for the first chunk of a non-spilled
          logical record (so scans surface it exactly once). *)

val min_size : int

val encode : t -> string
val decode : string -> t

(** {1 The record protocol} *)

(** A chunk chain or forward pointer that leads nowhere, a chained
    forward, or an update of a free slot. *)
exception Broken of string

(** An address space records live in.  Addresses are [Tid.t]-shaped;
    [page_of] maps their page component to a database page (the
    identity for a heap, the page list for an object's Mini-TIDs).
    [place] stores one encoded record where the caller's placement
    policy puts it and returns its address.  Every page write refreshes
    [pages]. *)
type space = { pages : Free_space.t; page_of : int -> int; place : string -> Tid.t }

(** The decoded record in a slot; [None] for a free slot. *)
val raw : space -> Tid.t -> t option

(** Store a logical record, chunked when larger than a page; its
    address.  [head] is [`Plain] for a new record, [`Spilled] for the
    payload an update moves away from its home. *)
val insert : space -> head:[ `Plain | `Spilled ] -> string -> Tid.t

(** A record's payload, following at most one forward hop and any
    chunk chain; [None] when the slot is free or its forward target is
    gone. *)
val read : space -> Tid.t -> string option

(** The logical payload of a record that is not a forward. *)
val payload : space -> t -> string

(** What a scan surfaces for the record found in a slot: the record
    carrying its payload (its own or its forward target's); [None] for
    spilled copies, continuation chunks and broken forwards. *)
val scan_home : space -> t -> t option

(** Free a record with its spilled copy and chunks; no-op on a free
    slot. *)
val delete : space -> Tid.t -> unit

(** Rewrite in place when the payload fits its page; otherwise spill it
    and leave a forward pointer, so the address never changes. *)
val update : space -> Tid.t -> string -> unit
