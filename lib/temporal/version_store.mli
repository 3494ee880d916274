(** Time-version support (Section 5 of the paper; /DLW84, Lu84/).

    A versioned table is an ordinary table — its objects live in the
    table's object store, with indexes, subtable DML and the MVCC
    publish path of any other table — plus this history: an
    append-only log on heap pages recording how each object was born,
    changed and died, written before each change.  A change is logged
    as a {e reverse delta}: how to get from the state after it back to
    the state before it.  An ASOF query takes each object's current
    state from the reader's view and folds back the deltas younger than
    the requested time point.  Timestamps are logical monotone ints
    (the language layer uses days, i.e. the DATE representation).

    The log is the durable form; an in-memory index over it (object id
    to its chain of decoded deltas, root TID to object id) answers
    queries and is rebuilt from the pages by {!restore}.  Its queryable
    part is an immutable {!state}, so {!freeze} is O(1) and a frozen
    state answers ASOF for an MVCC snapshot without touching shared
    storage. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module OS = Nf2_storage.Object_store

exception Temporal_error of string

type delta = Whole of Value.tuple | Atoms of step_path * Atom.t list

and step_path = OS.step list

(** What happens to an object's root. *)
type event =
  | Born  (** it was just inserted *)
  | Changed of delta  (** it is about to change; the delta undoes the change *)
  | Died of Value.tuple  (** it is about to be deleted, in this last state *)

type t
(** A table's live history: the log and its index. *)

type state
(** An immutable state of a history. *)

val create : Nf2_storage.Buffer_pool.t -> t

val restore : Nf2_storage.Buffer_pool.t -> pages:int list -> t
(** Re-attach a log persisted earlier and rebuild its index from it. *)

val pages : t -> int list
(** The log's pages — all the catalog keeps of a history. *)

val record : t -> ts:int -> Nf2_storage.Tid.t -> event -> unit
(** Log an event of the object at the root.  A birth starts a new
    object id, so a root TID reused after a death starts a new chain.
    @raise Temporal_error if [ts] precedes {!clock} or the root is not
    a live object of this history. *)

val clock : t -> int
(** The newest timestamp logged (0 for an empty history). *)

val object_id : t -> Nf2_storage.Tid.t -> int option
(** The id of the live object at the root. *)

val freeze : t -> state
(** The current state, in O(1). *)

val copy : t -> t
(** An independent copy of the history, sharing its immutable index.
    A transaction keeps one from its start: once a rollback has rewound
    the log's pages, the copy is the history as it was, and takes the
    place of the one the transaction changed without the re-read of
    the whole log that {!restore} makes. *)

(** {1 ASOF} — [fetch] reads an object's current state by its root: the
    object store on the live view, the MVCC version on a snapshot. *)

(** Every object alive at [ts] (inclusive), in id order. *)
val asof : state -> Schema.t -> fetch:(Nf2_storage.Tid.t -> Value.tuple) -> ts:int -> Value.tuple list

(** One object's state at [ts]; [None] before its birth or from its
    death on.  @raise Temporal_error for an unknown id. *)
val object_asof :
  state -> Schema.t -> fetch:(Nf2_storage.Tid.t -> Value.tuple) -> int -> ts:int -> Value.tuple option

(** Version metadata [(ts, is_initial)] oldest first. *)
val history : state -> int -> (int * bool) list

(** Walk-through-time: every distinct state whose validity interval
    intersects [\[lo, hi\]], oldest first, stamped with the time it
    became current (clamped to [lo] for the state already current at
    the interval start) — the interval access the prototype supported
    below the language interface (Section 5).
    @raise Temporal_error on an empty interval. *)
val walk_through_time :
  state ->
  Schema.t ->
  fetch:(Nf2_storage.Tid.t -> Value.tuple) ->
  int ->
  lo:int ->
  hi:int ->
  (int * Value.tuple) list

(** {1 Space accounting (experiments)} *)

val delta_bytes : t -> int
(** Payload bytes of every log entry. *)

val version_count : state -> int -> int

(** {1 Value-level delta helpers} *)

val atoms_at : Schema.table -> Value.tuple -> step_path -> Atom.t list
val replace_atoms : Schema.table -> Value.tuple -> step_path -> Atom.t list -> Value.tuple
