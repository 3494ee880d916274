(** Engine-wide multi-version store for MVCC snapshot reads.

    Every commit publishes, per touched table, a new immutable version
    stamped with the commit LSN, and the full map [table -> version
    chain] lives behind a single [Atomic.t].  A snapshot is therefore one atomic
    read — readers never take a lock or latch, never block a writer,
    and always see a transaction-consistent state: the newest version
    of every table at or below the snapshot LSN.

    A version holds its objects in a persistent map keyed by heap
    position ({!key}).  A commit that changed a few objects publishes
    a {!Patch} of just those keys: the new version shares every other
    object with its predecessor, so publishing costs O(objects
    changed), not O(table).  Row count and byte size are carried along
    the same way.

    A version also carries the table's value and text indexes as they
    were at its commit: persistent B+-trees ({!Nf2_index.Bptree.freeze})
    that share every node the commit did not touch with the live index,
    plus a persistent map from root TID to heap position, patched with
    the objects.  A snapshot read can therefore probe an index and
    {!fetch} the roots it names without touching shared storage.  The
    frozen trees are exact at the version's LSN — no candidate needs a
    visibility re-check — and go with the version when GC drops it.

    Publication happens only on the engine's write side (which is
    serialised by the server's exclusive latch, or single-threaded in
    embedded use); an internal mutex additionally serialises publishers
    against each other and guards the snapshot-pin registry, so the
    module is safe under any mix of domains and systhreads.

    Old versions are garbage-collected: each publish trims every chain
    to the newest [retain] versions plus whatever the oldest pinned
    snapshot still needs.  Resolving a table at an LSN below the
    trimmed horizon raises {!Snapshot_too_old} — the typed error the
    server maps to its own SQLSTATE.

    {!Version_store} answers a different question: the durable,
    user-dated past of a versioned table (Section 5), which is never
    collected.  A version of such a table carries that history frozen
    at its commit, so date-ASOF reads through a snapshot too. *)

module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module Tid = Nf2_storage.Tid
module VI = Nf2_index.Value_index
module TI = Nf2_index.Text_index

(** [table] at [lsn] is older than the GC horizon [floor]: the versions
    needed to answer were reclaimed. *)
exception Snapshot_too_old of { table : string; lsn : int; floor : int }

(** An object's place in its table's scan order: for a stored table,
    the rank of its root's directory page in the heap's append-only
    page list, then the root's slot ([Object_store.root_position]).
    Keys order as the live store scans, so a snapshot scan lists the
    objects exactly as a live scan would. *)
type key = int * int

type objects
(** A version's objects: persistent maps from {!key} to tuple and from
    root TID to {!key}, shared with the neighbouring versions of the
    chain. *)

(** One immutable committed state of one table. *)
type version = {
  v_lsn : int;  (** commit LSN that published this version *)
  v_schema : Schema.t;
  v_objects : objects;  (** contents; read them with {!scan} *)
  v_rows : int;  (** number of objects *)
  v_history : Version_store.state option;
      (** a versioned table's Section 5 history as of [v_lsn]: with
          {!fetch} on this version it answers date-ASOF without
          touching shared storage *)
  v_live : bool;  (** [false]: drop tombstone — the table is gone above [v_lsn] *)
  v_bytes : int;
      (** approximate payload size of all its objects, kept up to date
          in O(change) by each patch *)
  v_own_bytes : int;
      (** the part of [v_bytes] this version does not share with its
          predecessor: all of it for a full publish, the new objects'
          size for a patch — what {!stats}' [bytes_live] adds up (frozen
          index nodes are not counted) *)
  v_indexes : (Schema.path * VI.t) list;
      (** the table's value indexes, frozen at [v_lsn] *)
  v_text_indexes : (Schema.path * TI.t) list;
      (** the table's text indexes, frozen at [v_lsn] *)
}

val scan : version -> Value.tuple list
(** The objects in key order.  Built on first use and kept with the
    version, so repeated scans of one version cost one list walk. *)

val fetch : version -> Tid.t -> Value.tuple
(** The object whose root is the TID, as of the version: two persistent
    map lookups, no shared storage.  The access path behind index scans
    on a snapshot, whose frozen indexes name only roots the version
    holds.  @raise Invalid_argument for any other TID — an index out of
    step with its version is an internal error, not a missing row. *)

(** What a commit publishes for one table.  [indexes] and
    [text_indexes] are frozen handles ({!VI.freeze}, {!TI.freeze}) on
    the table's indexes as of the commit, and [history] is a versioned
    table's frozen history ({!Version_store.freeze}). *)
type input =
  | Publish of {
      schema : Schema.t;
      objects : (key * Tid.t option * Value.tuple) list;
          (** with the root TID indexes address it by, if any *)
      indexes : (Schema.path * VI.t) list;
      text_indexes : (Schema.path * TI.t) list;
      history : Version_store.state option;
    }  (** the table's full contents (after DDL, load, recovery, replica apply) *)
  | Patch of {
      changes : (key * Tid.t * Value.tuple option) list;
      indexes : (Schema.path * VI.t) list;
      text_indexes : (Schema.path * TI.t) list;
      history : Version_store.state option;
    }
      (** the objects a commit touched, by position and root: [Some]
          replaces or adds, [None] removes; every other object is shared
          with the current head, which must be live *)
  | Drop  (** the table was dropped; readers above this LSN skip it *)

type t

type snapshot
(** A consistent view at one LSN.  Holding the value keeps its versions
    reachable regardless of GC (the state is immutable); {e pinning}
    ([snapshot]/[release] below) additionally holds the GC horizon so
    ASOF-at-LSN queries through newer snapshots stay answerable. *)

type stats = {
  snapshot_lsn : int;  (** newest published LSN *)
  versions_live : int;  (** versions currently reachable, all chains *)
  bytes_live : int;
      (** approximate bytes held by reachable versions, shared objects
          counted once *)
  gc_reclaimed : int;  (** versions reclaimed since [create] *)
  gc_floor : int;  (** highest LSN any reclamation has passed *)
  pins : int;  (** live pinned snapshots *)
}

val create : ?retain:int -> unit -> t
(** [retain] (default 8) is the minimum number of versions kept per
    chain regardless of pins. *)

val set_retain : t -> int -> unit

val set_budget : t -> int option -> unit
(** Byte budget over all chains ([None] = unbounded, the default).
    While the approximate live bytes exceed the budget, GC shrinks the
    effective per-chain retain to 1; versions a pinned snapshot still
    needs are kept regardless, so the budget may stay exceeded while
    pins hold their horizon.  Takes effect immediately (a GC sweep
    runs) and at every subsequent publish. *)

val budget : t -> int option

val sweep : t -> unit
(** Re-run GC over the current state without publishing. *)

val publish : t -> ?monotonize:bool -> lsn:int -> (string * input) list -> unit
(** Append one version per listed table (keys are uppercased inside)
    and advance the snapshot LSN, then run GC.  An [lsn] at or below
    the current one is bumped to [current + 1] when [monotonize] is
    [true] (the default — local commit clocks may lag after promotion)
    and makes the whole publish a no-op when [false] (the replica
    re-apply path, where a stale LSN means an already-applied batch). *)

val snapshot_lsn : t -> int

val live_names : t -> string list
(** Chains currently holding a live (non-tombstone) head. *)

val snapshot : t -> snapshot
(** Pin and return the current state: one atomic read plus O(1) under
    the pin mutex; never blocks on writers. *)

val view : t -> snapshot
(** Unpinned view of the current state — safe to resolve against (the
    state is immutable) but does not hold the GC horizon.  For
    statement-scoped reads prefer [snapshot]/[release]. *)

val release : t -> snapshot -> unit
val lsn : snapshot -> int

val resolve : snapshot -> string -> version option
(** The table's state at the snapshot LSN; [None] if it does not exist
    (never created, or dropped at or below the LSN). *)

val resolve_at : snapshot -> string -> lsn:int -> version option
(** Time-travel within the snapshot: the newest version at or below
    [min lsn (snapshot lsn)].  [None] when the table did not exist yet.
    @raise Snapshot_too_old when the needed versions were reclaimed. *)

val live_tables : snapshot -> (string * version) list
(** All tables visible at the snapshot, sorted by name. *)

val chains : t -> (string * bool * version list) list
(** Every chain in the current state, sorted by table name: [(name,
    trimmed, versions)] with versions newest first.  The introspection
    dump behind [SYS_MVCC] — one atomic read, no locks. *)

val pinned_lsns : t -> (int * int) list
(** Currently pinned snapshot LSNs with their refcounts, ascending. *)

val stats : t -> stats

(** The version store's counter source, [mvcc.*] names. *)
val counters : t -> (string * int) list
