(** The AIM-II database engine: catalog + storage + access paths +
    temporal support behind one handle, with {!exec} interpreting the
    query language.  This is the main entry point of the library.

    {[
      let db = Nf2.Db.create () in
      ignore (Nf2.Db.exec db "CREATE TABLE T (A INT, XS TABLE (X INT))");
      ignore (Nf2.Db.exec db "INSERT INTO T VALUES (1, {(10)})");
      let rel = Nf2.Db.query db "SELECT t.A, x.X FROM t IN T, x IN t.XS" in
      print_string (Nf2_algebra.Rel.render rel)
    ]} *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module Rel = Nf2_algebra.Rel
module MD = Nf2_storage.Mini_directory
module Disk = Nf2_storage.Disk
module BP = Nf2_storage.Buffer_pool
module OS = Nf2_storage.Object_store
module Tid = Nf2_storage.Tid

exception Db_error of string

type t

(** A statement's outcome: a relation or an informational message. *)
type result = Rows of Rel.t | Msg of string

(** [create ()] makes an empty single-user database on a simulated
    disk.  [layout] selects the Mini Directory structure for complex
    objects (default SS3, AIM-II's choice); [clustering:false] disables
    per-object page clustering (ablation); [pool_partitions] overrides the
    buffer pool's latch partition count; [wal:true] attaches a
    write-ahead log from the start (see {!attach_wal}). *)
val create :
  ?page_size:int ->
  ?frames:int ->
  ?pool_partitions:int ->
  ?layout:MD.layout ->
  ?clustering:bool ->
  ?wal:bool ->
  unit ->
  t

(** {1 Executing the language} *)

(** Run a script ([';'-separated statements]); results in order.
    @raise Db_error, Nf2_lang.Parser.Parse_error,
           Nf2_lang.Eval.Eval_error on failures. *)
val exec : t -> string -> result list

(** Run exactly one statement. *)
val exec1 : t -> string -> result

(** Run one query, expecting rows.  @raise Db_error otherwise. *)
val query : t -> string -> Rel.t

val render_result : result -> string

(** Planner notes of the most recent query ("full scan of T",
    "scan T via index(...)", "hash join ..."), oldest first. *)
val last_plan : t -> string list

(** Physical plan tree of the most recent query or EXPLAIN (estimates
    attached); [None] before the first query. *)
val last_plan_tree : t -> Nf2_plan.Plan.node option

(** Planner ablation: when set, the cost-based planner only emits
    sequential plans (no index access paths, no index joins), and DML
    visits every object.  Results are byte-identical; only the access
    paths change. *)
val set_plan_force_seq : t -> bool -> unit

val plan_force_seq : t -> bool

(** Cumulative access-path counters since [create]: how many range
    accesses — and how many DML target searches — ran as full scans,
    single-index scans, and multi-index (address-prefix)
    intersections. *)
type planner_counters = { seq_scans : int; index_scans : int; index_intersections : int }

val planner_counters : t -> planner_counters

(** {1 SYS introspection}

    The engine's own telemetry, queryable as NF² relations under
    reserved [SYS_*] names.  Each subsystem registers a provider —
    a named thunk materializing its state on demand; the database
    registers [SYS_WAL], [SYS_MVCC] and [SYS_TABLES] itself, and the
    server layers add session, lock, metrics, statement and trace
    providers.  Within one statement every touched SYS table is frozen
    at its first access (self-joins and subqueries see one consistent
    materialization); SYS reads take no locks, use no index paths, and
    leave the plan-path counters of user tables untouched.  A user
    table of the same name shadows the provider. *)

val sys_registry : t -> Nf2_sys.Registry.t

(** [name] resolves to a SYS provider (and no user table shadows it). *)
val is_sys_table : t -> string -> bool

(** {1 Catalog} *)

val table_names : t -> string list
val table_schema : t -> table:string -> Schema.t
val table_store : t -> table:string -> OS.t
val table_roots : t -> table:string -> Tid.t list

(** Register a table from an existing schema value with initial rows
    (examples/fixtures; DDL via {!exec} is the normal route). *)
val register_table : t -> Schema.t -> ?versioned:bool -> Value.tuple list -> unit

(** {1 Typed API (bypassing the language)} *)

val insert_tuple : t -> table:string -> Value.tuple -> Tid.t
val fetch_tuple : t -> table:string -> Tid.t -> Value.tuple

(** {1 Tuple names (Section 4.3)} *)

(** Mint a stable token naming a whole complex object / a (complex or
    flat) subobject / a subtable.  Tokens survive unrelated updates and
    object relocation. *)
val tname_object : t -> table:string -> Tid.t -> string

val tname_subobject : t -> table:string -> Tid.t -> OS.step list -> string
val tname_subtable : t -> table:string -> Tid.t -> OS.step list -> string

(** Dereference a token.  @raise Nf2_tname.Tuple_name.Tname_error. *)
val resolve_tname : t -> string -> Value.v

(** {1 Prepared statements}

    The embedded-API analogue of the paper's DDL/DML pre-compiler
    (Section 3): a statement with ['?'] placeholders is parsed once and
    executed many times with atoms bound per call. *)

type prepared

val prepare : t -> string -> prepared

(** @raise Db_error on a parameter-count mismatch. *)
val execute : t -> prepared -> Atom.t list -> result

(** {1 Persistence}

    The whole database — page images plus catalog metadata — round-trips
    through a single file.  TIDs, Mini-TIDs, and t-name tokens stay
    valid across save/load because the page images persist
    byte-for-byte; indexes are rebuilt on load. *)

(** Writes [path ^ ".tmp"], fsyncs it and renames it over [path]. *)
val save : t -> string -> unit

(** @raise Db_error on a malformed file, or one written with page
    compression on (a setting this engine no longer has). *)
val load : ?frames:int -> ?pool_partitions:int -> string -> t

(** {1 Transactions (single-user)}

    [BEGIN; ...; COMMIT] / [ROLLBACK] in the language, or the calls
    below.  Every transaction runs through the write-ahead log, which
    BEGIN attaches ({!attach_wal}) when the database has none yet:
    ROLLBACK rewinds the touched pages from the log's before-images,
    COMMIT forces the log.  A database that never opens a transaction
    stays unlogged. *)

val begin_txn : t -> unit
val commit : t -> unit
val rollback : t -> unit
val in_txn : t -> bool

(** {1 Write-ahead logging and crash recovery}

    With a WAL attached, every page change is captured as an
    LSN-stamped before/after-image record, mutating statements run as
    logged transactions, and no dirty page reaches disk before its log
    record (see {!Nf2_storage.Buffer_pool}).  A crash at {e any}
    physical write — injected deterministically via
    {!Nf2_storage.Faulty_disk} — leaves the surviving page images plus
    the log's durable prefix; {!recover_from_image} replays them (redo
    history, then undo losers) to exactly the committed-prefix state.
    {!open_files} keeps the same two parts in real files.  See
    [docs/recovery.md]. *)

(** Attach a write-ahead log (idempotent).  Flushes the pool first so
    the log's base state is on disk. *)
val attach_wal : t -> unit

val wal : t -> Nf2_storage.Wal.t option

(** Sharp checkpoint: flush all dirty pages, then log a checkpoint
    record carrying the catalog; recovery starts its replay here.
    Returns the checkpoint record's LSN — the durable LSN this
    checkpoint covers.  On a database opened by {!open_files} it also
    {!save}s the image file first and restarts the log file last.
    @raise Db_error without a WAL or inside an open transaction. *)
val wal_checkpoint : t -> Nf2_storage.Wal.lsn

(** A crash-durable database in two files: [image], a {!save} image as
    of the last checkpoint, and [log], the WAL's durable bytes since
    then ({!Nf2_storage.Wal.start_file}).  Replays the log over the
    image's pages (the catalog comes from [image] when the log has no
    commit), then checkpoints at once.  Either file may be missing.
    @raise Db_error if [log] is not a log file (for instance a
    statement journal from an older build) or [image] is malformed. *)
val open_files : ?frames:int -> image:string -> log:string -> unit -> t

(** What a crash right now would leave behind: the physical page images
    (buffer-pool frames are lost) plus the log's durable prefix.
    @raise Db_error without a WAL. *)
val crash_image : t -> Nf2_storage.Recovery.image

(** Redo-then-undo replay of a crash image into a fresh database with a
    fresh WAL attached. *)
val recover_from_image : ?frames:int -> ?pool_partitions:int -> Nf2_storage.Recovery.image -> t

(** {1 Replication apply (replica side — see [lib/repl])}

    A replica replays records shipped from a primary's WAL through its
    own buffer pool: repeat history in LSN order, byte for byte, the
    same redo rule recovery uses.  Applied images are captured by the
    replica's own WAL (as system-transaction work), so a replica is
    locally recoverable and promotable. *)

(** Redo one shipped record (grows the local disk as needed).  Updates
    are byte-exact images, so re-applying is a no-op — catch-up may
    restart from any conservative LSN.
    @raise Db_error inside an open transaction. *)
val replicate_record : t -> Nf2_storage.Wal.lsn * Nf2_storage.Wal.record -> unit

(** Refresh the catalog from a shipped commit / checkpoint payload,
    making the shipped transaction's objects visible to readers.  With
    [lsn] (the shipped record's LSN) the refresh also publishes a new
    MVCC version stamped with the primary's commit LSN — and is a no-op
    if that LSN was already applied, so catch-up may safely re-apply.
    @raise Db_error if the payload's layout/clustering do not match
    this database or it was written with page compression on, or
    inside an open transaction. *)
val replicate_catalog : ?lsn:int -> t -> string -> unit

(** Promotion undo: apply before-images (give them newest first)
    through the pool, rolling unresolved shipped transactions back off
    the pages.
    @raise Db_error inside an open transaction. *)
val replicate_undo : t -> (int * int * string) list -> unit

(** {1 MVCC snapshot reads}

    Every commit publishes, per touched table, a new immutable version
    stamped with the commit LSN into an engine-wide multi-version store
    ({!Nf2_temporal.Mvcc}); the database's {e snapshot LSN} advances
    monotonically with it.  A commit of DML fetches only the objects it
    inserted, updated or deleted; every other object is shared with the
    previous version.  A snapshot pins that state with one atomic
    read: read-only statements evaluated through {!exec_read} resolve
    every table to its newest version at or below the snapshot LSN —
    its objects and its indexes as of that commit — and touch no
    shared storage at all — no predicate locks, no engine
    latch, never blocking (or blocked by) writers.  [ASOF <int>] inside
    a snapshot is time-travel to an older LSN; versioned tables keep
    their Section 5 date-ASOF semantics through a frozen reader.  Old
    versions are garbage-collected (see {!set_mvcc_retain}); resolving
    below the GC horizon raises {!Nf2_temporal.Mvcc.Snapshot_too_old}. *)

(** Pin the current committed state.  O(1), wait-free with respect to
    writers.  Release promptly: a pinned snapshot holds the GC horizon. *)
val snapshot : t -> Nf2_temporal.Mvcc.snapshot

val release_snapshot : t -> Nf2_temporal.Mvcc.snapshot -> unit
val snapshot_lsn : Nf2_temporal.Mvcc.snapshot -> int

(** The newest published commit LSN. *)
val current_snapshot_lsn : t -> int

val mvcc_stats : t -> Nf2_temporal.Mvcc.stats

(** Minimum number of versions kept per table regardless of pins
    (default 8). *)
val set_mvcc_retain : t -> int -> unit

(** Soft cap on version-store bytes ([None] = unbounded): when live
    version bytes exceed the budget, eager sweeps trim unpinned history
    beyond the retain floor.  Pinned snapshots always stay readable —
    the budget may be overshot while a pin holds the horizon. *)
val set_mvcc_budget : t -> int option -> unit

val mvcc_budget : t -> int option

(** What a read statement runs over.  SELECT, SHOW TABLES, DESCRIBE
    and EXPLAIN [ANALYZE] have one implementation, parameterised by a
    view: {!exec_stmt} runs them over the live tables, {!exec_read}
    over {!snapshot_view}.  A name the view's catalog lacks falls back
    to a SYS provider — the view, not the live table set, decides which
    names are SYS tables. *)
type view = {
  catalog : Nf2_lang.Eval.catalog;  (** the stored tables it reads *)
  stats : Nf2_plan.Stats.provider;  (** planner row counts for them *)
  names : unit -> string list;  (** what SHOW TABLES lists *)
  note : string option;  (** leading plan note, e.g. ["snapshot @ LSN 7"] *)
}

(** The view of a pinned snapshot: scans serve the frozen version's
    objects, in the order a live scan lists them, and index paths probe
    the value and text indexes frozen with the version, fetching roots
    through {!Nf2_temporal.Mvcc.fetch}; neither touches shared storage.
    [Data_tid] indexes are left out (resolving their postings scans the
    live store).  Its plan note is ["snapshot @ LSN <n>"]. *)
val snapshot_view : Nf2_temporal.Mvcc.snapshot -> view

(** Execute one read-only statement (SELECT / EXPLAIN [ANALYZE] /
    SHOW TABLES / DESCRIBE) over {!snapshot_view}.  Its answers are
    those {!exec_stmt} gives on the live tables at the snapshot's LSN;
    it plans the access paths a live read would plan on the indexes of
    that LSN, and its plans lead with the snapshot note.
    @raise Db_error on a mutating statement.
    @raise Nf2_temporal.Mvcc.Snapshot_too_old for [ASOF <lsn>] below
    the GC horizon. *)
val exec_read :
  ?trace:Nf2_obs.Trace.t ->
  ?rewrite:bool ->
  t ->
  Nf2_temporal.Mvcc.snapshot ->
  Nf2_lang.Ast.stmt ->
  result

(** {1 Introspection (experiments, shell)} *)

val disk : t -> Disk.t
val pool : t -> BP.t

(** The evaluator-facing catalog view of this database (tests, custom
    evaluation pipelines). *)
val catalog : t -> Nf2_lang.Eval.catalog

(** {1 Observability}

    See [docs/OBSERVABILITY.md].  A trace made by {!new_trace} carries
    this database's storage counter sources ({!BP.counters},
    {!Disk.counters}, {!wal_counters}) as delta snapshots; passing it
    to {!exec_stmt} makes the evaluator open one span per operator on
    it.  [EXPLAIN ANALYZE <query>] does this internally and renders the
    annotated operator tree. *)

val new_trace : ?label:string -> t -> Nf2_obs.Trace.t

(** Counter sources ([layer.counter] names, read live): the attached
    WAL's ([wal.*], zeros before one is attached), the version store's
    ([mvcc.*]) and the planner's access-path counts ([plan.*], the
    values of {!planner_counters}). *)
val wal_counters : t -> (string * int) list

val mvcc_counters : t -> (string * int) list
val plan_counters : t -> (string * int) list

(**/**)

(* internal: statement-level entry used by the shell and server *)
val exec_stmt :
  ?trace:Nf2_obs.Trace.t -> ?rewrite:bool -> t -> Nf2_lang.Ast.stmt -> result
