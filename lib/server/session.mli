(** Session manager: maps wire-protocol requests onto the engine.

    Statements are classified (after Rewrite) as read-only or
    mutating.  Reads in a transaction run under the shared side of a
    reader-writer engine latch — and in parallel, on the server's
    worker-domain executor — while mutations, DDL and the replication
    applier hold the exclusive side and see the engine strictly
    alone.  Plain reads run lock-free on an MVCC snapshot.
    Cross-session isolation comes from predicate locks (2PL for
    transactions, writer-fair); the single engine transaction slot is
    one more such lock, taken by BEGIN and by autocommitted mutations.
    Every wait sleeps until a release wakes it and carries a deadline,
    failing with lock-timeout / deadlock errors instead of hanging.
    Commit fsyncs run outside the engine latch so concurrent
    committers batch into one fsync when group commit is enabled.
    See docs/CONCURRENCY.md. *)

(** A request refusal carrying a SQLSTATE-style code from {!Protocol}
    and a message; {!handle} converts it to [Protocol.Error]. *)
exception Refused of string * string

type manager
(** Shared server-side state: the database, engine latch, executor,
    lock table (which holds the transaction slot), and metrics
    registry. *)

type session
(** Per-connection state: transaction flags, held locks, prepared
    statements. *)

(** Creates the shared state over [db], attaching a WAL if the database
    has none and configuring group commit on it.  [lock_timeout]
    (default 2s) bounds every lock wait, the transaction slot's too;
    [group_window] (default 2ms) is how long a group-commit leader
    lingers for followers before fsyncing; [wal_appender] (default on,
    effective with [group_commit]) drains commits through the async
    batched appender thread instead of the leader/follower scheme —
    one fsync per batch, no gathering pause for a lone committer (see
    {!Nf2_storage.Wal.set_async_appender}).  With [slow_query] set,
    every statement runs under a {!Nf2_obs.Trace} and those taking at
    least that many seconds emit one structured line to [slow_sink]
    (default stderr) — see docs/OBSERVABILITY.md for the format.
    [executor] supplies the worker-domain pool read statements are
    evaluated on; without one, reads still share the engine latch but
    evaluate inline on the session systhread. *)
val create_manager :
  ?lock_timeout:float ->
  ?group_commit:bool ->
  ?group_window:float ->
  ?wal_appender:bool ->
  ?slow_query:float ->
  ?slow_sink:(string -> unit) ->
  ?executor:Executor.t ->
  metrics:Metrics.t ->
  Nf2.Db.t ->
  manager

val open_session : manager -> sid:int -> session

(** {1 Runtime observability switches}

    The session layer registers the server-tier SYS providers
    ([SYS_SESSIONS], [SYS_STATEMENTS], [SYS_LOCKS], [SYS_METRICS],
    [SYS_TRACES]) on the database's registry at {!create_manager};
    see docs/OBSERVABILITY.md. *)

(** Change the slow-query threshold at runtime ([None] disables
    tracing); serves the [\slow-query] meta command. *)
val set_slow_query : manager -> float option -> unit

val slow_query : manager -> float option

(** Clear the cumulative statement statistics and the slow-query trace
    ring ([\sys reset]).  Nothing else is touched. *)
val sys_reset : manager -> unit

(** {1 Replica wiring (see [lib/repl])} *)

(** With read-only mode on, mutating statements and explicit BEGIN are
    refused with the replica SQLSTATE (25006); reads serve normally. *)
val set_read_only : manager -> bool -> unit

val read_only : manager -> bool

(** Install the handler behind the [Promote] request; it returns the
    human-readable outcome message. *)
val set_promote_handler : manager -> (unit -> string) -> unit

val manager_db : manager -> Nf2.Db.t

(** Run [f] holding the engine latch exclusively — the replication
    applier uses this to serialize batch application against serving
    statements (concurrent readers drain first, and none run while [f]
    does). *)
val with_engine : manager -> (unit -> 'a) -> 'a

(** Serves one request.  Engine / parser / lock errors come back as
    [Protocol.Error] responses; only connection-level exceptions (and
    {!Nf2_storage.Disk.Crash} from fault injection) escape.

    Shard frames are served here too: [Shard_join] records the node's
    (map version, shard id, nshards) identity manager-wide,
    [Shard_route] runs its statement only when the carried version
    matches that identity (else the stale-route SQLSTATE, 55S01), and
    [Shard_map_get] on a non-coordinator is a recoverable error — the
    session stays open, which lets aimsh probe for a coordinator. *)
val handle : session -> Protocol.request -> Protocol.response

(** Parse, rewrite and run a ';'-separated script exactly as a [Query]
    frame would — observed, latched and recorded — but without the
    dispatch loop's error trapping: engine / parser / lock exceptions
    escape to the caller (see {!run_protected}).  Exposed for the
    coordinator, which folds locally-served statements (pure-SYS
    queries) through the same path. *)
val run_script : session -> string -> Protocol.response

(** Fold a statement executed *elsewhere on behalf of* this session —
    the coordinator's routed statements — into the session's books:
    per-kind statement counters, cumulative shape statistics
    (SYS_STATEMENTS) and the recent ring (SYS_SESSIONS).  The local
    storage-counter delta is empty by construction. *)
val note_statement :
  session -> Nf2_lang.Ast.stmt -> seconds:float -> rows:int -> status:string -> unit

(** The request bookkeeping {!handle} wraps around a request body:
    count it under the [kind] counter, observe its latency into the
    [latency] histogram, and turn an engine / parser / lock / {!Refused}
    exception into a counted [Protocol.Error] (by code).
    Connection-level exceptions escape.  Exposed for the coordinator,
    whose routed requests keep the same books. *)
val run_protected :
  manager -> string -> string -> (unit -> Protocol.response) -> Protocol.response

(** Rolls back an in-flight transaction, releases its locks (the
    transaction slot among them), and drops prepared statements. *)
val close_session : session -> unit

(** The metrics report served for [\metrics]: registry contents (with
    the storage-tier stats folded in as gauges) plus the derived WAL
    group-commit batch-size average. *)
val render_metrics : manager -> string

(** Prometheus text-format exposition of the same registry, storage
    stats included; served for [Protocol.Metrics_prom]. *)
val render_prometheus : manager -> string
