(** TCP server loop: accept thread plus one worker thread per session,
    with strict admission control (a connection past [max_sessions] is
    answered with a Busy error and closed immediately), idle-session
    timeouts, and graceful shutdown that rolls back in-flight
    transactions and checkpoints the WAL.  The loop is the only one in
    the system: a plain node runs {!Session} on it ({!start}), and the
    shard coordinator runs its router on it ({!serve}). *)

module Db = Nf2.Db

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  max_sessions : int;
  idle_timeout : float;  (** seconds; 0 disables the idle check *)
  lock_timeout : float;
  group_commit : bool;
  group_window : float;  (** seconds a commit leader waits for followers *)
  wal_appender : bool;
      (** drain commits through the async batched WAL appender thread
          (one fsync per batch, no pause for a lone committer) instead
          of the leader/follower scheme; effective with [group_commit] *)
  slow_query : float option;
      (** seconds; when set, statements at/over it are logged to stderr
          with their full trace (see docs/OBSERVABILITY.md) *)
  domains : int;
      (** worker domains for parallel read evaluation; 0 (the default)
          derives a size from the host's cores, keeping one domain for
          the systhreads (see docs/CONCURRENCY.md) *)
}

(** 127.0.0.1, ephemeral port, 32 sessions, 300s idle, 2s lock
    timeout, group commit on with a 2ms window and the async appender,
    no slow-query log, core-derived read executor. *)
val default_config : config

(** The worker-domain count [start] will actually use for this config
    (resolves [domains = 0] against the host's cores). *)
val effective_domains : config -> int

type t

(** Binds, listens and starts the accept thread.  Serves [db] when
    given (attaching a WAL if it lacks one), otherwise a fresh
    WAL-backed database. *)
val start : ?db:Db.t -> config -> t

(** One accepted connection: the handler for each request frame, and
    the cleanup run when the connection ends (disconnect, idle timeout,
    {!stop}). *)
type conn = { handle : Protocol.request -> Protocol.response; close : unit -> unit }

(** The loop under {!start}, for a node that answers requests its own
    way: binds [config.host:config.port] and serves every admitted
    connection with [open_conn ~sid].  [mgr] backs {!session_manager},
    {!db} and the metrics renders; only [host], [port], [max_sessions]
    and [idle_timeout] of [config] are read.  [on_stop] runs inside
    {!stop} once the workers are joined, before the WAL checkpoint.
    Replication handshakes are intercepted before [handle] sees them
    (see {!set_repl_handler}). *)
val serve :
  on_stop:(unit -> unit) ->
  config ->
  metrics:Metrics.t ->
  Session.manager ->
  (sid:int -> conn) ->
  t

(** The actually bound port (useful with [config.port = 0]). *)
val port : t -> int

val db : t -> Db.t
val metrics : t -> Metrics.t

(** The session manager backing this server — the replica tier uses it
    to flip read-only mode and serialize applies against statements. *)
val session_manager : t -> Session.manager

(** Install the replication handler (see [Repl.attach]): a connection
    whose next request is [Repl_handshake] is handed to [handler] and
    stops being a request/response session; the handler owns the socket
    until the stream ends.  Without a handler, handshakes are answered
    with an 08P01 error. *)
val set_repl_handler : t -> (Unix.file_descr -> start_lsn:int -> unit) -> unit

(** The same report the [\metrics] request returns. *)
val render_metrics : t -> string

(** Graceful shutdown: stop accepting, disconnect every session
    (rolling back in-flight transactions), join the workers, run the
    [on_stop] hook (the read executor's shutdown under {!start}),
    checkpoint the WAL.  Idempotent. *)
val stop : t -> unit
