(** The fan-out/fan-in coordinator: N aimd shards behind one wire
    endpoint.

    Clients connect with the ordinary protocol; every statement routes
    through the versioned shard map ({!Shard_map}) over pooled shard
    connections ({!Pool}).  Statements pinning one root (the partition
    key — a table's first attribute — equated to a literal, or a
    single-root INSERT) route to exactly one shard; cross-shard SELECTs
    scatter in parallel and gather through {!Nf2_algebra.Merge} (union
    + dedup for set results, k-way merge for ORDER BY); DDL broadcasts;
    broadcast DML re-aggregates affected counts.  Every statement is
    bounded by a scatter/gather deadline, so shard failures surface as
    typed errors (57S01 / 57S02), never hangs.  What partitioned
    evaluation cannot answer correctly is refused with 0A000: joins
    over more than one stored-table range, explicit transactions,
    integer-LSN ASOF, partition-key updates.

    Pure-SYS statements run on an embedded coordinator-local engine
    whose registry adds SYS_SHARDS (per-shard address, state, lag and
    counters, joinable with the standard session-tier providers).

    The coordinator is a request handler on {!Nf2_server.Server}'s
    connection loop: admission control (Busy at [max_sessions]), the
    idle timeout and graceful shutdown are the server's own.
    See docs/SHARDING.md. *)

type config = {
  gather_deadline : float;  (** seconds one statement may wait on shards *)
  pool_cap : int;  (** idle connections kept per shard *)
  map_version : int;
  members : Shard_map.member list;
}

val default_config : config
(** 5s gather deadline, pool of 8, map v1 — and no members: [start]
    requires at least one. *)

type t

(** Binds [server.host:server.port] and serves on the server loop
    (default {!Nf2_server.Server.default_config}; of it only [host],
    [port], [max_sessions] and [idle_timeout] apply).  Shard
    connections are opened lazily per request; no executor domains
    are started.
    @raise Invalid_argument when [config.members] is empty.
    @raise Unix.Unix_error when the address cannot be bound. *)
val start : ?server:Nf2_server.Server.config -> config -> t

val port : t -> int
val metrics : t -> Nf2_server.Metrics.t
val session_manager : t -> Nf2_server.Session.manager
val shard_map : t -> Shard_map.t

(** The [\metrics] report, shard gauges (shard_map_version, shards_up,
    per-shard routed/fanout/errors/replica_reads/stale_retries/up)
    included: the registry reads them live. *)
val render_metrics : t -> string

(** {!Nf2_server.Server.stop}: stops accepting, closes live sessions,
    joins the worker threads, then closes every pooled shard
    connection.  Idempotent. *)
val stop : t -> unit
