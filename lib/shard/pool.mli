(** Pooled connections from the coordinator to one shard.

    Connections handshake with [Shard_join] (map version + slot) before
    carrying [Shard_route] statements, so the shard can refuse stale
    routes; the request deadline becomes a socket receive timeout, so a
    slow shard yields a typed 57S02 instead of a hang.  Stale-route
    refusals re-handshake and retry once; connection failures mark the
    shard down and fall back to its replica for reads (one-shot plain
    [Query] connections — the shard keeps its own replication chain).
    The primary is re-tried on every request, so a restarted shard
    heals without coordinator restarts. *)

type state = Up | Down | Replica_reads

val state_name : state -> string

type t

val create : ?cap:int -> map_version:int -> nshards:int -> Shard_map.member -> t
val member : t -> Shard_map.member
val addr : t -> string

(** {1 Health and counters (SYS_SHARDS / gauges)} *)

val state : t -> state
val last_error : t -> string
val routed : t -> int
val fanout : t -> int
val errors : t -> int
val replica_reads : t -> int
val stale_retries : t -> int

(** Replication lag (records) scraped from the replica's Prometheus
    endpoint; only meaningful while reads fall back to the replica. *)
val replica_lag : t -> int option

(** One routed statement.  [kind] picks the counter (single-shard route
    vs scatter leg), [read] gates the replica fallback, [deadline] is
    an absolute [Unix.gettimeofday] instant.  Returns the shard's
    response verbatim, engine errors included.
    @raise Nf2_server.Session.Refused when the shard cannot answer at
    all, with 57S01 (down), 57S02 (timeout) or 55S01 (unrecoverable
    stale route) and a message naming the shard. *)
val request :
  t -> kind:[ `Routed | `Fanout ] -> read:bool -> deadline:float -> string -> Nf2_server.Protocol.response

val close_all : t -> unit
