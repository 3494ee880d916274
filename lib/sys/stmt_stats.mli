(** Cumulative per-statement-shape statistics (the [SYS_STATEMENTS]
    source): a bounded ring of aggregates keyed by the statement's
    normalized text (constants replaced by [?] parameters), in the
    spirit of [pg_stat_statements].

    Each execution is charged the deltas of the {!attributed}
    counters: one name list that fixes the [SYS_STATEMENTS] columns,
    indexes every per-statement array, and picks the values out of the
    layers' counter sources — the same sources the metrics registry
    and traces read, so no counter is copied or renamed here.

    Aggregation is cheap enough to run on every statement: one mutex
    acquisition plus a handful of integer adds.  Timings feed a small
    logarithmic histogram per shape, so p95 is a bucket scan at
    snapshot time (upper estimate, <= 2x resolution, same model as the
    server metrics registry).

    The ring holds at most [cap] shapes.  When a new shape arrives at
    capacity, the least-recently-updated shape is evicted — cumulative
    statistics for hot shapes survive, one-off shapes churn. *)

(** {1 Attributed counters} *)

(** How a column shows its summed counter: as an INT count, or
    nanoseconds as FLOAT milliseconds. *)
type scale = Count | Ms_of_ns

(** The engine counters charged to each statement, in [SYS_STATEMENTS]
    column order: the source counter name ([layer.counter], as the
    pool, disk, WAL, lock and planner sources report it), its column
    and its scale.  Every per-statement array below is indexed by this
    list. *)
val attributed : (string * string * scale) list

(** [sampler sources] reads the sources once per call and picks the
    attributed counters, in {!attributed} order (0 for a name no source
    reports).  It learns each source's layout on creation, so a sample
    costs little more than the sources themselves when every call
    reports the same names in the same order, as the layers' sources
    do. *)
val sampler : (unit -> (string * int) list) list -> unit -> int array

(** Per-statement resource deltas attributed to one execution.  Deltas
    come from before/after samples of the engine's cumulative
    counters, so attribution under concurrency is approximate (another
    session's work in the same window is charged here too) — the same
    contract the trace layer documents. *)
type delta = { d_seconds : float; d_rows : int; d_counters : int array }

val zero_delta : delta

(** [after - before], per attributed counter. *)
val delta : before:int array -> after:int array -> seconds:float -> rows:int -> delta

(** One shape's aggregates, as of a {!snapshot}. *)
type entry = {
  shape : string;
  calls : int;
  rows : int;
  total_s : float;
  min_s : float;
  max_s : float;
  p95_s : float;
  counters : int array;  (** summed deltas, in {!attributed} order *)
}

type t

val create : ?cap:int -> unit -> t
(** [cap] (default 512) bounds the number of distinct shapes kept. *)

val cap : t -> int

val record : t -> shape:string -> delta -> unit

val snapshot : t -> entry list
(** All kept shapes, most-called first (ties by shape). *)

val recorded : t -> int
(** Cumulative [record] calls since create / the last {!reset}
    (exact-count reconciliation in the stress tests). *)

val reset : t -> unit
