(** Metrics registry for the server tier: event counters and latency
    histograms behind one mutex, plus {e pull sources}.

    A source is the counter source of one layer — the same
    [unit -> (name * value) list] thunk {!Nf2_obs.Trace.add_source}
    takes, naming each counter once as [layer.counter] (["pool.hits"],
    ["lock.shared_acquired"]).  The registry never stores a source's
    values: {!get}, {!dump} and both renders call every source when
    they run, so a scrape, SYS_METRICS and a trace all read the same
    live numbers.  A source name is exposed with its base sanitized to
    Prometheus' charset (["pool.hits"] is [pool_hits], scraped as
    [aimii_pool_hits]); a labeled series names itself with
    {!labeled_key}.

    Histograms use logarithmic buckets (factor 2 from 1µs);
    {!percentile} reports the matching bucket's upper bound (an upper
    estimate with <= 2x resolution). *)

type t

val create : unit -> t

(** {1 Counters} (created on first touch; also used as gauges via
    [add t name (-1)]) *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit

(** A registry counter, or else the live value a source reports under
    this (sanitized) key; 0 when neither has it. *)
val get : t -> string -> int

(** {1 Pull sources} *)

(** Register a layer's integer counter source (read at every
    {!get} / {!dump} / render, never cached). *)
val add_source : t -> (unit -> (string * int) list) -> unit

(** Register a float-valued source (uptime, thresholds, build info),
    kept apart so integer counters keep exact arithmetic; its series
    render and expose exactly like counters. *)
val add_float_source : t -> (unit -> (string * float) list) -> unit

(** {1 Labeled counters}

    Stored under the canonical exposition key [name{k="v",...}] with
    labels sorted by key, so the same series is hit regardless of the
    label order at the call site. *)

val incr_labeled : t -> string -> (string * string) list -> unit
val add_labeled : t -> string -> (string * string) list -> int -> unit
val get_labeled : t -> string -> (string * string) list -> int

(** The canonical key [name{k="v",...}] of a labeled series (labels
    sorted, values escaped); a source names its labeled series with it. *)
val labeled_key : string -> (string * string) list -> string

(** Label values are escaped per the Prometheus exposition format
    (backslash, double quote and newline — nothing else). *)
val escape_label_value : string -> string

(** The float sources' series, sorted by key. *)
val dump_floats : t -> (string * float) list

(** {1 Histograms} *)

(** Record one observation, in seconds. *)
val observe : t -> string -> float -> unit

(** [percentile t name q] with [q] in [0,1]; 0 when unobserved. *)
val percentile : t -> string -> float -> float

(** Observations recorded under [name]. *)
val count : t -> string -> int

(** {1 Raw export}

    The histogram's actual bucket boundaries and counts, so an
    exposition layer never re-derives them from rendered text. *)

type hdump = {
  bounds : float array;  (** upper bound per bucket; the last is [infinity] *)
  counts : int array;
  total : int;
  sum : float;  (** seconds *)
}

(** Counters — the registry's and the integer sources', by key — and
    histograms, both sorted by name. *)
val dump : t -> (string * int) list * (string * hdump) list

(** One line per counter, then one line per histogram with
    count/avg/p50/p95/p99; deterministic (sorted names). *)
val render : t -> string

(** Prometheus text exposition format: [# HELP] / [# TYPE] comments,
    [name{labels} value] samples, histograms with cumulative
    [_bucket{le="..."}] series plus [_sum] / [_count].  Metric names are
    prefixed with [namespace] (default ["aimii"]) and sanitized to
    Prometheus' charset. *)
val render_prometheus : ?namespace:string -> t -> string
