(** Partitioned LRU buffer pool over the simulated disk.

    The pool is split into N partitions keyed by a page-id hash; each
    partition has its own latch, page table, frame quota, and LRU
    clock, so pins of pages in different partitions never contend.
    Frames are pinned for the duration of a {!read}/{!write} callback;
    eviction picks the least-recently-used unpinned frame of the
    page's partition, flushing it if dirty.  Frame quotas rebalance
    under pressure: a partition whose frames are all pinned borrows a
    frame from a sibling.  [hits + misses] is the logical page-access
    count; physical I/O is counted by {!Disk}.

    With a {!Wal} attached, every dirty callback is bracketed by a
    before-image copy (into a buffer the partition reuses) and each run
    of changed bytes becomes a log record under the pool's current
    transaction; the flush path enforces the WAL-before-data rule
    (forced log flush, or {!Wal_ordering} in strict mode). *)

(** Aggregated counters.  {!stats} returns a fresh snapshot summed
    across partitions under their latches, so two snapshots bracketing
    a quiesced workload reconcile exactly. *)
type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable log_captures : int;
      (** dirty callbacks that logged a change — callbacks, not records:
          one callback logs a record per changed run *)
  mutable contended : int;  (** pin-path latch acquisitions that had to wait *)
  mutable rebalances : int;  (** frames donated between partitions under pressure *)
}

type t

exception Pool_exhausted
(** Raised when every frame of every partition is pinned and a new page
    is requested. *)

exception Wal_ordering of string
(** Strict-mode violation of the WAL-before-data rule: a dirty page was
    about to reach disk before its log record was durable. *)

(** [create ?frames ?partitions disk] — default 64 frames split over
    [min 8 frames] partitions.  [partitions] is clamped to [frames] so
    every partition starts with at least one frame. *)
val create : ?frames:int -> ?partitions:int -> Disk.t -> t

val disk : t -> Disk.t

(** Number of latch partitions. *)
val partitions : t -> int

val stats : t -> stats
val reset_stats : t -> unit

(** The pool's counter source, [pool.*] names: {!stats} plus the
    partition count. *)
val counters : t -> (string * int) list

(** {1 Per-partition introspection (SYS_POOL)} *)

type frame_info = {
  slot : int;
  fi_page : int;  (** -1 when the frame is empty *)
  fi_dirty : bool;
  fi_pins : int;
}

type partition_stat = {
  part : int;
  quota : int;  (** frames currently owned by the partition *)
  resident : int;  (** frames holding a page *)
  p_hits : int;
  p_misses : int;
  p_evictions : int;
  p_log_captures : int;
  p_contended : int;
  frame_infos : frame_info list;
}

(** Latched snapshot of every partition, in partition order. *)
val partition_stats : t -> partition_stat list

(** {1 Write-ahead logging} *)

(** Attach a log: from now on dirty callbacks are captured as
    physiological records and flushes obey WAL-before-data.  The caller
    should flush the pool first so the log's base state is on disk. *)
val attach_wal : t -> Wal.t -> unit

val wal : t -> Wal.t option

(** Transaction charged for subsequent captures
    (default {!Wal.system_tx}). *)
val set_tx : t -> Wal.txid -> unit

(** In strict mode an unlogged flush raises {!Wal_ordering} instead of
    forcing a log flush (regression testing of the invariant). *)
val set_strict_wal : t -> bool -> unit

(** {1 Page access} *)

(** Write all dirty frames back to disk (respecting WAL-before-data). *)
val flush_all : t -> unit

(** [read t page f] pins the page's frame, applies [f] to its bytes,
    and unpins.  The bytes must not escape [f]. *)
val read : t -> int -> (Bytes.t -> 'a) -> 'a

(** Like {!read} but marks the frame dirty (and logs the change when a
    WAL is attached). *)
val write : t -> int -> (Bytes.t -> 'a) -> 'a

(** Allocate a fresh disk page (not yet resident); logged when a WAL is
    attached. *)
val alloc : t -> int
