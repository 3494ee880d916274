(** Write-ahead log: an append-only sequence of LSN-stamped
    physiological records — byte-range before/after images of pages,
    transaction begin/commit/abort, and checkpoints.

    Records accumulate in a volatile tail until {!flush} (an fsync)
    advances the durable-prefix mark.  A simulated crash keeps only
    {!durable_contents}, which {!Recovery} replays (redo history, then
    undo losers).  Record framing (length prefix + checksum) makes a
    torn log tail detectable and droppable. *)

type lsn = int
(** Log sequence number, 1-based and monotonically increasing;
    0 means "no record". *)

type txid = int

val system_tx : txid
(** Transaction 0: implicit system work (store creation, fixtures)
    logged outside any explicit transaction; never undone. *)

type record =
  | Begin of txid
  | Update of { tx : txid; page : int; off : int; before : string; after : string }
  | Alloc of { tx : txid; page : int }
  | Commit of { tx : txid; payload : string option }
      (** [payload] carries the engine's catalog image at commit —
          metadata that a from-scratch kernel would keep on pages. *)
  | Abort of txid
      (** Written after a runtime rollback whose compensations were
          logged as ordinary updates; recovery treats the transaction
          as complete (no undo). *)
  | Checkpoint of { payload : string option }
      (** Sharp checkpoint: all dirty pages were flushed first, so
          recovery starts replay here. *)

type stats = {
  mutable records : int;
  mutable bytes : int;  (** serialised log bytes *)
  mutable flushes : int;  (** fsyncs issued *)
  mutable forced_flushes : int;  (** fsyncs forced by WAL-before-data *)
  mutable group_commit_batches : int;  (** group fsyncs covering >= 1 commit *)
  mutable group_commit_txns : int;  (** commits made durable by those fsyncs *)
  mutable appender_batches : int;  (** batches drained by the async appender *)
  mutable appender_txns : int;  (** commits covered by those batches *)
  mutable appender_max_batch : int;  (** largest single appender batch *)
}

type t

val create : unit -> t
val stats : t -> stats
val reset_stats : t -> unit

(** {1 Thread safety and group commit}

    Every operation is internally mutex-guarded, so concurrent sessions
    (the server tier) may append and flush against one log.  With group
    commit enabled, {!commit} appends the commit record but defers its
    fsync: the caller then blocks in {!sync_to}, where concurrent
    committers elect a leader whose single fsync covers every commit
    record already appended — fsyncs per transaction drop below 1 under
    concurrency.  [window] is the leader's gathering pause (e.g.
    [fun () -> Thread.delay 2e-3]); the default is no pause. *)

val set_group_commit : ?window:(unit -> unit) -> t -> bool -> unit

(** {1 Async batched appender}

    [set_async_appender t true] starts a dedicated thread that drains
    the submission queue with one fsync per batch; {!commit} then only
    enqueues, and {!sync_to} parks the caller on the per-batch
    durable-LSN signal.  The batch window is adaptive: an idle queue is
    fsynced the moment a commit arrives (a lone client pays no
    gathering pause), a busy one is coalesced.  Crash semantics are the
    durable-prefix model unchanged — a failed batch fsync marks the log
    crashed and every parked committer raises {!Disk.Crash}.

    [set_async_appender t false] stops and joins the thread; pending
    commits fall back to the leader/follower scheme. *)

val set_async_appender : t -> bool -> unit
val appender_running : t -> bool

(** Block until [lsn] is durable, sharing the fsync leader/follower
    style.  @raise Disk.Crash when the covering fsync died (whoever
    performed it). *)
val sync_to : t -> lsn -> unit

(** Fault injection (see {!Faulty_disk}): called at each fsync with the
    pending byte count; returns how many bytes reach stable storage.
    An answer below the pending count raises {!Disk.Crash} after
    advancing the durable mark. *)
val set_sync_hook : t -> (int -> int) option -> unit

val durable_lsn : t -> lsn
(** Last LSN wholly inside the fsynced prefix. *)

val last_lsn : t -> lsn
(** Last LSN appended (durable or not). *)

(** {1 Logging} *)

val begin_tx : t -> txid
val log_update : t -> tx:txid -> page:int -> off:int -> before:string -> after:string -> lsn
val log_alloc : t -> tx:txid -> page:int -> lsn

(** Append a commit record and {!flush}. *)
val commit : t -> tx:txid -> payload:string option -> unit

val log_abort : t -> txid -> unit

(** Append a checkpoint record and {!flush}; returns the checkpoint
    record's LSN (the durable LSN as of this checkpoint).  The caller
    must have flushed all dirty pages first (sharp checkpoint). *)
val log_checkpoint : t -> payload:string option -> lsn

(** Make the volatile tail durable.  [forced] marks the flush as driven
    by the WAL-before-data rule (for the stats).
    @raise Disk.Crash when an armed sync fault fires. *)
val flush : ?forced:bool -> t -> unit

(** {1 Log file} *)

(** Start (or restart) a log file at [path], truncated to its header.
    From then on every fsync appends the bytes it made durable and
    calls [Unix.fsync]; a sync hook's partial answer tears the file as
    it tears {!durable_contents}. *)
val start_file : t -> string -> unit

(** The record bytes after a log file's header ([""] for a torn
    header); [None] if the file does not start with the header. *)
val file_records : string -> string option

(** {1 Reading} *)

val contents : t -> string
val durable_contents : t -> string

(** Decode a serialised log; a torn tail (truncated frame or checksum
    mismatch) ends the list silently. *)
val records_of_string : string -> (lsn * record) list

(** [durable_since t since] is the log-shipping read:
    [(bytes, last, durable)] where [bytes] are the raw framed records
    with LSNs in [(since, last]] drawn from the durable prefix —
    decodable with {!records_of_string} — and [durable] is the current
    durable LSN.  [max_bytes] cuts the slice at a record boundary
    (always keeping at least one record); an up-to-date [since] yields
    [("", since, durable)]. *)
val durable_since : ?max_bytes:int -> t -> lsn -> string * lsn * lsn

(** Chronological (page, offset, before-image) updates of one
    transaction, for runtime rollback. *)
val tx_updates : t -> txid -> (int * int * string) list
