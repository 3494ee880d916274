(* Partitioned LRU buffer pool over the simulated disk.

   The pool is split into N partitions keyed by a multiplicative hash
   of the page id.  Each partition owns its own latch, page table,
   frame quota, LRU clock, and counters, so concurrent pins of pages
   that hash to different partitions never contend — the single pool
   latch that PR 5 left as "the known next wall" is gone.  Frames are
   pinned for the duration of a [read]/[write] callback and unpinned
   afterwards; eviction picks the least recently used unpinned frame
   of the page's partition and flushes it if dirty.  Counters
   distinguish logical page accesses (hits + misses) from physical
   I/O (kept on the disk).

   Frame quotas are rebalanced under pressure: when a partition's
   frames are all pinned (nested pins — the object store's relocation
   path reads the source page while the destination is pinned — can
   exhaust a small quota), a frame is stolen from a sibling partition
   under a global rebalance mutex and donated to the starved one.
   The donor's latch and the recipient's latch are never held at the
   same time, and the normal pin path takes exactly one partition
   latch, so there is no lock-order cycle.

   When a WAL is attached, every dirty callback is bracketed by a
   before-image copy into a page buffer the partition keeps for reuse:
   each run of bytes the callback changed becomes one physiological
   log record under the pool's current transaction (two runs whose
   identical gap is cheaper to log than a second record's framing
   share one), and the frame is stamped with the last record's LSN.
   A slotted-page change touches the header at one end and the slot
   directory at the other, so a single first-to-last-byte span would
   log nearly the whole page twice.  No dirty frame reaches the disk
   before its log record is durable — the flush path forces a log flush
   (or, in strict mode, raises [Wal_ordering]) whenever the frame's LSN
   is ahead of the log's durable mark.

   Thread safety: a partition latch covers that partition's
   table/frames/tick/stats — page lookup, pin/unpin, eviction, and the
   log-capture bookkeeping.  The user callback runs *outside* the
   latch (its pin keeps the frame resident), which keeps hold times
   short and lets nested pool calls from inside a callback re-enter
   without self-deadlock.  Concurrent readers never mutate frame
   bytes; mutating callbacks are serialized above the pool by the
   engine's exclusive latch.  {!stats} aggregates a snapshot across
   partitions (taking each latch in turn), so deltas reconcile exactly
   against per-partition counters. *)

type frame = {
  mutable page : int; (* -1 when frame is empty *)
  buf : Bytes.t;
  mutable dirty : bool;
  mutable pins : int;
  mutable lru : int; (* last-use tick *)
  mutable lsn : int; (* LSN of the last log record covering this frame *)
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable log_captures : int; (* dirty callbacks that logged a change: callbacks, not records *)
  mutable contended : int; (* pin-path latch acquisitions that had to wait *)
  mutable rebalances : int; (* frames moved between partitions under pressure *)
}

let zero_stats () =
  { hits = 0; misses = 0; evictions = 0; log_captures = 0; contended = 0; rebalances = 0 }

type partition = {
  latch : Mutex.t; (* covers table/frames/tick/pstats; never held during callbacks *)
  mutable frames : frame array;
  table : (int, frame) Hashtbl.t; (* page -> resident frame *)
  mutable tick : int;
  pstats : stats; (* contended/rebalances unused here; see the Atomics below *)
  waited : int Atomic.t; (* try_lock failures on the pin path *)
  mutable spares : Bytes.t list; (* before-image buffers free for reuse *)
}

type t = {
  disk : Disk.t;
  parts : partition array;
  rebalance_mu : Mutex.t; (* serializes frame donation between partitions *)
  rebalanced : int Atomic.t;
  mutable wal : Wal.t option;
  mutable wal_tx : Wal.txid; (* transaction charged for captures; Wal.system_tx outside *)
  mutable strict_wal : bool; (* raise instead of forcing the log flush *)
}

exception Pool_exhausted

exception Wal_ordering of string
(** Strict-mode violation of the WAL-before-data rule: a dirty page was
    about to reach disk before its log record. *)

let mk_frame page_size =
  { page = -1; buf = Bytes.make page_size '\000'; dirty = false; pins = 0; lru = 0; lsn = 0 }

let create ?(frames = 64) ?partitions disk =
  if frames < 1 then invalid_arg "Buffer_pool.create: frames < 1";
  let nparts =
    match partitions with
    | Some p ->
        if p < 1 then invalid_arg "Buffer_pool.create: partitions < 1";
        min p frames
    | None -> min 8 frames
  in
  let page_size = Disk.page_size disk in
  {
    disk;
    parts =
      Array.init nparts (fun k ->
          (* spread the quota: the first [frames mod nparts] partitions
             get one extra frame *)
          let quota = (frames / nparts) + if k < frames mod nparts then 1 else 0 in
          {
            latch = Mutex.create ();
            frames = Array.init quota (fun _ -> mk_frame page_size);
            table = Hashtbl.create (2 * quota + 1);
            tick = 0;
            pstats = zero_stats ();
            waited = Atomic.make 0;
            spares = [];
          });
    rebalance_mu = Mutex.create ();
    rebalanced = Atomic.make 0;
    wal = None;
    wal_tx = Wal.system_tx;
    strict_wal = false;
  }

let disk t = t.disk
let partitions t = Array.length t.parts

let part_of t page =
  (* Fibonacci hash keeps sequentially-allocated page ids spread *)
  t.parts.(((page * 2654435761) lsr 13) mod Array.length t.parts)

(* Pin-path latch acquisition: a failed try_lock is a contention event
   (the per-partition counter the 8-domain stress sums). *)
let latched_pin p f =
  if not (Mutex.try_lock p.latch) then begin
    Atomic.incr p.waited;
    Mutex.lock p.latch
  end;
  Fun.protect ~finally:(fun () -> Mutex.unlock p.latch) f

(* Maintenance paths (stats, flush_all, reset) lock without counting:
   only real page-access contention should show up in the gauge. *)
let latched p f =
  Mutex.lock p.latch;
  Fun.protect ~finally:(fun () -> Mutex.unlock p.latch) f

let stats t =
  let agg = zero_stats () in
  Array.iter
    (fun p ->
      latched p (fun () ->
          agg.hits <- agg.hits + p.pstats.hits;
          agg.misses <- agg.misses + p.pstats.misses;
          agg.evictions <- agg.evictions + p.pstats.evictions;
          agg.log_captures <- agg.log_captures + p.pstats.log_captures);
      agg.contended <- agg.contended + Atomic.get p.waited)
    t.parts;
  agg.rebalances <- Atomic.get t.rebalanced;
  agg

let reset_stats t =
  Array.iter
    (fun p ->
      latched p (fun () ->
          p.pstats.hits <- 0;
          p.pstats.misses <- 0;
          p.pstats.evictions <- 0;
          p.pstats.log_captures <- 0);
      Atomic.set p.waited 0)
    t.parts;
  Atomic.set t.rebalanced 0

(* The pool's counter source: every consumer (traces, statement
   attribution, SYS_METRICS, Prometheus) reads these names. *)
let counters t =
  let s = stats t in
  [
    ("pool.hits", s.hits);
    ("pool.misses", s.misses);
    ("pool.evictions", s.evictions);
    ("pool.log_captures", s.log_captures);
    ("pool.partitions", partitions t);
    ("pool.contended", s.contended);
    ("pool.rebalances", s.rebalances);
  ]

(* --- per-partition introspection (SYS_POOL) ----------------------------- *)

type frame_info = { slot : int; fi_page : int; fi_dirty : bool; fi_pins : int }

type partition_stat = {
  part : int;
  quota : int; (* frames currently owned by the partition *)
  resident : int; (* frames holding a page *)
  p_hits : int;
  p_misses : int;
  p_evictions : int;
  p_log_captures : int;
  p_contended : int;
  frame_infos : frame_info list;
}

let partition_stats t =
  Array.to_list
    (Array.mapi
       (fun k p ->
         latched p (fun () ->
             let infos =
               Array.to_list
                 (Array.mapi
                    (fun i f -> { slot = i; fi_page = f.page; fi_dirty = f.dirty; fi_pins = f.pins })
                    p.frames)
             in
             {
               part = k;
               quota = Array.length p.frames;
               resident = Hashtbl.length p.table;
               p_hits = p.pstats.hits;
               p_misses = p.pstats.misses;
               p_evictions = p.pstats.evictions;
               p_log_captures = p.pstats.log_captures;
               p_contended = Atomic.get p.waited;
               frame_infos = infos;
             }))
       t.parts)

(* --- WAL attachment ----------------------------------------------------- *)

let attach_wal t wal = t.wal <- Some wal
let wal t = t.wal
let set_tx t tx = t.wal_tx <- tx
let set_strict_wal t b = t.strict_wal <- b

(* A record's framing beyond its two images (length prefix, tag, LSN,
   tx, page, offset, image lengths, checksum): an identical gap costs
   twice its length inside a joined record, so a gap shorter than half
   the framing is cheaper to log than to split at. *)
let record_framing = 16

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* Log what a dirty callback changed: one physiological record per run
   of differing bytes, runs closer than [record_framing / 2] joined.
   Each logged range starts and ends on a differing byte.  Equal
   stretches are skipped 8 bytes at a time. *)
let capture_diff t p (w : Wal.t) (before : Bytes.t) (f : frame) =
  let after = f.buf in
  let n = Bytes.length before in
  let rec next_diff i =
    if i + 8 <= n && get64u before i = get64u after i then next_diff (i + 8)
    else if i < n && Bytes.unsafe_get before i = Bytes.unsafe_get after i then next_diff (i + 1)
    else i
  in
  let rec next_same i =
    if i < n && Bytes.unsafe_get before i <> Bytes.unsafe_get after i then next_same (i + 1)
    else i
  in
  (* [lo] differs; log the run it starts, with every later run that
     begins within the join distance of its end *)
  let rec runs lo =
    let rec extend hi =
      let next = next_diff hi in
      if next < n && 2 * (next - hi) < record_framing then extend (next_same next) else (hi, next)
    in
    let hi, next = extend (next_same lo) in
    let len = hi - lo in
    f.lsn <-
      Wal.log_update w ~tx:t.wal_tx ~page:f.page ~off:lo
        ~before:(Bytes.sub_string before lo len)
        ~after:(Bytes.sub_string after lo len);
    if next < n then runs next
  in
  let first = next_diff 0 in
  if first < n then begin
    runs first;
    p.pstats.log_captures <- p.pstats.log_captures + 1
  end

(* --- flushing ----------------------------------------------------------- *)

let flush_frame t f =
  if f.dirty && f.page >= 0 then begin
    (match t.wal with
    | Some w when f.lsn > Wal.durable_lsn w ->
        if t.strict_wal then
          raise
            (Wal_ordering
               (Printf.sprintf
                  "page %d (LSN %d) would reach disk before its log record (durable LSN %d)"
                  f.page f.lsn (Wal.durable_lsn w)))
        else Wal.flush ~forced:true w
    | _ -> ());
    Disk.write_from t.disk f.page f.buf;
    f.dirty <- false
  end

let flush_all t =
  Array.iter (fun p -> latched p (fun () -> Array.iter (flush_frame t) p.frames)) t.parts

(* Pick a victim frame in the partition: empty frame if any, else LRU
   unpinned; None when every frame is pinned. *)
let victim p =
  let best = ref (-1) in
  Array.iteri
    (fun i f ->
      if f.pins = 0 then
        if f.page = -1 then (if !best = -1 || p.frames.(!best).page <> -1 then best := i)
        else if !best = -1 || (p.frames.(!best).page <> -1 && f.lru < p.frames.(!best).lru) then
          best := i)
    p.frames;
  if !best = -1 then None else Some p.frames.(!best)

(* Look the page up in its partition; load it over a victim frame on a
   miss.  Runs under [p.latch].  None = every frame pinned. *)
let try_load t p page =
  p.tick <- p.tick + 1;
  match Hashtbl.find_opt p.table page with
  | Some f ->
      p.pstats.hits <- p.pstats.hits + 1;
      f.lru <- p.tick;
      Some f
  | None -> (
      match victim p with
      | None -> None
      | Some f ->
          p.pstats.misses <- p.pstats.misses + 1;
          if f.page >= 0 then begin
            p.pstats.evictions <- p.pstats.evictions + 1;
            flush_frame t f;
            Hashtbl.remove p.table f.page
          end;
          Disk.read_into t.disk page f.buf;
          f.page <- page;
          f.dirty <- false;
          f.lsn <- 0;
          f.lru <- p.tick;
          Hashtbl.replace p.table page f;
          Some f)

(* Take an evictable frame away from [q] (under its latch); the frame
   leaves the partition empty and unowned. *)
let steal_from t q =
  latched q (fun () ->
      match victim q with
      | None -> None
      | Some f ->
          if f.page >= 0 then begin
            q.pstats.evictions <- q.pstats.evictions + 1;
            flush_frame t f;
            Hashtbl.remove q.table f.page
          end;
          f.page <- -1;
          f.dirty <- false;
          f.lsn <- 0;
          let keep = Array.of_seq (Seq.filter (fun g -> g != f) (Array.to_seq q.frames)) in
          q.frames <- keep;
          Some f)

(* Pressure-driven quota rebalance: donate one frame to the starved
   partition [p].  Donors with spare quota are preferred; a partition
   is drained to zero frames only as a last resort.  Returns false when
   no partition has an unpinned frame (the pool really is exhausted). *)
let rebalance t p =
  Mutex.lock t.rebalance_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.rebalance_mu)
    (fun () ->
      let stolen = ref None in
      let try_pass ~min_quota =
        Array.iter
          (fun q ->
            if !stolen = None && q != p && Array.length q.frames >= min_quota then
              stolen := steal_from t q)
          t.parts
      in
      try_pass ~min_quota:2;
      if !stolen = None then try_pass ~min_quota:1;
      match !stolen with
      | None -> false
      | Some f ->
          latched p (fun () -> p.frames <- Array.append p.frames [| f |]);
          Atomic.incr t.rebalanced;
          true)

let with_page t page ~dirty fn =
  let p = part_of t page in
  (* lookup/eviction and the pin happen atomically under the partition
     latch; the callback itself runs unlatched (the pin keeps the frame
     resident).  A fully-pinned partition borrows a frame from a
     sibling and retries. *)
  let logging = dirty && Option.is_some t.wal in
  let rec pin () =
    match latched_pin p (fun () ->
        match try_load t p page with
        | Some f ->
            f.pins <- f.pins + 1;
            (* a before-image buffer for the log, taken with the pin;
               nested writes to the same partition each take their own *)
            let spare =
              if not logging then None
              else
                match p.spares with
                | b :: rest ->
                    p.spares <- rest;
                    Some b
                | [] -> Some (Bytes.create (Bytes.length f.buf))
            in
            Some (f, spare)
        | None -> None)
    with
    | Some pinned -> pinned
    | None -> if rebalance t p then pin () else raise Pool_exhausted
  in
  let f, before = pin () in
  (* Snapshot for the log: the capture runs in the cleanup path so even
     a callback that raises mid-mutation leaves its changes logged (and
     therefore undoable). *)
  Option.iter (fun b -> Bytes.blit f.buf 0 b 0 (Bytes.length b)) before;
  Fun.protect
    ~finally:(fun () ->
      latched p (fun () ->
          (match before with
          | Some b ->
              Option.iter (fun w -> capture_diff t p w b f) t.wal;
              p.spares <- b :: p.spares
          | None -> ());
          f.pins <- f.pins - 1;
          if dirty then f.dirty <- true))
    (fun () ->
      let r = fn f.buf in
      if dirty then f.dirty <- true;
      r)

let read t page fn = with_page t page ~dirty:false fn
let write t page fn = with_page t page ~dirty:true fn

(* Allocate a fresh disk page and expose it dirty in the pool. *)
let alloc t =
  let page = Disk.alloc t.disk in
  (match t.wal with
  | Some w -> ignore (Wal.log_alloc w ~tx:t.wal_tx ~page)
  | None -> ());
  page
