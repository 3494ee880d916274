(* Write-ahead log: an append-only sequence of LSN-stamped
   physiological records (byte-range before/after images of pages,
   transaction begin/commit/abort, checkpoints).

   The log models an append-only file with explicit durability: records
   are kept once, serialised, and accumulate in a volatile tail until
   [flush] moves the durable-prefix mark forward (an fsync).  A
   simulated crash keeps only the durable prefix — [durable_contents] —
   which the {!Recovery} module replays.  An optional sync hook
   (installed by {!Faulty_disk}) can make an fsync persist only part of
   the pending bytes and then kill the process, producing a torn log
   tail; the record framing (length prefix + checksum byte) lets the
   reader drop such a tail. *)

type lsn = int
type txid = int

(* Transaction 0 is the implicit "system" transaction: work done
   outside any explicit transaction (store creation, fixture loads).
   It is never undone by recovery. *)
let system_tx : txid = 0

type record =
  | Begin of txid
  | Update of { tx : txid; page : int; off : int; before : string; after : string }
  | Alloc of { tx : txid; page : int }
  | Commit of { tx : txid; payload : string option }
  | Abort of txid
  | Checkpoint of { payload : string option }

type stats = {
  mutable records : int;
  mutable bytes : int;  (* serialised log bytes appended *)
  mutable flushes : int;  (* fsyncs issued (commit, checkpoint, explicit) *)
  mutable forced_flushes : int;  (* fsyncs forced by the WAL-before-data rule *)
  mutable group_commit_batches : int;  (* group fsyncs covering >= 1 commit *)
  mutable group_commit_txns : int;  (* commits made durable by those fsyncs *)
  mutable appender_batches : int;  (* batches drained by the async appender *)
  mutable appender_txns : int;  (* commits covered by those batches *)
  mutable appender_max_batch : int;  (* largest single appender batch *)
}

(* All mutable state is guarded by [mu]: single-session use pays one
   uncontended lock per operation, while the server's sessions append
   concurrently and share fsyncs through [sync_to] (group commit). *)
type t = {
  mu : Mutex.t;
  cond : Condition.t;  (* signalled when the durable mark advances *)
  buf : Buffer.t;  (* the serialised log, volatile tail included *)
  mutable durable_len : int;  (* byte length of the fsynced prefix *)
  mutable durable_lsn : lsn;  (* last LSN wholly inside the durable prefix *)
  mutable next_lsn : lsn;
  mutable next_tx : txid;
  (* [buf] is the only copy of each record; [ends] locates them.  LSNs
     are dense from 1, so record [lsn] ends at [ends.(lsn - 1)] and the
     first [next_lsn - 1] slots are in use (8 bytes a record) *)
  mutable ends : int array;
  begins : (txid, int) Hashtbl.t;  (* open transaction -> offset of its Begin *)
  mutable sync_hook : (int -> int) option;  (* pending bytes -> bytes persisted *)
  mutable group_commit : bool;  (* commits defer their fsync to [sync_to] *)
  mutable group_window : unit -> unit;  (* leader's gathering pause *)
  mutable flushing : bool;  (* a leader is performing the group fsync *)
  mutable pending_commits : int;  (* commit records appended since the last flush *)
  mutable crashed : bool;  (* an fsync died; every waiter must observe it *)
  work : Condition.t;  (* signalled when the async appender has commits to drain *)
  mutable appender : Thread.t option;  (* dedicated batch-fsync thread *)
  mutable appender_run : bool;  (* appender drains until this drops *)
  mutable file : out_channel option;  (* log file mirroring the durable prefix *)
  stats : stats;
}

let zero_stats () =
  {
    records = 0;
    bytes = 0;
    flushes = 0;
    forced_flushes = 0;
    group_commit_batches = 0;
    group_commit_txns = 0;
    appender_batches = 0;
    appender_txns = 0;
    appender_max_batch = 0;
  }

let create () =
  {
    mu = Mutex.create ();
    cond = Condition.create ();
    buf = Buffer.create 4096;
    durable_len = 0;
    durable_lsn = 0;
    next_lsn = 1;
    next_tx = 1;
    ends = Array.make 1024 0;
    begins = Hashtbl.create 8;
    sync_hook = None;
    group_commit = false;
    group_window = (fun () -> ());
    flushing = false;
    pending_commits = 0;
    crashed = false;
    work = Condition.create ();
    appender = None;
    appender_run = false;
    file = None;
    stats = zero_stats ();
  }

let with_mu t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let stats t = t.stats

let counters (w : t option) =
  let s =
    match w with
    | Some w -> w.stats
    | None -> zero_stats ()
  in
  [
    ("wal.records", s.records);
    ("wal.bytes", s.bytes);
    ("wal.flushes", s.flushes);
    ("wal.forced_flushes", s.forced_flushes);
    ("wal.group_commit_batches", s.group_commit_batches);
    ("wal.group_commit_txns", s.group_commit_txns);
    ("wal.batch_fsyncs", s.appender_batches);
    ("wal.batch_commits", s.appender_txns);
    ("wal.batch_max_commits", s.appender_max_batch);
  ]

let reset_stats t =
  with_mu t (fun () ->
      t.stats.records <- 0;
      t.stats.bytes <- 0;
      t.stats.flushes <- 0;
      t.stats.forced_flushes <- 0;
      t.stats.group_commit_batches <- 0;
      t.stats.group_commit_txns <- 0;
      t.stats.appender_batches <- 0;
      t.stats.appender_txns <- 0;
      t.stats.appender_max_batch <- 0)

let set_sync_hook t hook = with_mu t (fun () -> t.sync_hook <- hook)

let set_group_commit ?(window = fun () -> ()) t enabled =
  with_mu t (fun () ->
      t.group_commit <- enabled;
      t.group_window <- window)

let durable_lsn t = t.durable_lsn
let last_lsn t = t.next_lsn - 1

(* --- record serialisation ---------------------------------------------

   Frame: uvarint payload length, payload, checksum byte (sum of
   payload bytes mod 251).  Payload: u8 tag, uvarint LSN, fields.  The
   frame makes a torn tail detectable: a truncated or half-synced final
   record fails the length or checksum test and is dropped. *)

let checksum (s : string) =
  let acc = ref 0 in
  String.iter (fun c -> acc := (!acc + Char.code c) mod 251) s;
  !acc

let encode_payload lsn (r : record) : string =
  let b = Codec.create_sink () in
  (match r with
  | Begin tx ->
      Codec.put_u8 b 1;
      Codec.put_uvarint b lsn;
      Codec.put_uvarint b tx
  | Update { tx; page; off; before; after } ->
      Codec.put_u8 b 2;
      Codec.put_uvarint b lsn;
      Codec.put_uvarint b tx;
      Codec.put_uvarint b page;
      Codec.put_uvarint b off;
      Codec.put_string b before;
      Codec.put_string b after
  | Alloc { tx; page } ->
      Codec.put_u8 b 3;
      Codec.put_uvarint b lsn;
      Codec.put_uvarint b tx;
      Codec.put_uvarint b page
  | Commit { tx; payload } ->
      Codec.put_u8 b 4;
      Codec.put_uvarint b lsn;
      Codec.put_uvarint b tx;
      (match payload with
      | None -> Codec.put_bool b false
      | Some p ->
          Codec.put_bool b true;
          Codec.put_string b p)
  | Abort tx ->
      Codec.put_u8 b 5;
      Codec.put_uvarint b lsn;
      Codec.put_uvarint b tx
  | Checkpoint { payload } ->
      Codec.put_u8 b 6;
      Codec.put_uvarint b lsn;
      (match payload with
      | None -> Codec.put_bool b false
      | Some p ->
          Codec.put_bool b true;
          Codec.put_string b p));
  Codec.contents b

let decode_payload (s : string) : lsn * record =
  let src = Codec.source_of_string s in
  let tag = Codec.get_u8 src in
  let lsn = Codec.get_uvarint src in
  let r =
    match tag with
    | 1 -> Begin (Codec.get_uvarint src)
    | 2 ->
        let tx = Codec.get_uvarint src in
        let page = Codec.get_uvarint src in
        let off = Codec.get_uvarint src in
        let before = Codec.get_string src in
        let after = Codec.get_string src in
        Update { tx; page; off; before; after }
    | 3 ->
        let tx = Codec.get_uvarint src in
        Alloc { tx; page = Codec.get_uvarint src }
    | 4 ->
        let tx = Codec.get_uvarint src in
        let payload = if Codec.get_bool src then Some (Codec.get_string src) else None in
        Commit { tx; payload }
    | 5 -> Abort (Codec.get_uvarint src)
    | 6 ->
        let payload = if Codec.get_bool src then Some (Codec.get_string src) else None in
        Checkpoint { payload }
    | n -> Codec.decode_error "Wal: record tag %d" n
  in
  (lsn, r)

(* Decode a serialised log, stopping silently at a torn tail (truncated
   frame or checksum mismatch). *)
let records_of_string (data : string) : (lsn * record) list =
  let src = Codec.source_of_string data in
  let rec go acc =
    if Codec.at_end src then List.rev acc
    else
      match
        let len = Codec.get_uvarint src in
        let payload = Codec.get_fixed src len in
        let sum = Codec.get_u8 src in
        if sum <> checksum payload then None else Some (decode_payload payload)
      with
      | None -> List.rev acc
      | Some entry -> go (entry :: acc)
      | exception Codec.Decode_error _ -> List.rev acc
  in
  go []

(* --- appending --------------------------------------------------------- *)

let append_unlocked t (mk : lsn -> record) : lsn =
  let lsn = t.next_lsn in
  t.next_lsn <- lsn + 1;
  let r = mk lsn in
  let payload = encode_payload lsn r in
  let frame = Codec.create_sink () in
  Codec.put_uvarint frame (String.length payload);
  Buffer.add_buffer t.buf frame;
  Buffer.add_string t.buf payload;
  Buffer.add_char t.buf (Char.chr (checksum payload));
  if lsn > Array.length t.ends then begin
    let bigger = Array.make (2 * Array.length t.ends) 0 in
    Array.blit t.ends 0 bigger 0 (Array.length t.ends);
    t.ends <- bigger
  end;
  t.ends.(lsn - 1) <- Buffer.length t.buf;
  t.stats.records <- t.stats.records + 1;
  t.stats.bytes <- Buffer.length t.buf;
  lsn

let append t mk = with_mu t (fun () -> append_unlocked t mk)

let begin_tx t : txid =
  with_mu t (fun () ->
      let tx = t.next_tx in
      t.next_tx <- tx + 1;
      Hashtbl.replace t.begins tx (Buffer.length t.buf);
      ignore (append_unlocked t (fun _ -> Begin tx));
      tx)

let log_update t ~tx ~page ~off ~before ~after : lsn =
  append t (fun _ -> Update { tx; page; off; before; after })

let log_alloc t ~tx ~page : lsn = append t (fun _ -> Alloc { tx; page })

(* --- durability --------------------------------------------------------

   [flush] is the fsync: it asks the sync hook (default: persist
   everything) how many pending bytes reach stable storage.  A partial
   answer advances the durable mark by that much and then raises
   {!Disk.Crash} — the fsync failed and the machine died.  With a log
   file attached, the bytes that became durable are appended to it and
   fsynced for real, so a torn fsync tears the file the same way. *)

let write_synced oc s =
  Out_channel.output_string oc s;
  Out_channel.flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

let flush_unlocked ?(forced = false) t =
  let total = Buffer.length t.buf in
  let pending = total - t.durable_len in
  if pending > 0 then begin
    t.stats.flushes <- t.stats.flushes + 1;
    if forced then t.stats.forced_flushes <- t.stats.forced_flushes + 1;
    t.pending_commits <- 0;
    let persisted =
      match t.sync_hook with None -> pending | Some h -> max 0 (min pending (h pending))
    in
    Option.iter (fun oc -> write_synced oc (Buffer.sub t.buf t.durable_len persisted)) t.file;
    t.durable_len <- t.durable_len + persisted;
    (* advance durable_lsn to the last record wholly inside the prefix:
       end offsets grow with the LSN, so walking back from the newest
       record the first that fits is the one — the walk is O(records
       since the last flush), not O(log) *)
    let rec advance lsn =
      if lsn > t.durable_lsn then
        if t.ends.(lsn - 1) <= t.durable_len then t.durable_lsn <- lsn else advance (lsn - 1)
    in
    advance (t.next_lsn - 1);
    (* every durable-mark advance wakes the waiters in [sync_to]: a
       forced WAL-before-data flush can make a parked commit durable *)
    Condition.broadcast t.cond;
    if persisted < pending then begin
      t.crashed <- true;
      raise (Disk.Crash "simulated fsync failure on the log")
    end
  end

let flush ?forced t = with_mu t (fun () -> flush_unlocked ?forced t)

(* Group commit: a committer appends its commit record under the lock;
   with group mode off it fsyncs immediately (the seed behaviour), with
   group mode on the fsync is deferred to [sync_to], where concurrent
   committers elect a leader that syncs once for everyone whose record
   is already in the tail (the durable-prefix model makes "everyone" be
   exactly the appended records).  The leader's [group_window] pause
   lets followers slip their commit records in before the fsync. *)
let commit t ~tx ~payload =
  with_mu t (fun () ->
      Hashtbl.remove t.begins tx;
      ignore (append_unlocked t (fun _ -> Commit { tx; payload }));
      if t.appender_run then begin
        (* async mode: enqueue for the appender thread and return; the
           caller parks in [sync_to] on the per-batch durable signal *)
        t.pending_commits <- t.pending_commits + 1;
        Condition.signal t.work
      end
      else if t.group_commit then t.pending_commits <- t.pending_commits + 1
      else flush_unlocked t)

(* Block until [lsn] is durable, sharing the fsync with every other
   committer waiting here.  @raise Disk.Crash if the covering fsync (by
   us or by another session's leader) died. *)
let sync_to t (lsn : lsn) =
  Mutex.lock t.mu;
  let rec loop () =
    if t.crashed then begin
      Mutex.unlock t.mu;
      raise (Disk.Crash "simulated fsync failure on the log")
    end
    else if t.durable_lsn >= lsn then Mutex.unlock t.mu
    else if t.appender_run then begin
      (* async mode: the dedicated appender owns every fsync — park on
         the durable-LSN signal it broadcasts per batch *)
      Condition.signal t.work;
      Condition.wait t.cond t.mu;
      loop ()
    end
    else if t.flushing then begin
      (* follower: a leader's fsync is in flight; wait for its verdict *)
      Condition.wait t.cond t.mu;
      loop ()
    end
    else begin
      (* leader: pause to gather followers, then fsync the whole tail.
         With no other committer pending the pause is skipped — a lone
         client must not pay the gathering window for an empty batch *)
      t.flushing <- true;
      if t.pending_commits > 1 then begin
        Mutex.unlock t.mu;
        t.group_window ();
        Mutex.lock t.mu
      end;
      let covered = t.pending_commits in
      let finish () =
        t.flushing <- false;
        Condition.broadcast t.cond;
        Mutex.unlock t.mu
      in
      (match flush_unlocked t with
      | () ->
          if covered > 0 then begin
            t.stats.group_commit_batches <- t.stats.group_commit_batches + 1;
            t.stats.group_commit_txns <- t.stats.group_commit_txns + covered
          end
      | exception e ->
          finish ();
          raise e);
      finish ()
    end
  in
  loop ()

(* --- async batched appender ---------------------------------------------

   A dedicated thread drains the submission queue (the volatile tail)
   with one write+fsync per batch.  The window is adaptive: woken from
   an idle wait it fsyncs immediately — a lone committer pays no
   gathering pause, which is what kills the 1-client group-commit
   cliff — but when the queue refills while a flush is in flight it
   yields once so concurrent committers can slip their records into the
   next batch.  Commit waiters park in [sync_to] on [cond], which
   [flush_unlocked] broadcasts every time the durable mark advances; a
   failed fsync sets [crashed], broadcasts, and the waiters raise
   [Disk.Crash] exactly as in the leader/follower scheme, so the
   durable-prefix crash model is unchanged. *)

let appender_loop t =
  Mutex.lock t.mu;
  let was_busy = ref false in
  let rec run () =
    if not t.appender_run then Mutex.unlock t.mu
    else if Buffer.length t.buf = t.durable_len then begin
      was_busy := false;
      Condition.wait t.work t.mu;
      run ()
    end
    else begin
      if !was_busy then begin
        (* continuous load: let committers append into this batch *)
        Mutex.unlock t.mu;
        Thread.yield ();
        Mutex.lock t.mu
      end;
      let covered = t.pending_commits in
      match flush_unlocked t with
      | () ->
          if covered > 0 then begin
            t.stats.group_commit_batches <- t.stats.group_commit_batches + 1;
            t.stats.group_commit_txns <- t.stats.group_commit_txns + covered;
            t.stats.appender_batches <- t.stats.appender_batches + 1;
            t.stats.appender_txns <- t.stats.appender_txns + covered;
            if covered > t.stats.appender_max_batch then
              t.stats.appender_max_batch <- covered
          end;
          was_busy := true;
          run ()
      | exception Disk.Crash _ ->
          (* crashed flag set and waiters woken by flush_unlocked; the
             appender dies with the simulated machine *)
          t.appender_run <- false;
          Mutex.unlock t.mu
    end
  in
  run ()

let set_async_appender t enabled =
  if enabled then
    with_mu t (fun () ->
        if t.appender = None && not t.crashed then begin
          t.appender_run <- true;
          t.appender <- Some (Thread.create appender_loop t)
        end)
  else begin
    let th =
      with_mu t (fun () ->
          let th = t.appender in
          t.appender_run <- false;
          t.appender <- None;
          Condition.signal t.work;
          (* waiters parked on [cond] must re-check and fall back to
             the leader/follower path now that no appender will flush *)
          Condition.broadcast t.cond;
          th)
    in
    (* join outside the mutex: the appender needs it to exit *)
    match th with Some th -> Thread.join th | None -> ()
  end

let appender_running t = with_mu t (fun () -> t.appender_run)

let log_abort t tx =
  with_mu t (fun () ->
      Hashtbl.remove t.begins tx;
      ignore (append_unlocked t (fun _ -> Abort tx)))

let log_checkpoint t ~payload =
  with_mu t (fun () ->
      let lsn = append_unlocked t (fun _ -> Checkpoint { payload }) in
      flush_unlocked t;
      lsn)

(* --- log file -------------------------------------------------------------

   The file is the header followed by the durable bytes since it was
   last (re)started.  The header keeps a file of another format from
   being read as a torn tail of an empty log; a file that is only a
   (possibly torn) prefix of the header holds no records. *)

let file_header = "AIMII-WAL1\n"

let start_file t path =
  with_mu t (fun () ->
      Option.iter Out_channel.close t.file;
      let oc = Out_channel.open_bin path in
      write_synced oc file_header;
      t.file <- Some oc)

let file_records path =
  let data = In_channel.with_open_bin path In_channel.input_all in
  let n = min (String.length data) (String.length file_header) in
  if String.sub data 0 n <> String.sub file_header 0 n then None
  else Some (String.sub data n (String.length data - n))

(* --- introspection ------------------------------------------------------ *)

let contents t = with_mu t (fun () -> Buffer.contents t.buf)
let durable_contents t = with_mu t (fun () -> Buffer.sub t.buf 0 t.durable_len)

(* The log-shipping read: every durable record strictly after [since],
   raw framed bytes ready for re-decoding on the replica.  The slice
   starts where record [since] ends and takes durable records in LSN
   order; [max_bytes] cuts it at a record boundary (always keeping at
   least one record) so one batch never outgrows a wire frame. *)
let durable_since ?(max_bytes = max_int) t (since : lsn) : string * lsn * lsn =
  with_mu t (fun () ->
      let last = t.next_lsn - 1 in
      let start_off = if since >= 1 && since <= last then t.ends.(since - 1) else 0 in
      let first = max 1 (since + 1) in
      (* the batch is [first .. stop] *)
      let rec cut lsn =
        if
          lsn <= last
          && t.ends.(lsn - 1) <= t.durable_len
          && (lsn = first || t.ends.(lsn - 1) - start_off <= max_bytes)
        then cut (lsn + 1)
        else lsn - 1
      in
      let stop = cut first in
      if stop < first then ("", since, t.durable_lsn)
      else (Buffer.sub t.buf start_off (t.ends.(stop - 1) - start_off), stop, t.durable_lsn))

(* Chronological (page, off, before) images of a transaction's updates,
   for runtime rollback: only the log from the transaction's Begin on
   is decoded. *)
let tx_updates t tx : (int * int * string) list =
  with_mu t (fun () ->
      match Hashtbl.find_opt t.begins tx with
      | None -> []
      | Some start ->
          List.filter_map
            (fun (_, r) ->
              match r with
              | Update u when u.tx = tx -> Some (u.page, u.off, u.before)
              | _ -> None)
            (records_of_string (Buffer.sub t.buf start (Buffer.length t.buf - start))))
