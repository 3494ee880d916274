(* WAL log shipping: primary/replica replication on the durable-prefix
   model.

   The primary streams its WAL's durable prefix over the ordinary wire
   protocol: a replica connects like any client and sends
   [Repl_handshake { start_lsn }]; from then on the connection is a
   replication stream — the primary ships [Repl_batch] frames (raw
   framed WAL records plus its durable LSN) and blocks for the
   replica's [Repl_ack { applied_lsn }] before shipping the next.  A
   batch is cut at the durable mark, so nothing unfsynced ever leaves
   the primary, and the ship loop wakes within a millisecond of each
   group-commit fsync — one batch per fsync under load, one (empty)
   heartbeat per idle interval otherwise.

   The replica replays each batch through its own buffer pool with the
   same redo rule recovery uses — repeat history, byte for byte, in LSN
   order — and refreshes its catalog from the newest commit/checkpoint
   payload in the batch, so a shipped transaction's objects become
   visible exactly when its commit record applies.  Applied images are
   captured by the replica's own WAL, which is what makes the replica
   locally recoverable ([crash_restart]) and promotable ([promote]:
   undo the unresolved transactions' before-images, newest first, and
   start accepting writes).

   Catch-up is a plain handshake from the replica's applied LSN.
   Because redo is byte-exact and therefore idempotent, the primary may
   ship from any conservative point; it exploits that to rewind the
   handshake LSN below the oldest transaction still unresolved at that
   point, so a restarted replica always re-learns the undo images it
   lost with its process. *)

module Db = Nf2.Db
module Wal = Nf2_storage.Wal
module P = Nf2_server.Protocol
module Server = Nf2_server.Server
module Session = Nf2_server.Session
module Metrics = Nf2_server.Metrics

type link_fault =
  | Drop_every of int  (* sever the link at every k-th batch send *)
  | Drop_at of int  (* sever the link at exactly the k-th batch send *)

exception Link_severed

(* --- primary side -------------------------------------------------------- *)

module Primary = struct
  type replica_stat = {
    rid : int;
    connected : bool;
    start_lsn : Wal.lsn;
    shipped_lsn : Wal.lsn;
    applied_lsn : Wal.lsn;
    batches : int;
    bytes : int;
  }

  type link = {
    l_rid : int;
    l_start : Wal.lsn;
    mutable l_connected : bool;
    mutable l_shipped : Wal.lsn;
    mutable l_applied : Wal.lsn;
    mutable l_batches : int;
    mutable l_bytes : int;
  }

  type t = {
    db : Db.t;
    wal : Wal.t;
    heartbeat : float;
    max_batch : int;
    metrics : Metrics.t option;
    mu : Mutex.t;
    mutable links : link list; (* newest first; dead links stay for lag history *)
    mutable next_rid : int;
    mutable fault : link_fault option;
    mutable batches_total : int; (* batch sends across all links, for the k-th-batch fault *)
    mutable faults_fired : int;
  }

  let with_mu p f =
    Mutex.lock p.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock p.mu) f

  (* The shipper's counter source, read live by the registry: per-link
     applied LSN and lag (dead links stay, for lag history), the
     durable LSN, and the connected count. *)
  let counters p () =
    let durable = Wal.durable_lsn p.wal in
    with_mu p (fun () ->
        ("repl.durable_lsn", durable)
        :: ("repl.replicas_connected", List.length (List.filter (fun l -> l.l_connected) p.links))
        :: List.concat_map
             (fun l ->
               let labeled name = Metrics.labeled_key name [ ("replica", string_of_int l.l_rid) ] in
               [
                 (labeled "repl.applied_lsn", l.l_applied);
                 (labeled "repl.lag_records", max 0 (durable - l.l_applied));
               ])
             p.links)

  let create ?(heartbeat = 0.05) ?(max_batch = 4 * 1024 * 1024) ?metrics (db : Db.t) : t =
    let wal =
      match Db.wal db with
      | Some w -> w
      | None -> invalid_arg "Repl.Primary.create: database has no WAL attached"
    in
    let p =
      {
        db;
        wal;
        heartbeat;
        max_batch;
        metrics;
        mu = Mutex.create ();
        links = [];
        next_rid = 1;
        fault = None;
        batches_total = 0;
        faults_fired = 0;
      }
    in
    Option.iter (fun m -> Metrics.add_source m (counters p)) metrics;
    p

  let set_link_fault p f = with_mu p (fun () -> p.fault <- f)
  let faults_fired p = with_mu p (fun () -> p.faults_fired)

  let replicas p : replica_stat list =
    with_mu p (fun () ->
        List.rev_map
          (fun l ->
            {
              rid = l.l_rid;
              connected = l.l_connected;
              start_lsn = l.l_start;
              shipped_lsn = l.l_shipped;
              applied_lsn = l.l_applied;
              batches = l.l_batches;
              bytes = l.l_bytes;
            })
          p.links)

  (* The effective handshake start.  A replica resuming from [start]
     lost its in-memory undo tracking with its process, so transactions
     still unresolved at [start] must be re-shipped from their Begin —
     redo is idempotent, so the overlap is harmless, and promotion undo
     stays complete across replica restarts. *)
  let effective_start (wal : Wal.t) (start : Wal.lsn) : Wal.lsn =
    let live = Hashtbl.create 8 in
    List.iter
      (fun (lsn, r) ->
        if lsn <= start then
          match r with
          | Wal.Begin tx when tx <> Wal.system_tx -> Hashtbl.replace live tx lsn
          | Wal.Commit { tx; _ } | Wal.Abort tx -> Hashtbl.remove live tx
          | _ -> ())
      (Wal.records_of_string (Wal.durable_contents wal));
    Hashtbl.fold (fun _ begin_lsn acc -> min acc (begin_lsn - 1)) live start

  let register p (start : Wal.lsn) : link =
    with_mu p (fun () ->
        let rid = p.next_rid in
        p.next_rid <- rid + 1;
        let l =
          {
            l_rid = rid;
            l_start = start;
            l_connected = true;
            l_shipped = start;
            l_applied = start;
            l_batches = 0;
            l_bytes = 0;
          }
        in
        p.links <- l :: p.links;
        l)

  (* The armed link fault, checked at each batch send. *)
  let maybe_sever p =
    let fire =
      with_mu p (fun () ->
          p.batches_total <- p.batches_total + 1;
          match p.fault with
          | Some (Drop_every k) when k > 0 -> p.batches_total mod k = 0
          | Some (Drop_at k) -> p.batches_total = k
          | _ -> false)
    in
    if fire then begin
      with_mu p (fun () -> p.faults_fired <- p.faults_fired + 1);
      (match p.metrics with Some m -> Metrics.incr m "repl_link_faults" | None -> ());
      raise Link_severed
    end

  let ship_loop p (l : link) (fd : Unix.file_descr) =
    let rec loop () =
      (* wait for the durable mark to pass what we shipped, at most one
         heartbeat interval: an idle link still carries empty batches,
         so a dead peer or a stopping server surfaces promptly as a
         send/recv failure rather than a stuck thread *)
      let give_up = Unix.gettimeofday () +. p.heartbeat in
      while Wal.durable_lsn p.wal <= l.l_shipped && Unix.gettimeofday () < give_up do
        Thread.delay 0.001
      done;
      let records, last, durable = Wal.durable_since ~max_bytes:p.max_batch p.wal l.l_shipped in
      maybe_sever p;
      P.send_response fd (P.Repl_batch { records; durable_lsn = durable });
      l.l_batches <- l.l_batches + 1;
      l.l_bytes <- l.l_bytes + String.length records;
      (match p.metrics with
      | Some m ->
          Metrics.incr m "repl_batches_shipped";
          Metrics.add m "repl_bytes_shipped" (String.length records)
      | None -> ());
      match P.recv_request fd with
      | Some (P.Repl_ack { applied_lsn }) ->
          l.l_shipped <- max l.l_shipped last;
          l.l_applied <- max l.l_applied applied_lsn;
          loop ()
      | Some P.Quit -> ( try P.send_response fd P.Bye with _ -> ())
      | Some _ ->
          P.send_response fd
            (P.Error { code = P.err_protocol; message = "expected Repl_ack on a replication stream" })
      | None -> ()
    in
    loop ()

  (* Serve one replication stream; returns when the link ends (replica
     gone, server stopping, or an armed fault severed it). *)
  let serve p (fd : Unix.file_descr) ~(start_lsn : int) =
    if start_lsn > Wal.durable_lsn p.wal then
      try
        P.send_response fd
          (P.Error
             {
               code = P.err_protocol;
               message =
                 Printf.sprintf "handshake LSN %d is beyond this primary's durable LSN %d"
                   start_lsn (Wal.durable_lsn p.wal);
             })
      with _ -> ()
    else begin
      (* the shipper blocks on acks, not requests: the session tier's
         idle timeout must not cut a healthy but quiet stream *)
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0. with Unix.Unix_error _ -> ());
      let l = register p (effective_start p.wal start_lsn) in
      Fun.protect
        ~finally:(fun () -> l.l_connected <- false)
        (fun () ->
          try ship_loop p l fd with
          | Link_severed -> ( try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
          | Unix.Unix_error _ | P.Protocol_error _ -> ())
    end
end

(* --- replica side --------------------------------------------------------- *)

module Replica = struct
  type t = {
    mu : Mutex.t; (* serializes promote / lifecycle transitions *)
    db : Db.t;
    live : (Wal.txid, (Wal.lsn * int * int * string) list) Hashtbl.t;
        (* unresolved shipped transactions -> (lsn, page, off, before), newest first *)
    mutable applied_lsn : Wal.lsn;
    mutable source_durable : Wal.lsn;
    mutable read_only : bool;
    mutable ckpt_applied : Wal.lsn; (* applied LSN at the last local checkpoint *)
    mutable srv : Server.t option;
    mutable stop_flag : bool;
    mutable link : Unix.file_descr option;
    mutable applier : Thread.t option;
    mutable reconnects : int;
    mutable batches : int;
    mutable records_applied : int;
    mutable apply_hook : (int -> unit) option;
        (* called with the 1-based running record count before each apply *)
  }

  let create ?page_size ?frames () : t =
    {
      mu = Mutex.create ();
      db = Db.create ?page_size ?frames ~wal:true ();
      live = Hashtbl.create 8;
      applied_lsn = 0;
      source_durable = 0;
      read_only = true;
      ckpt_applied = 0;
      srv = None;
      stop_flag = false;
      link = None;
      applier = None;
      reconnects = 0;
      batches = 0;
      records_applied = 0;
      apply_hook = None;
    }

  let db t = t.db
  let applied_lsn t = t.applied_lsn
  let source_durable_lsn t = t.source_durable
  let read_only t = t.read_only
  let reconnects t = t.reconnects
  let set_apply_hook t h = t.apply_hook <- h

  (* Batch application races with serving statements for the engine;
     the session manager's engine mutex is the arbiter. *)
  let locked_engine t f =
    match t.srv with Some s -> Session.with_engine (Server.session_manager s) f | None -> f ()

  (* The applier's counter source, registered on the serving
     registry (see [serve]). *)
  let counters t () =
    [
      ("repl.applied_lsn", t.applied_lsn);
      ("repl.source_durable_lsn", t.source_durable);
      ("repl.lag_records", max 0 (t.source_durable - t.applied_lsn));
      ("repl.reconnects", t.reconnects);
      ("repl.batches_applied", t.batches);
      ("repl.records_applied", t.records_applied);
    ]

  (* Replay one shipped batch: redo every record in LSN order, track
     undo images of still-unresolved transactions (for promote), then
     refresh the catalog from the newest commit/checkpoint payload so
     shipped objects become visible atomically with the batch. *)
  let apply_batch t (records : string) (durable : Wal.lsn) =
    let recs = Wal.records_of_string records in
    locked_engine t (fun () ->
        let payload = ref None in
        List.iter
          (fun ((lsn, r) as entry) ->
            (match t.apply_hook with Some h -> h (t.records_applied + 1) | None -> ());
            (match r with
            | Wal.Begin tx when tx <> Wal.system_tx -> Hashtbl.replace t.live tx []
            | Wal.Update { tx; page; off; before; _ } when tx <> Wal.system_tx ->
                let undo = Option.value (Hashtbl.find_opt t.live tx) ~default:[] in
                Hashtbl.replace t.live tx ((lsn, page, off, before) :: undo)
            | Wal.Commit { tx; payload = pl } ->
                Hashtbl.remove t.live tx;
                (match pl with Some pl -> payload := Some (lsn, pl) | None -> ())
            | Wal.Abort tx -> Hashtbl.remove t.live tx
            | Wal.Checkpoint { payload = pl } -> (
                match pl with Some pl -> payload := Some (lsn, pl) | None -> ())
            | _ -> ());
            Db.replicate_record t.db entry;
            t.records_applied <- t.records_applied + 1)
          recs;
        (* publish the refreshed catalog as an MVCC version at the
           shipped record's LSN: snapshot readers on this replica see a
           consistent state that advances exactly with [applied_lsn] *)
        (match !payload with Some (lsn, pl) -> Db.replicate_catalog ~lsn t.db pl | None -> ());
        (match List.rev recs with
        | (lsn, _) :: _ -> t.applied_lsn <- max t.applied_lsn lsn
        | [] -> ());
        t.source_durable <- max t.source_durable durable)

  (* One connection to the primary: handshake from our applied LSN,
     then apply/ack until the link drops or [stop] is called. *)
  let run_once t ~(host : string) ~(port : int) : (unit, exn) result =
    (* standalone use (no background applier): a previous [stop] must
       not leave the pump dead before it starts *)
    if t.applier = None then t.stop_flag <- false;
    match
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
       with e ->
         (try Unix.close fd with _ -> ());
         raise e);
      fd
    with
    | exception e -> Error e
    | fd -> (
        t.link <- Some fd;
        Fun.protect
          ~finally:(fun () ->
            t.link <- None;
            try Unix.close fd with _ -> ())
          (fun () ->
            match
              P.send_request fd (P.Repl_handshake { start_lsn = t.applied_lsn });
              let rec pump () =
                if not t.stop_flag then
                  match P.recv_response fd with
                  | Some (P.Repl_batch { records; durable_lsn }) ->
                      apply_batch t records durable_lsn;
                      t.batches <- t.batches + 1;
                      P.send_request fd (P.Repl_ack { applied_lsn = t.applied_lsn });
                      pump ()
                  | Some (P.Error { code; message }) ->
                      failwith
                        (Printf.sprintf "primary refused replication (%s): %s" code message)
                  | Some _ | None -> ()
              in
              pump ()
            with
            | () -> Ok ()
            | exception e -> Error e))

  (* Background applier with reconnect: every dropped or refused link is
     retried after [retry] seconds, handshaking from the current applied
     LSN — which is exactly catch-up. *)
  let start ?(retry = 0.05) t ~(host : string) ~(port : int) =
    if t.applier <> None then invalid_arg "Repl.Replica.start: applier already running";
    t.stop_flag <- false;
    let th =
      Thread.create
        (fun () ->
          let rec go attempt =
            if not t.stop_flag then begin
              if attempt > 0 then begin
                t.reconnects <- t.reconnects + 1;
                Thread.delay retry
              end;
              ignore (run_once t ~host ~port);
              go (attempt + 1)
            end
          in
          go 0)
        ()
    in
    t.applier <- Some th

  let stop t =
    t.stop_flag <- true;
    (match t.link with
    | Some fd -> ( try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
    | None -> ());
    (match t.applier with Some th -> ( try Thread.join th with _ -> ()) | None -> ());
    t.applier <- None

  (* Poll until the applied LSN reaches [lsn]; false on timeout. *)
  let wait_applied ?(timeout = 10.) t (lsn : Wal.lsn) : bool =
    let deadline = Unix.gettimeofday () +. timeout in
    let rec go () =
      if t.applied_lsn >= lsn then true
      else if Unix.gettimeofday () > deadline then false
      else begin
        Thread.delay 0.002;
        go ()
      end
    in
    go ()

  (* Promotion: stop the applier, undo the unresolved shipped
     transactions' before-images (newest first — the reverse-LSN rule
     recovery uses), open for writes, and checkpoint so the promoted
     node starts its standalone life from a clean recovery point.  A
     promoted node also ships its own log onward. *)
  let promote t : string =
    Mutex.lock t.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) @@ fun () ->
    if not t.read_only then "already a primary"
    else begin
      stop t;
      let ntxns = Hashtbl.length t.live in
      let images =
        Hashtbl.fold (fun _ l acc -> List.rev_append l acc) t.live []
        |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare (b : int) a)
        |> List.map (fun (_, page, off, before) -> (page, off, before))
      in
      Hashtbl.reset t.live;
      let ckpt =
        locked_engine t (fun () ->
            Db.replicate_undo t.db images;
            t.read_only <- false;
            Db.wal_checkpoint t.db)
      in
      t.ckpt_applied <- t.applied_lsn;
      (match t.srv with
      | Some s ->
          Session.set_read_only (Server.session_manager s) false;
          let p = Primary.create ~metrics:(Server.metrics s) t.db in
          Server.set_repl_handler s (fun fd ~start_lsn -> Primary.serve p fd ~start_lsn)
      | None -> ());
      Printf.sprintf
        "promoted to primary at LSN %d (%d unresolved transaction(s) undone, checkpoint LSN %d)"
        t.applied_lsn ntxns ckpt
    end

  (* Serve read-only queries over the ordinary server, sharing the
     replica's database; mutating statements are refused with the
     replica SQLSTATE until [promote]. *)
  let serve t (config : Server.config) : Server.t =
    (match t.srv with
    | Some _ -> invalid_arg "Repl.Replica.serve: already serving"
    | None -> ());
    let srv = Server.start ~db:t.db config in
    let mgr = Server.session_manager srv in
    Session.set_read_only mgr t.read_only;
    Session.set_promote_handler mgr (fun () -> promote t);
    t.srv <- Some srv;
    Metrics.add_source (Server.metrics srv) (counters t);
    srv

  let server t = t.srv

  (* Local durability point: flush the pool (local WAL first), log a
     checkpoint, and remember the applied LSN it covers — the handshake
     start after a crash. *)
  let checkpoint t : Wal.lsn =
    let lsn, applied =
      locked_engine t (fun () ->
          let lsn = Db.wal_checkpoint t.db in
          (lsn, t.applied_lsn))
    in
    t.ckpt_applied <- applied;
    lsn

  (* Simulated replica process crash.  Volatile state dies — buffer-pool
     frames, the live-transaction table, the applied watermark; the
     local disk image and local WAL durable prefix survive.  Returns a
     fresh replica recovered from that wreckage, resuming catch-up from
     the last checkpoint's applied LSN (the primary rewinds the
     handshake over transactions unresolved at that point, restoring the
     undo info this table lost). *)
  let crash_restart t : t =
    stop t;
    (match t.srv with
    | Some s ->
        Server.stop s;
        t.srv <- None
    | None -> ());
    let db = Db.recover_from_image (Db.crash_image t.db) in
    {
      mu = Mutex.create ();
      db;
      live = Hashtbl.create 8;
      applied_lsn = t.ckpt_applied;
      source_durable = 0;
      read_only = true;
      ckpt_applied = t.ckpt_applied;
      srv = None;
      stop_flag = false;
      link = None;
      applier = None;
      reconnects = 0;
      batches = 0;
      records_applied = 0;
      apply_hook = None;
    }
end

(* --- SYS_REPLICATION ---------------------------------------------------- *)

(* One row per replication link (dead links stay, for lag history),
   with the ack/lag state nested as a one-row PROGRESS subtable — the
   same freeze-at-first-touch contract as every other SYS provider, so
   joining it against SYS_WAL sees one consistent cut. *)
let sys_replication_provider (p : Primary.t) : Nf2_sys.Registry.provider =
  let open Nf2_sys.Registry.Build in
  let module Atom = Nf2_model.Atom in
  let schema =
    relation "SYS_REPLICATION"
      [
        field "RID" Atom.Tint;
        field "CONNECTED" Atom.Tbool;
        field "BATCHES" Atom.Tint;
        field "BYTES" Atom.Tint;
        nested "PROGRESS" Nf2_model.Schema.List
          [
            field "START_LSN" Atom.Tint;
            field "SHIPPED_LSN" Atom.Tint;
            field "APPLIED_LSN" Atom.Tint;
            field "DURABLE_LSN" Atom.Tint;
            field "LAG" Atom.Tint;
          ];
      ]
  in
  let materialize () =
    let durable = Wal.durable_lsn p.Primary.wal in
    List.map
      (fun (r : Primary.replica_stat) ->
        [
          vint r.Primary.rid;
          vbool r.Primary.connected;
          vint r.Primary.batches;
          vint r.Primary.bytes;
          vlist
            [
              [
                vint r.Primary.start_lsn;
                vint r.Primary.shipped_lsn;
                vint r.Primary.applied_lsn;
                vint durable;
                vint (max 0 (durable - r.Primary.applied_lsn));
              ];
            ];
        ])
      (Primary.replicas p)
  in
  { Nf2_sys.Registry.name = "SYS_REPLICATION"; schema; materialize }

(* Enable log shipping on a running server: handshake connections are
   handed to a shipper over the server's own database and metrics. *)
let attach (srv : Server.t) : Primary.t =
  let p = Primary.create ~metrics:(Server.metrics srv) (Server.db srv) in
  Nf2_sys.Registry.register (Db.sys_registry (Server.db srv)) (sys_replication_provider p);
  Server.set_repl_handler srv (fun fd ~start_lsn -> Primary.serve p fd ~start_lsn);
  p
