(* Server loop: TCP accept loop with a bounded session pool.

   Each accepted connection gets its own worker thread running a
   request/response loop over {!Protocol} frames against a handler: a
   {!Session} on a plain node, the router on a shard coordinator
   ({!serve} is the one loop both run on).
   Admission control is strict: when [max_sessions] workers are live, a
   new connection is answered immediately with a Busy error and closed
   rather than left hanging in the backlog.  Idle sessions are closed
   after [idle_timeout] (enforced with a receive timeout on the
   socket).  {!stop} is graceful: it stops accepting, shuts down every
   client socket (which makes the workers exit and roll back their
   in-flight transactions), joins them, and checkpoints the WAL.

   Connection threads handle IO and locking; query *evaluation* for
   read-only statements is dispatched to a pool of worker domains
   ({!Executor}), so read throughput scales with cores instead of
   being time-sliced on the single domain systhreads share. *)

module Db = Nf2.Db

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  max_sessions : int;
  idle_timeout : float;  (** seconds; 0 disables the idle check *)
  lock_timeout : float;
  group_commit : bool;
  group_window : float;
  wal_appender : bool;  (** drain commits through the async batched appender *)
  slow_query : float option;  (** seconds; statements at/over it are logged with their trace *)
  domains : int;  (** worker domains for read evaluation; 0 = derive from the host's cores *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    max_sessions = 32;
    idle_timeout = 300.;
    lock_timeout = 2.0;
    group_commit = true;
    group_window = 0.002;
    wal_appender = true;
    slow_query = None;
    domains = 0;
  }

(* Keep one domain for the systhreads (accept loop, sessions, WAL);
   cap the derived size so a large host doesn't spawn domains the read
   workload can't feed. *)
let effective_domains (c : config) =
  if c.domains > 0 then c.domains
  else max 1 (min 4 (Domain.recommended_domain_count () - 1))

(* One accepted connection as the loop sees it: a request handler and
   the cleanup that runs when the connection ends.  A plain node serves
   a {!Session}; the shard coordinator serves its router. *)
type conn = { handle : Protocol.request -> Protocol.response; close : unit -> unit }

type t = {
  mgr : Session.manager;
  metrics : Metrics.t;
  config : config;
  open_conn : sid:int -> conn;
  on_stop : unit -> unit; (* runs once the workers are joined *)
  listener : Unix.file_descr;
  bound_port : int;
  mu : Mutex.t;
  workers : (int, Thread.t * Unix.file_descr) Hashtbl.t;
  mutable next_sid : int;
  mutable running : bool;
  mutable accept_thread : Thread.t option;
  mutable repl_handler : (Unix.file_descr -> start_lsn:int -> unit) option;
      (* installed by Repl.attach: owns a connection after its handshake *)
}

let port t = t.bound_port
let db t = Session.manager_db t.mgr
let metrics t = t.metrics
let session_manager t = t.mgr
let set_repl_handler t h = t.repl_handler <- Some h

let with_mu t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* --- per-connection worker ---------------------------------------------- *)

let is_timeout = function
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) -> true
  | _ -> false

let serve_connection (t : t) (conn : conn) (fd : Unix.file_descr) =
  if t.config.idle_timeout > 0. then
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.idle_timeout;
  let rec loop () =
    match Protocol.recv_request fd with
    | None -> () (* clean disconnect *)
    | exception e when is_timeout e ->
        Metrics.incr t.metrics "sessions_idle_closed";
        (try Protocol.send_response fd (Protocol.Error
               { code = Protocol.err_protocol; message = "idle timeout, closing session" })
         with _ -> ())
    | exception Protocol.Protocol_error m ->
        (try Protocol.send_response fd (Protocol.Error { code = Protocol.err_protocol; message = m })
         with _ -> ())
    | Some (Protocol.Repl_handshake { start_lsn }) -> (
        (* the connection stops being a request/response session and
           becomes a replication stream owned by the shipper; when the
           handler returns (link severed, server stopping) the worker's
           normal cleanup closes the socket *)
        match t.repl_handler with
        | Some handler ->
            Metrics.incr t.metrics "repl_links_accepted";
            handler fd ~start_lsn
        | None ->
            Protocol.send_response fd
              (Protocol.Error
                 { code = Protocol.err_protocol; message = "replication not enabled on this server" }))
    | Some req -> (
        match conn.handle req with
        | resp ->
            Protocol.send_response fd resp;
            if resp <> Protocol.Bye then loop ()
        | exception Nf2_storage.Disk.Crash _ ->
            (* fault injection killed the disk: simulate machine death —
               no farewell frame, the client just sees EOF *)
            Metrics.incr t.metrics "sessions_crashed"
        | exception e ->
            (try Protocol.send_response fd (Protocol.Error
                   { code = Protocol.err_internal; message = Printexc.to_string e })
             with _ -> ()))
  in
  (try loop () with _ -> ());
  conn.close ()

let worker (t : t) (sid : int) (fd : Unix.file_descr) =
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with _ -> ());
      with_mu t (fun () -> Hashtbl.remove t.workers sid);
      Metrics.add t.metrics "sessions_active" (-1))
    (fun () -> serve_connection t (t.open_conn ~sid) fd)

(* --- accept loop --------------------------------------------------------- *)

let admit (t : t) (fd : Unix.file_descr) =
  Metrics.incr t.metrics "connections_total";
  (* admission check and registration are one critical section, so the
     pool can never exceed max_sessions *)
  let sid =
    with_mu t (fun () ->
        if Hashtbl.length t.workers >= t.config.max_sessions then None
        else begin
          let sid = t.next_sid in
          t.next_sid <- sid + 1;
          (* placeholder so concurrent accepts count this slot; the
             thread id is filled in below under the same mutex *)
          Hashtbl.replace t.workers sid (Thread.self (), fd);
          Some sid
        end)
  in
  match sid with
  | None ->
      Metrics.incr t.metrics "connections_rejected";
      (try
         Protocol.send_response fd
           (Protocol.Error { code = Protocol.err_busy; message = "too many sessions, try again later" })
       with _ -> ());
      (try Unix.close fd with _ -> ())
  | Some sid ->
      Metrics.incr t.metrics "sessions_active";
      let th = Thread.create (fun () -> worker t sid fd) () in
      with_mu t (fun () ->
          if Hashtbl.mem t.workers sid then Hashtbl.replace t.workers sid (th, fd))

let accept_loop (t : t) =
  while with_mu t (fun () -> t.running) do
    (* select with a short timeout so stop () is noticed promptly even
       with no incoming connections *)
    match Unix.select [ t.listener ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept t.listener with
        | fd, _ -> admit t fd
        | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  done

(* --- lifecycle ----------------------------------------------------------- *)

let serve ~(on_stop : unit -> unit) (config : config) ~(metrics : Metrics.t)
    (mgr : Session.manager) (open_conn : sid:int -> conn) : t =
  (* a client that hangs up mid-response must surface as EPIPE in its
     worker, not kill the server *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port) in
  (try Unix.bind listener addr
   with e ->
     Unix.close listener;
     raise e);
  Unix.listen listener 64;
  let bound_port =
    match Unix.getsockname listener with Unix.ADDR_INET (_, p) -> p | _ -> config.port
  in
  let t =
    {
      mgr;
      metrics;
      config;
      open_conn;
      on_stop;
      listener;
      bound_port;
      mu = Mutex.create ();
      workers = Hashtbl.create 16;
      next_sid = 1;
      running = true;
      accept_thread = None;
      repl_handler = None;
    }
  in
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

let session_conn (mgr : Session.manager) ~(sid : int) : conn =
  let sess = Session.open_session mgr ~sid in
  { handle = Session.handle sess; close = (fun () -> Session.close_session sess) }

let start ?db:(db_opt : Db.t option) (config : config) : t =
  let db = match db_opt with Some db -> db | None -> Db.create ~wal:true () in
  let metrics = Metrics.create () in
  let executor = Executor.create ~domains:(effective_domains config) in
  let mgr =
    Session.create_manager ~lock_timeout:config.lock_timeout ~group_commit:config.group_commit
      ~group_window:config.group_window ~wal_appender:config.wal_appender
      ?slow_query:config.slow_query ~executor ~metrics db
  in
  serve ~on_stop:(fun () -> Executor.shutdown executor) config ~metrics mgr (session_conn mgr)

let stop (t : t) =
  let was_running = with_mu t (fun () ->
      let r = t.running in
      t.running <- false;
      r)
  in
  if was_running then begin
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listener with _ -> ());
    (* shutting down the client sockets makes every worker's next read
       fail, so each one rolls back its in-flight transaction and exits *)
    let live = with_mu t (fun () -> Hashtbl.fold (fun _ w acc -> w :: acc) t.workers []) in
    List.iter (fun (_, fd) -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ()) live;
    List.iter (fun (th, _) -> try Thread.join th with _ -> ()) live;
    t.on_stop ();
    (* park the appender before the final checkpoint so its thread is
       joined and the checkpoint flush runs on the caller *)
    let db = db t in
    (match Db.wal db with
    | Some w -> ( try Nf2_storage.Wal.set_async_appender w false with _ -> ())
    | None -> ());
    (try ignore (Db.wal_checkpoint db) with _ -> ())
  end

let render_metrics (t : t) = Session.render_metrics t.mgr
