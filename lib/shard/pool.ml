(* Pooled connections from the coordinator to one shard.

   Every connection is born with a [Shard_join] handshake carrying the
   coordinator's map version and the shard's slot, so the shard can
   refuse routes stamped with a superseded map.  Requests ride
   [Shard_route] frames over an idle-connection pool; the per-statement
   deadline becomes a receive timeout on the socket, so a slow shard
   degrades to a typed timeout (57S02) instead of a hang.

   Failure handling, per request:
   - a stale-route refusal (55S01: some other coordinator re-joined
     this shard at a different version) re-handshakes on the same
     connection and retries once;
   - a timeout closes the (possibly poisoned) connection and fails the
     statement with 57S02 — the shard may be healthy, just slow, so it
     is *not* marked down;
   - a connection failure marks the shard Down and, for reads with a
     configured replica, falls back to the replica over a one-shot
     plain [Query] connection (the shard keeps its own replication
     chain; see docs/REPLICATION.md).  Writes fail typed (57S01).
   The primary is re-tried on every request, so a restarted shard
   heals the pool without coordinator restarts. *)

module P = Nf2_server.Protocol
module Client = Nf2_server.Client

(* A shard that cannot answer is refused like any other request, with
   the shard SQLSTATE and a message naming the shard. *)
let shard_error code fmt = Fmt.kstr (fun s -> raise (Nf2_server.Session.Refused (code, s))) fmt

type state = Up | Down | Replica_reads

let state_name = function Up -> "up" | Down -> "down" | Replica_reads -> "replica-reads"

type t = {
  member : Shard_map.member;
  map_version : int;
  nshards : int;
  cap : int; (* max idle connections kept *)
  mu : Mutex.t; (* guards [idle], [state], [last_error] *)
  mutable idle : Client.t list;
  mutable state : state;
  mutable last_error : string;
  routed : int Atomic.t; (* single-shard statements sent here *)
  fanout : int Atomic.t; (* scatter legs sent here *)
  errors : int Atomic.t;
  replica_reads : int Atomic.t;
  stale_retries : int Atomic.t;
}

let create ?(cap = 8) ~map_version ~nshards (member : Shard_map.member) : t =
  {
    member;
    map_version;
    nshards;
    cap;
    mu = Mutex.create ();
    idle = [];
    state = Up;
    last_error = "";
    routed = Atomic.make 0;
    fanout = Atomic.make 0;
    errors = Atomic.make 0;
    replica_reads = Atomic.make 0;
    stale_retries = Atomic.make 0;
  }

let member t = t.member
let addr t = Shard_map.addr_string t.member.Shard_map.primary

let with_mu t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let state t = with_mu t (fun () -> t.state)
let last_error t = with_mu t (fun () -> t.last_error)
let routed t = Atomic.get t.routed
let fanout t = Atomic.get t.fanout
let errors t = Atomic.get t.errors
let replica_reads t = Atomic.get t.replica_reads
let stale_retries t = Atomic.get t.stale_retries

let is_timeout = function
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) -> true
  | _ -> false

let note_ok t = with_mu t (fun () -> t.state <- Up)

let note_error t state msg =
  Atomic.incr t.errors;
  with_mu t (fun () ->
      (match state with Some s -> t.state <- s | None -> ());
      t.last_error <- msg)

(* A fresh joined connection, receive timeout already applied so even
   the handshake respects the statement's deadline. *)
let connect_joined t ~(timeout : float) : Client.t =
  let { Shard_map.host; port } = t.member.Shard_map.primary in
  let c = Client.connect ~host ~port in
  Client.set_receive_timeout c timeout;
  match
    Client.request c
      (P.Shard_join { map_version = t.map_version; shard_id = t.member.Shard_map.id; nshards = t.nshards })
  with
  | Some (P.Row_count _) -> c
  | Some (P.Error { message; _ }) ->
      Client.close c;
      failwith ("shard join refused: " ^ message)
  | _ ->
      Client.close c;
      failwith "shard join: no acknowledgement"

let checkout t ~(timeout : float) : Client.t =
  match with_mu t (fun () -> match t.idle with c :: rest -> t.idle <- rest; Some c | [] -> None) with
  | Some c ->
      Client.set_receive_timeout c timeout;
      c
  | None -> connect_joined t ~timeout

let checkin t (c : Client.t) =
  let kept =
    with_mu t (fun () ->
        if List.length t.idle < t.cap then begin
          t.idle <- c :: t.idle;
          true
        end
        else false)
  in
  if not kept then Client.close c

(* One-shot replica read: a throwaway plain [Query] connection — the
   replica is an ordinary read-only node that knows nothing of shard
   maps, and a statement landing there is by construction a read. *)
let replica_request t ~(timeout : float) (sql : string) : P.response option =
  match t.member.Shard_map.replica with
  | None -> None
  | Some { Shard_map.host; port } -> (
      match Client.connect ~host ~port with
      | exception _ -> None
      | c -> (
          Client.set_receive_timeout c timeout;
          match Client.request c (P.Query sql) with
          | Some resp ->
              Client.close c;
              Atomic.incr t.replica_reads;
              with_mu t (fun () -> t.state <- Replica_reads);
              Some resp
          | None | (exception _) ->
              (try Client.close c with _ -> ());
              None))

(* One routed statement against this shard.  [kind] only picks the
   counter ([`Routed] single-shard vs [`Fanout] scatter leg); [read]
   gates the replica fallback.  Returns the shard's response verbatim
   (including engine errors); raises [Session.Refused] when the shard
   cannot answer at all. *)
let request t ~(kind : [ `Routed | `Fanout ]) ~(read : bool) ~(deadline : float) (sql : string) :
    P.response =
  (match kind with `Routed -> Atomic.incr t.routed | `Fanout -> Atomic.incr t.fanout);
  let timeout = deadline -. Unix.gettimeofday () in
  if timeout <= 0. then begin
    note_error t None "gather deadline exceeded before dispatch";
    shard_error P.err_shard_timeout "shard %d (%s): gather deadline exceeded" t.member.Shard_map.id
      (addr t)
  end;
  let route c = Client.request c (P.Shard_route { map_version = t.map_version; sql }) in
  let fail_down msg =
    note_error t (Some Down) msg;
    match if read then replica_request t ~timeout sql else None with
    | Some resp -> resp
    | None ->
        if read && t.member.Shard_map.replica <> None then
          shard_error P.err_shard_down "shard %d (%s) unreachable and replica read failed: %s"
            t.member.Shard_map.id (addr t) msg
        else
          shard_error P.err_shard_down "shard %d (%s) unreachable: %s" t.member.Shard_map.id
            (addr t) msg
  in
  let fail_timeout c msg =
    (* the connection may still carry a late response; drop it *)
    (try Client.close c with _ -> ());
    note_error t None msg;
    shard_error P.err_shard_timeout "shard %d (%s): %s" t.member.Shard_map.id (addr t) msg
  in
  match checkout t ~timeout with
  | exception e when is_timeout e ->
      note_error t None "handshake timed out";
      shard_error P.err_shard_timeout "shard %d (%s): handshake timed out" t.member.Shard_map.id
        (addr t)
  | exception e -> fail_down (Printexc.to_string e)
  | c -> (
      match route c with
      | exception e when is_timeout e -> fail_timeout c "gather deadline exceeded"
      | exception e ->
          (try Client.close c with _ -> ());
          fail_down (Printexc.to_string e)
      | None ->
          (try Client.close c with _ -> ());
          fail_down "connection closed"
      | Some (P.Error { code; message }) when code = P.err_stale_route -> (
          (* another coordinator re-joined this shard at a different
             version; reclaim the slot on the same connection, retry once *)
          Atomic.incr t.stale_retries;
          match
            Client.request c
              (P.Shard_join
                 {
                   map_version = t.map_version;
                   shard_id = t.member.Shard_map.id;
                   nshards = t.nshards;
                 })
          with
          | exception e when is_timeout e -> fail_timeout c "gather deadline exceeded"
          | exception e ->
              (try Client.close c with _ -> ());
              fail_down (Printexc.to_string e)
          | Some (P.Row_count _) -> (
              match route c with
              | exception e when is_timeout e -> fail_timeout c "gather deadline exceeded"
              | exception e ->
                  (try Client.close c with _ -> ());
                  fail_down (Printexc.to_string e)
              | Some resp ->
                  checkin t c;
                  note_ok t;
                  resp
              | None ->
                  (try Client.close c with _ -> ());
                  fail_down "connection closed")
          | _ ->
              (try Client.close c with _ -> ());
              note_error t None message;
              shard_error P.err_stale_route "shard %d (%s): %s" t.member.Shard_map.id (addr t)
                message)
      | Some resp ->
          checkin t c;
          note_ok t;
          resp)

(* Replication lag behind the dropped primary, scraped from the
   replica's Prometheus endpoint — only meaningful (and only called)
   while reads are being served from the replica. *)
let replica_lag t : int option =
  match t.member.Shard_map.replica with
  | None -> None
  | Some { Shard_map.host; port } -> (
      match Client.connect ~host ~port with
      | exception _ -> None
      | c ->
          Fun.protect
            ~finally:(fun () -> try Client.close c with _ -> ())
            (fun () ->
              Client.set_receive_timeout c 1.0;
              match Client.request c P.Metrics_prom with
              | Some (P.Metrics_text text) ->
                  String.split_on_char '\n' text
                  |> List.find_map (fun line ->
                         match String.split_on_char ' ' line with
                         | [ "aimii_repl_lag_records"; v ] ->
                             Option.map Float.to_int (float_of_string_opt v)
                         | _ -> None)
              | _ | (exception _) -> None))

let close_all t =
  let conns = with_mu t (fun () -> let l = t.idle in t.idle <- []; l) in
  List.iter (fun c -> try Client.close c with _ -> ()) conns
