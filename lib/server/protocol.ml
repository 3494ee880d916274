(* Wire protocol of the multi-session server: length-prefixed binary
   frames carrying one request or one response each.

   Frame: 4-byte big-endian payload length, then the payload.  Payload:
   u8 tag + Codec-encoded fields (the same varint/string encodings the
   storage layer uses).  The encode/decode layer below is pure — it
   round-trips without sockets — and the socket helpers at the bottom
   only move frames. *)

module Atom = Nf2_model.Atom

exception Protocol_error of string

let protocol_error fmt = Fmt.kstr (fun s -> raise (Protocol_error s)) fmt

(* --- SQLSTATE-style error codes ---------------------------------------- *)

let err_syntax = "42601" (* lex / parse failure *)
let err_semantic = "42000" (* schema, type, or catalog error *)
let err_lock_timeout = "55P03" (* lock wait deadline exceeded *)
let err_deadlock = "40P01" (* granting the wait would close a cycle *)
let err_busy = "53300" (* admission control: too many sessions *)
let err_txn_state = "25000" (* BEGIN in txn / COMMIT outside one *)
let err_read_only = "25006" (* mutation on a read-only replica *)
let err_snapshot_too_old = "72000" (* ASOF below the MVCC GC horizon *)
let err_protocol = "08P01" (* malformed or unexpected frame *)
let err_internal = "XX000"
let err_feature = "0A000" (* statement not supported on this topology *)
let err_stale_route = "55S01" (* shard-map version mismatch on a routed statement *)
let err_shard_down = "57S01" (* shard unreachable (and no replica can serve it) *)
let err_shard_timeout = "57S02" (* scatter/gather deadline exceeded *)

type request =
  | Query of string  (** one or more ';'-separated statements *)
  | Prepare of string  (** statement with '?' placeholders *)
  | Execute_prepared of { id : int; params : Atom.t list }
  | Begin
  | Commit
  | Rollback
  | Ping
  | Metrics
  | Metrics_prom  (** Prometheus text-format scrape of the same registry *)
  | Quit
  | Repl_handshake of { start_lsn : int }
      (** turn this connection into a replication stream; ship records
          with LSNs strictly after [start_lsn] *)
  | Repl_ack of { applied_lsn : int }  (** replica -> primary after each batch *)
  | Promote  (** turn a read-only replica into a standalone primary *)
  | Sys_reset
      (** clear cumulative statement statistics and the slow-query trace
          ring (the [\sys reset] meta command) *)
  | Set_slow_query of float option
      (** set or clear the slow-query tracing threshold at runtime (the
          [\slow-query] meta command) *)
  | Shard_join of { map_version : int; shard_id : int; nshards : int }
      (** coordinator -> shard handshake: this connection routes for
          slot [shard_id] of an [nshards]-way map at [map_version];
          later [Shard_route] frames must carry the same version *)
  | Shard_route of { map_version : int; sql : string }
      (** coordinator -> shard: one routed statement; refused with the
          stale-route SQLSTATE when [map_version] does not match the
          version this shard joined *)
  | Shard_map_get
      (** client -> coordinator: the current shard map with per-shard
          health (the [\shards] meta command); non-coordinators answer
          with a plain error and keep the session open *)

(* One shard's row in a [Shard_map] response. *)
type shard_info = {
  sh_id : int;
  sh_addr : string;
  sh_state : string; (* "up" | "down" | "replica-reads" *)
  sh_routed : int; (* single-shard statements routed here *)
  sh_fanout : int; (* scatter legs sent here *)
  sh_errors : int; (* failed requests against this shard *)
}

type response =
  | Result_table of { columns : string list; rows : string list list }
      (** a query result: column names plus rendered cells *)
  | Row_count of { affected : int; message : string }
      (** a DML/DDL outcome: rows touched plus the engine's message *)
  | Prepared of { id : int; nparams : int }
  | Error of { code : string; message : string }
  | Pong
  | Metrics_text of string
  | Bye
  | Repl_batch of { records : string; durable_lsn : int }
      (** raw framed WAL records (decodable with [Wal.records_of_string])
          plus the primary's durable LSN; empty [records] is a heartbeat *)
  | Shard_map of { version : int; shards : shard_info list }
      (** the coordinator's shard map and per-shard health *)

(* --- pure encode / decode ---------------------------------------------- *)

let encode_request (r : request) : string =
  let b = Codec.create_sink () in
  (match r with
  | Query s ->
      Codec.put_u8 b 1;
      Codec.put_string b s
  | Prepare s ->
      Codec.put_u8 b 2;
      Codec.put_string b s
  | Execute_prepared { id; params } ->
      Codec.put_u8 b 3;
      Codec.put_uvarint b id;
      Codec.put_uvarint b (List.length params);
      List.iter (Atom.encode b) params
  | Begin -> Codec.put_u8 b 4
  | Commit -> Codec.put_u8 b 5
  | Rollback -> Codec.put_u8 b 6
  | Ping -> Codec.put_u8 b 7
  | Metrics -> Codec.put_u8 b 8
  | Quit -> Codec.put_u8 b 9
  | Metrics_prom -> Codec.put_u8 b 10
  | Repl_handshake { start_lsn } ->
      Codec.put_u8 b 11;
      Codec.put_uvarint b start_lsn
  | Repl_ack { applied_lsn } ->
      Codec.put_u8 b 12;
      Codec.put_uvarint b applied_lsn
  | Promote -> Codec.put_u8 b 13
  | Sys_reset -> Codec.put_u8 b 14
  | Set_slow_query thr ->
      (* encoded as a string so "off" needs no separate tag: "" clears
         the threshold, anything else must parse as a float *)
      Codec.put_u8 b 15;
      Codec.put_string b
        (match thr with None -> "" | Some s -> Printf.sprintf "%.17g" s)
  | Shard_join { map_version; shard_id; nshards } ->
      Codec.put_u8 b 16;
      Codec.put_uvarint b map_version;
      Codec.put_uvarint b shard_id;
      Codec.put_uvarint b nshards
  | Shard_route { map_version; sql } ->
      Codec.put_u8 b 17;
      Codec.put_uvarint b map_version;
      Codec.put_string b sql
  | Shard_map_get -> Codec.put_u8 b 18);
  Codec.contents b

(* Truncated or garbled fields surface as Codec decode errors; at the
   protocol boundary they are all just malformed frames, answered with
   the connection-exception SQLSTATE (08P01).  The catch is deliberately
   wide: a garbled frame must never surface as anything but
   [Protocol_error], whatever a field decoder happens to raise. *)
let guard_decode what f =
  try f () with
  | Protocol_error _ as e -> raise e
  | Codec.Decode_error m -> protocol_error "malformed %s: %s" what m
  | Invalid_argument m | Failure m -> protocol_error "malformed %s: %s" what m

(* An element count decoded from the wire: each element takes at least
   one byte, so a count beyond the remaining payload is malformed —
   checked *before* allocating, so a garbled varint cannot demand a
   giant list. *)
let bounded_count src what n =
  if n < 0 || n > Codec.remaining src then protocol_error "implausible %s count %d" what n;
  n

let decode_request (s : string) : request =
  guard_decode "request" @@ fun () ->
  let src = Codec.source_of_string s in
  let r =
    match Codec.get_u8 src with
    | 1 -> Query (Codec.get_string src)
    | 2 -> Prepare (Codec.get_string src)
    | 3 ->
        let id = Codec.get_uvarint src in
        let n = bounded_count src "parameter" (Codec.get_uvarint src) in
        Execute_prepared { id; params = List.init n (fun _ -> Atom.decode src) }
    | 4 -> Begin
    | 5 -> Commit
    | 6 -> Rollback
    | 7 -> Ping
    | 8 -> Metrics
    | 9 -> Quit
    | 10 -> Metrics_prom
    | 11 -> Repl_handshake { start_lsn = Codec.get_uvarint src }
    | 12 -> Repl_ack { applied_lsn = Codec.get_uvarint src }
    | 13 -> Promote
    | 14 -> Sys_reset
    | 15 -> (
        match Codec.get_string src with
        | "" -> Set_slow_query None
        | s -> (
            match float_of_string_opt s with
            | Some f when f >= 0. -> Set_slow_query (Some f)
            | _ -> protocol_error "bad slow-query threshold %S" s))
    | 16 ->
        let map_version = Codec.get_uvarint src in
        let shard_id = Codec.get_uvarint src in
        let nshards = Codec.get_uvarint src in
        if nshards <= 0 || shard_id < 0 || shard_id >= nshards then
          protocol_error "implausible shard identity %d/%d" shard_id nshards;
        Shard_join { map_version; shard_id; nshards }
    | 17 ->
        let map_version = Codec.get_uvarint src in
        Shard_route { map_version; sql = Codec.get_string src }
    | 18 -> Shard_map_get
    | n -> protocol_error "unknown request tag %d" n
  in
  if not (Codec.at_end src) then protocol_error "trailing bytes after request";
  r

(* A [Result_table] payload, sized in one pass (cell bytes plus varint
   lengths) and filled into one exact allocation, [off] bytes into it
   so that a frame header can share the allocation. *)
let result_table_bytes ~off columns rows =
  let str_size acc s =
    let n = String.length s in
    acc + Codec.uvarint_size n + n
  in
  let list_size acc l = List.fold_left str_size (acc + Codec.uvarint_size (List.length l)) l in
  let size = List.fold_left list_size (list_size 1 columns + Codec.uvarint_size (List.length rows)) rows in
  let buf = Bytes.create (off + size) in
  Bytes.set buf off '\001';
  let put_str pos s =
    let n = String.length s in
    let pos = Codec.blit_uvarint buf pos n in
    Bytes.blit_string s 0 buf pos n;
    pos + n
  in
  let put_list pos l = List.fold_left put_str (Codec.blit_uvarint buf pos (List.length l)) l in
  let pos = put_list (off + 1) columns in
  let pos = List.fold_left put_list (Codec.blit_uvarint buf pos (List.length rows)) rows in
  assert (pos = off + size);
  buf

(* The payload of [r], [off] bytes into a fresh buffer. *)
let response_bytes ~off (r : response) : Bytes.t =
  let sink f =
    let b = Codec.create_sink () in
    Buffer.add_string b (String.make off '\000');
    f b;
    Buffer.to_bytes b
  in
  match r with
  | Result_table { columns; rows } -> result_table_bytes ~off columns rows
  | Row_count { affected; message } ->
      sink @@ fun b ->
      Codec.put_u8 b 2;
      Codec.put_uvarint b affected;
      Codec.put_string b message
  | Prepared { id; nparams } ->
      sink @@ fun b ->
      Codec.put_u8 b 3;
      Codec.put_uvarint b id;
      Codec.put_uvarint b nparams
  | Error { code; message } ->
      sink @@ fun b ->
      Codec.put_u8 b 4;
      Codec.put_string b code;
      Codec.put_string b message
  | Pong -> sink @@ fun b -> Codec.put_u8 b 5
  | Metrics_text s ->
      sink @@ fun b ->
      Codec.put_u8 b 6;
      Codec.put_string b s
  | Bye -> sink @@ fun b -> Codec.put_u8 b 7
  | Repl_batch { records; durable_lsn } ->
      sink @@ fun b ->
      Codec.put_u8 b 8;
      Codec.put_string b records;
      Codec.put_uvarint b durable_lsn
  | Shard_map { version; shards } ->
      sink @@ fun b ->
      Codec.put_u8 b 9;
      Codec.put_uvarint b version;
      Codec.put_uvarint b (List.length shards);
      List.iter
        (fun s ->
          Codec.put_uvarint b s.sh_id;
          Codec.put_string b s.sh_addr;
          Codec.put_string b s.sh_state;
          Codec.put_uvarint b s.sh_routed;
          Codec.put_uvarint b s.sh_fanout;
          Codec.put_uvarint b s.sh_errors)
        shards

let encode_response (r : response) : string = Bytes.unsafe_to_string (response_bytes ~off:0 r)

let decode_response (s : string) : response =
  guard_decode "response" @@ fun () ->
  let src = Codec.source_of_string s in
  let r =
    match Codec.get_u8 src with
    | 1 ->
        let ncols = bounded_count src "column" (Codec.get_uvarint src) in
        let columns = List.init ncols (fun _ -> Codec.get_string src) in
        let nrows = bounded_count src "row" (Codec.get_uvarint src) in
        let rows =
          List.init nrows (fun _ ->
              let n = bounded_count src "cell" (Codec.get_uvarint src) in
              List.init n (fun _ -> Codec.get_string src))
        in
        Result_table { columns; rows }
    | 2 ->
        let affected = Codec.get_uvarint src in
        Row_count { affected; message = Codec.get_string src }
    | 3 ->
        let id = Codec.get_uvarint src in
        Prepared { id; nparams = Codec.get_uvarint src }
    | 4 ->
        let code = Codec.get_string src in
        Error { code; message = Codec.get_string src }
    | 5 -> Pong
    | 6 -> Metrics_text (Codec.get_string src)
    | 7 -> Bye
    | 8 ->
        let records = Codec.get_string src in
        Repl_batch { records; durable_lsn = Codec.get_uvarint src }
    | 9 ->
        let version = Codec.get_uvarint src in
        let n = bounded_count src "shard" (Codec.get_uvarint src) in
        let shards =
          List.init n (fun _ ->
              let sh_id = Codec.get_uvarint src in
              let sh_addr = Codec.get_string src in
              let sh_state = Codec.get_string src in
              let sh_routed = Codec.get_uvarint src in
              let sh_fanout = Codec.get_uvarint src in
              let sh_errors = Codec.get_uvarint src in
              { sh_id; sh_addr; sh_state; sh_routed; sh_fanout; sh_errors })
        in
        Shard_map { version; shards }
    | n -> protocol_error "unknown response tag %d" n
  in
  if not (Codec.at_end src) then protocol_error "trailing bytes after response";
  r

(* --- frame IO over a socket -------------------------------------------- *)

let max_frame = 64 * 1024 * 1024

(* Send [buf], whose first 4 bytes are reserved for the frame header. *)
let write_framed fd buf =
  let n = Bytes.length buf - 4 in
  if n > max_frame then protocol_error "frame too large (%d bytes)" n;
  Codec.blit_u32 buf 0 n;
  let rec put off remaining =
    if remaining > 0 then begin
      let k = Unix.write fd buf off remaining in
      put (off + k) (remaining - k)
    end
  in
  put 0 (4 + n)

let write_frame (fd : Unix.file_descr) (payload : string) =
  let n = String.length payload in
  let buf = Bytes.create (4 + n) in
  Bytes.blit_string payload 0 buf 4 n;
  write_framed fd buf

(* [None] on a clean EOF at a frame boundary. *)
let read_frame (fd : Unix.file_descr) : string option =
  let rec get buf off remaining =
    if remaining = 0 then true
    else
      let k = Unix.read fd buf off remaining in
      if k = 0 then
        if off = 0 then false else protocol_error "connection closed mid-frame"
      else get buf (off + k) (remaining - k)
  in
  let hdr = Bytes.create 4 in
  if not (get hdr 0 4) then None
  else begin
    let n = Codec.read_u32 hdr 0 in
    if n > max_frame then protocol_error "frame too large (%d bytes)" n;
    let payload = Bytes.create n in
    if not (get payload 0 n) && n > 0 then protocol_error "connection closed mid-frame";
    (* nothing else holds [payload], so it becomes the string as is *)
    Some (Bytes.unsafe_to_string payload)
  end

let send_request fd r = write_frame fd (encode_request r)
let send_response fd r = write_framed fd (response_bytes ~off:4 r)
let recv_request fd = Option.map decode_request (read_frame fd)
let recv_response fd = Option.map decode_response (read_frame fd)
