(* aimd — the AIM-II prototype as a network server.

   Usage:
     aimd [--host H] [--port P] [--max-sessions N] [--idle-timeout S]
          [--lock-timeout S] [--no-group-commit] [--no-wal-appender]
          [--pool-partitions N] [--slow-query S] [--domains N] [--demo]
          [-f init.sql] [--replica-of HOST:PORT]
     aimd --coordinator --shard HOST:PORT[+RHOST:RPORT] [--shard ...]
          [--host H] [--port P] [--max-sessions N] [--idle-timeout S]
          [--gather-deadline S] [--pool N] [--map-version V]

   Serves the wire protocol (see docs/SERVER.md); connect with
   `aimsh --connect HOST:PORT`.  Log shipping is always enabled: any
   client may handshake as a replica (docs/REPLICATION.md).  With
   --replica-of the node starts as a read-only replica of the given
   primary instead: it catches up over the replication stream, serves
   reads, and `aimsh -e '\promote'` turns it into a standalone primary.
   With --coordinator the node stores nothing itself: it routes every
   statement across the given shards by root-key hash, scattering and
   gathering cross-shard queries (docs/SHARDING.md); `+RHOST:RPORT`
   names a shard's read replica for failover reads.  A coordinator
   runs on the same connection loop as a plain node, so --host,
   --port, --max-sessions and --idle-timeout mean the same there.
   SIGINT/SIGTERM shut down gracefully: in-flight transactions roll
   back, the WAL is checkpointed, and the metrics report is dumped to
   stdout. *)

module Db = Nf2.Db
module Server = Nf2_server.Server
module Repl = Nf2_repl.Repl
module Shard_map = Nf2_shard.Shard_map
module Coord = Nf2_shard.Coord

let () =
  let config = ref Server.default_config in
  let demo = ref false in
  let init_file = ref None in
  let replica_of = ref None in
  let coordinator = ref false in
  let pool_partitions = ref None in
  let shards = ref [] in
  let ccfg = ref Coord.default_config in
  let rec parse = function
    | [] -> ()
    | "--coordinator" :: rest ->
        coordinator := true;
        parse rest
    | "--shard" :: addr :: rest ->
        shards := addr :: !shards;
        parse rest
    | "--gather-deadline" :: s :: rest ->
        ccfg := { !ccfg with Coord.gather_deadline = float_of_string s };
        parse rest
    | "--pool" :: n :: rest ->
        ccfg := { !ccfg with Coord.pool_cap = int_of_string n };
        parse rest
    | "--map-version" :: v :: rest ->
        ccfg := { !ccfg with Coord.map_version = int_of_string v };
        parse rest
    | "--host" :: h :: rest ->
        config := { !config with Server.host = h };
        parse rest
    | "--port" :: p :: rest ->
        config := { !config with Server.port = int_of_string p };
        parse rest
    | "--max-sessions" :: n :: rest ->
        config := { !config with Server.max_sessions = int_of_string n };
        parse rest
    | "--idle-timeout" :: s :: rest ->
        config := { !config with Server.idle_timeout = float_of_string s };
        parse rest
    | "--lock-timeout" :: s :: rest ->
        config := { !config with Server.lock_timeout = float_of_string s };
        parse rest
    | "--no-group-commit" :: rest ->
        config := { !config with Server.group_commit = false };
        parse rest
    | "--no-wal-appender" :: rest ->
        config := { !config with Server.wal_appender = false };
        parse rest
    | "--pool-partitions" :: n :: rest ->
        pool_partitions := Some (int_of_string n);
        parse rest
    | "--slow-query" :: s :: rest ->
        config := { !config with Server.slow_query = Some (float_of_string s) };
        parse rest
    | "--domains" :: n :: rest ->
        config := { !config with Server.domains = int_of_string n };
        parse rest
    | "--replica-of" :: target :: rest ->
        let host, port =
          match String.rindex_opt target ':' with
          | Some i ->
              ( String.sub target 0 i,
                int_of_string (String.sub target (i + 1) (String.length target - i - 1)) )
          | None -> (target, 5433)
        in
        replica_of := Some (host, port);
        parse rest
    | "--demo" :: rest ->
        demo := true;
        parse rest
    | "-f" :: file :: rest ->
        init_file := Some file;
        parse rest
    | "--help" :: _ ->
        print_endline
          "usage: aimd [--host H] [--port P] [--max-sessions N] [--idle-timeout S] \
           [--lock-timeout S] [--no-group-commit] [--no-wal-appender] [--pool-partitions N] \
           [--slow-query S] [--domains N] [--demo] \
           [-f init.sql] [--replica-of HOST:PORT]\n\
           \       aimd --coordinator --shard HOST:PORT[+RHOST:RPORT] [--shard ...] [--host H] \
           [--port P] [--max-sessions N] [--idle-timeout S] [--gather-deadline S] [--pool N] \
           [--map-version V]\n\
           \n\
           A coordinator serves on the same connection loop as a plain node: --host, --port, \
           --max-sessions and --idle-timeout apply to both.";
        exit 0
    | arg :: _ ->
        Printf.eprintf "aimd: unknown argument %s (try --help)\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let stop_requested = Atomic.make false in
  let request_stop _ = Atomic.set stop_requested true in
  ignore (Sys.signal Sys.sigint (Sys.Signal_handle request_stop));
  ignore (Sys.signal Sys.sigterm (Sys.Signal_handle request_stop));
  (* signal handlers only set a flag; the main thread does the actual
     shutdown outside handler context *)
  let wait_for_stop () =
    while not (Atomic.get stop_requested) do
      Thread.delay 0.1
    done
  in
  if !coordinator then begin
    let members = List.mapi (fun id s -> Shard_map.parse_member ~id s) (List.rev !shards) in
    if members = [] then begin
      prerr_endline "aimd: --coordinator needs at least one --shard HOST:PORT";
      exit 2
    end;
    let ccfg = { !ccfg with Coord.members } in
    let coord = Coord.start ~server:!config ccfg in
    Printf.printf
      "aimd: coordinator on %s:%d over %d shard(s), map v%d (gather deadline %.1fs)\n%!"
      !config.Server.host (Coord.port coord) (List.length members) ccfg.Coord.map_version
      ccfg.Coord.gather_deadline;
    List.iter
      (fun (m : Shard_map.member) ->
        Printf.printf "aimd:   shard %d -> %s%s\n%!" m.Shard_map.id
          (Shard_map.addr_string m.Shard_map.primary)
          (match m.Shard_map.replica with
          | Some r -> " (replica " ^ Shard_map.addr_string r ^ ")"
          | None -> ""))
      members;
    wait_for_stop ();
    print_endline "aimd: shutting down";
    Coord.stop coord;
    print_string (Coord.render_metrics coord);
    print_endline "aimd: bye";
    exit 0
  end;
  match !replica_of with
  | Some (phost, pport) ->
      (* replica mode: an empty read-only database fed from the primary *)
      let rep = Repl.Replica.create () in
      let srv = Repl.Replica.serve rep !config in
      Repl.Replica.start rep ~host:phost ~port:pport;
      Printf.printf "aimd: read-only replica of %s:%d, listening on %s:%d (\\promote to take over)\n%!"
        phost pport !config.Server.host (Server.port srv);
      wait_for_stop ();
      print_endline "aimd: shutting down";
      Repl.Replica.stop rep;
      Server.stop srv;
      Printf.printf "aimd: applied LSN %d (source durable %d)\n" (Repl.Replica.applied_lsn rep)
        (Repl.Replica.source_durable_lsn rep);
      print_string (Server.render_metrics srv);
      print_endline "aimd: bye"
  | None ->
      let db = Db.create ?pool_partitions:!pool_partitions ~wal:true () in
      if !demo then Nf2.Demo.load db;
      (match !init_file with
      | Some file -> ignore (Db.exec db (In_channel.with_open_text file In_channel.input_all))
      | None -> ());
      let srv = Server.start ~db !config in
      ignore (Repl.attach srv);
      Printf.printf
        "aimd: listening on %s:%d (max %d sessions, group commit %s, %d read domain(s), log \
         shipping on)\n%!"
        !config.Server.host (Server.port srv) !config.Server.max_sessions
        (if !config.Server.group_commit then "on" else "off")
        (Server.effective_domains !config);
      wait_for_stop ();
      print_endline "aimd: shutting down";
      Server.stop srv;
      print_string (Server.render_metrics srv);
      print_endline "aimd: bye"
