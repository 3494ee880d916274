(* aimsh — interactive shell / script runner for the AIM-II prototype.

   Usage:
     aimsh                 interactive REPL (statements end with ';')
     aimsh -f script.sql   run a script
     aimsh -e 'STMT; ...'  run statements from the command line
     aimsh --demo          preload the paper's example tables (Tables 1-8)

   Meta commands in the REPL:
     \q            quit        \plan         show the last query plan
     \demo         load demo   \stats        disk/pool counters
     \save <path>  export an image (reopen with: aimsh -d <path>)
     \checkpoint   WAL sharp checkpoint; prints the durable LSN
     \timing on|off  print client-side wall-clock time per input
     \sys          list the SYS introspection tables (SELECT-able)
     \slow-query S|off  report inputs taking >= S seconds
     \shards       shard map + per-shard health (coordinator; remote)

   With -d FILE -j LOG the session is crash-durable: on start it replays
   the write-ahead log LOG over the image FILE, every commit is fsynced
   to LOG before it is reported, and \checkpoint rewrites FILE and
   restarts LOG.  -j needs -d (LOG only holds work since FILE).

   With --connect HOST:PORT the shell talks to a running aimd server
   instead of an embedded engine; \metrics [prom], \ping, \promote,
   \sys [reset], \slow-query and \timing replace the local meta
   commands, and BEGIN/COMMIT/ROLLBACK span multiple inputs.  In remote mode -e also accepts meta commands,
   so `aimsh --connect HOST:PORT -e '\metrics prom'` scrapes the server
   and `-e '\promote'` promotes a read-only replica.
*)

module Db = Nf2.Db
module P = Nf2_workload.Paper_data
module D = Nf2_storage.Disk
module BP = Nf2_storage.Buffer_pool

(* \timing: client-side wall clock around one input, local or remote. *)
let timing = ref false

let with_timing f =
  if not !timing then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () -> Printf.printf "Time: %.3f ms\n" ((Unix.gettimeofday () -. t0) *. 1e3))
      f
  end

let set_timing arg =
  (match arg with Some "on" -> timing := true | Some "off" -> timing := false | _ -> timing := not !timing);
  Printf.printf "timing %s\n" (if !timing then "on" else "off")

(* \slow-query: in embedded mode there is no server-side tracer, so the
   shell itself times each input and reports the ones at or over the
   threshold on stderr (remote mode forwards the threshold to aimd). *)
let local_slow_query : float option ref = ref None

let parse_slow_query arg =
  match arg with
  | "off" -> Ok None
  | s -> (
      match float_of_string_opt s with
      | Some f when f >= 0. -> Ok (Some f)
      | _ -> Error (Printf.sprintf "bad threshold %S (want seconds or 'off')" s))

let set_local_slow_query arg =
  match parse_slow_query arg with
  | Error m -> print_endline m
  | Ok thr ->
      local_slow_query := thr;
      (match thr with
      | None -> print_endline "slow-query tracing off"
      | Some s -> Printf.printf "slow-query threshold %gs\n" s)

let load_demo db =
  Nf2.Demo.load db;
  print_endline "demo tables loaded: DEPARTMENTS, *_1NF, EMPLOYEES_1NF, REPORTS"

let run_input db input =
  let t0 = Unix.gettimeofday () in
  let report () =
    match !local_slow_query with
    | Some thr when Unix.gettimeofday () -. t0 >= thr ->
        Printf.eprintf "slow-query: %.1f ms  %s\n%!"
          ((Unix.gettimeofday () -. t0) *. 1e3)
          (String.concat " " (String.split_on_char '\n' (String.trim input)))
    | _ -> ()
  in
  try
    Fun.protect ~finally:report (fun () ->
        List.iter (fun r -> print_string (Db.render_result r); print_newline ()) (Db.exec db input))
  with
  | Db.Db_error m -> Printf.printf "error: %s\n" m
  | Nf2_lang.Parser.Parse_error m -> Printf.printf "parse error: %s\n" m
  | Nf2_lang.Lexer.Lex_error m -> Printf.printf "lex error: %s\n" m
  | Nf2_lang.Eval.Eval_error m -> Printf.printf "error: %s\n" m
  | Nf2_model.Schema.Schema_error m -> Printf.printf "schema error: %s\n" m
  | Nf2_model.Value.Value_error m -> Printf.printf "value error: %s\n" m

let print_stats db =
  let d = D.stats (Db.disk db) in
  let p = BP.stats (Db.pool db) in
  Printf.printf "disk: %d pages, %d reads, %d writes | pool: %d hits, %d misses, %d evictions\n"
    (D.npages (Db.disk db)) d.D.reads d.D.writes p.BP.hits p.BP.misses p.BP.evictions

let repl db =
  print_endline "AIM-II NF2 prototype shell. Statements end with ';'.  \\q quits, \\demo loads the paper tables.";
  let buf = Buffer.create 256 in
  let rec loop () =
    print_string (if Buffer.length buf = 0 then "aim> " else "...> ");
    flush stdout;
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
        let trimmed = String.trim line in
        if Buffer.length buf = 0 && String.length trimmed > 0 && trimmed.[0] = '\\' then begin
          (match String.split_on_char ' ' trimmed with
          | [ "\\q" ] -> exit 0
          | [ "\\demo" ] -> load_demo db
          | [ "\\plan" ] -> List.iter print_endline (Db.last_plan db)
          | [ "\\stats" ] -> print_stats db
          | [ "\\save"; path ] ->
              Db.save db path;
              Printf.printf "database saved to %s\n" path
          | [ "\\checkpoint" ] -> (
              (* WAL sharp checkpoint; attaches a log on first use *)
              Db.attach_wal db;
              try Printf.printf "checkpointed at durable LSN %d\n" (Db.wal_checkpoint db)
              with Db.Db_error m -> Printf.printf "error: %s\n" m)
          | [ "\\timing" ] -> set_timing None
          | [ "\\timing"; arg ] -> set_timing (Some arg)
          | [ "\\sys" ] -> run_input db "SELECT * FROM SYS_TABLES;"
          | [ "\\sys"; "reset" ] ->
              print_endline
                "nothing to reset: cumulative statement statistics live in aimd (use --connect)"
          | [ "\\shards" ] ->
              print_endline "no shard map: embedded engine (use --connect against a coordinator)"
          | [ "\\slow-query"; arg ] -> set_local_slow_query arg
          | _ -> print_endline "unknown meta command");
          loop ()
        end
        else begin
          Buffer.add_string buf line;
          Buffer.add_char buf '\n';
          if String.length trimmed > 0 && trimmed.[String.length trimmed - 1] = ';' then begin
            let input = Buffer.contents buf in
            Buffer.clear buf;
            with_timing (fun () -> run_input db input)
          end;
          loop ()
        end
  in
  loop ()

(* --- remote mode (--connect HOST:PORT) -------------------------------- *)

module Client = Nf2_server.Client
module Proto = Nf2_server.Protocol

let render_table columns rows =
  let widths =
    List.mapi
      (fun i c -> List.fold_left (fun w row -> max w (String.length (List.nth row i)))
          (String.length c) rows)
      columns
  in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let line cells = String.concat " | " (List.map2 pad cells widths) in
  let rule = String.concat "-+-" (List.map (fun w -> String.make w '-') widths) in
  String.concat "\n" (line columns :: rule :: List.map line rows)

let render_shard_map version (shards : Proto.shard_info list) =
  let columns = [ "SHARD"; "ADDR"; "STATE"; "ROUTED"; "FANOUT"; "ERRORS" ] in
  let rows =
    List.map
      (fun (s : Proto.shard_info) ->
        [
          string_of_int s.Proto.sh_id;
          s.Proto.sh_addr;
          s.Proto.sh_state;
          string_of_int s.Proto.sh_routed;
          string_of_int s.Proto.sh_fanout;
          string_of_int s.Proto.sh_errors;
        ])
      shards
  in
  Printf.printf "shard map v%d (%d shard(s))\n" version (List.length shards);
  print_endline (render_table columns rows)

let print_remote_response = function
  | Some (Proto.Result_table { columns; rows }) ->
      print_endline (render_table columns rows);
      Printf.printf "(%d row(s))\n" (List.length rows)
  | Some (Proto.Row_count { message; _ }) -> print_endline message
  | Some (Proto.Prepared { id; nparams }) -> Printf.printf "prepared #%d (%d params)\n" id nparams
  | Some (Proto.Error { code; message }) -> Printf.printf "error %s: %s\n" code message
  | Some Proto.Pong -> print_endline "pong"
  | Some (Proto.Metrics_text s) -> print_string s
  | Some Proto.Bye -> print_endline "server closed the session"
  | Some (Proto.Repl_batch _) -> print_endline "unexpected replication frame"
  | Some (Proto.Shard_map { version; shards }) -> render_shard_map version shards
  | None -> print_endline "server hung up"

let run_remote client input =
  with_timing (fun () -> print_remote_response (Client.request client (Proto.Query input)))

(* One remote meta command ("\metrics prom", "\ping", ...), shared by
   the remote REPL and -e. *)
let remote_meta client trimmed =
  match List.filter (fun s -> s <> "") (String.split_on_char ' ' trimmed) with
  | [ "\\q" ] ->
      Client.close client;
      exit 0
  | [ "\\metrics" ] -> print_remote_response (Client.request client Proto.Metrics)
  | [ "\\metrics"; "prom" ] -> print_remote_response (Client.request client Proto.Metrics_prom)
  | [ "\\ping" ] -> print_remote_response (Client.request client Proto.Ping)
  | [ "\\promote" ] -> print_remote_response (Client.request client Proto.Promote)
  | [ "\\timing" ] -> set_timing None
  | [ "\\timing"; arg ] -> set_timing (Some arg)
  | [ "\\sys" ] -> run_remote client "SELECT * FROM SYS_TABLES;"
  | [ "\\sys"; "reset" ] -> print_remote_response (Client.request client Proto.Sys_reset)
  | [ "\\shards" ] -> print_remote_response (Client.request client Proto.Shard_map_get)
  | [ "\\slow-query"; arg ] -> (
      match parse_slow_query arg with
      | Error m -> print_endline m
      | Ok thr -> print_remote_response (Client.request client (Proto.Set_slow_query thr)))
  | _ ->
      print_endline
        "unknown meta command (remote: \\q \\metrics [prom] \\ping \\promote \\sys [reset] \
         \\shards \\slow-query S|off \\timing)"

let remote_repl client =
  print_endline "connected.  Statements end with ';'.  \\q quits, \\metrics shows server counters.";
  (* coordinator banner: a plain aimd answers the probe with an error
     (and keeps the session), a coordinator with its shard map *)
  (match Client.request client Proto.Shard_map_get with
  | Some (Proto.Shard_map { version; shards }) ->
      Printf.printf "coordinator: shard map v%d over %d shard(s) (\\shards for health)\n" version
        (List.length shards)
  | _ -> ());
  let buf = Buffer.create 256 in
  let rec loop () =
    print_string (if Buffer.length buf = 0 then "aim> " else "...> ");
    flush stdout;
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
        let trimmed = String.trim line in
        if Buffer.length buf = 0 && String.length trimmed > 0 && trimmed.[0] = '\\' then begin
          remote_meta client trimmed;
          loop ()
        end
        else begin
          Buffer.add_string buf line;
          Buffer.add_char buf '\n';
          if String.length trimmed > 0 && trimmed.[String.length trimmed - 1] = ';' then begin
            let input = Buffer.contents buf in
            Buffer.clear buf;
            run_remote client input
          end;
          loop ()
        end
  in
  loop ()

let remote_main target rest =
  let host, port =
    match String.rindex_opt target ':' with
    | Some i -> (String.sub target 0 i, int_of_string (String.sub target (i + 1) (String.length target - i - 1)))
    | None -> (target, 5433)
  in
  let client = Client.connect ~host ~port in
  let rec go = function
    | [] -> remote_repl client
    | "-e" :: stmts :: rest ->
        let trimmed = String.trim stmts in
        if String.length trimmed > 0 && trimmed.[0] = '\\' then remote_meta client trimmed
        else run_remote client stmts;
        if rest = [] then () else go rest
    | "-f" :: file :: rest ->
        run_remote client (In_channel.with_open_text file In_channel.input_all);
        if rest = [] then () else go rest
    | _ :: rest -> go rest
  in
  go rest;
  Client.close client

let usage =
  "usage: aimsh [--demo] [-d db-file [-j log-file]] [-e 'STMTS'] [-f script.sql] [--connect HOST:PORT]\n\
  \  -d FILE         open a saved image (\\save writes one)\n\
  \  -d FILE -j LOG  crash-durable: replay LOG over FILE, fsync every commit to LOG"

let () =
  let args = Array.to_list Sys.argv in
  let rec find_flag flag = function
    | f :: path :: _ when f = flag -> Some path
    | _ :: rest -> find_flag flag rest
    | [] -> None
  in
  (match find_flag "--connect" args with
  | Some target ->
      remote_main target (List.filter (fun a -> a <> "--connect" && a <> target) (List.tl args));
      exit 0
  | None -> ());
  let db_path = find_flag "-d" args and log_path = find_flag "-j" args in
  let db =
    match db_path, log_path with
    | Some image, Some log ->
        let db = try Db.open_files ~image ~log () with Db.Db_error m -> prerr_endline m; exit 1 in
        Printf.printf "recovered %s + %s (%s)\n" image log (String.concat ", " (Db.table_names db));
        db
    | Some path, None when Sys.file_exists path ->
        let db = Db.load path in
        Printf.printf "opened %s (%s)\n" path (String.concat ", " (Db.table_names db));
        db
    | None, Some _ ->
        prerr_endline ("aimsh: -j needs -d: the log only holds the work since the image\n" ^ usage);
        exit 2
    | _ -> Db.create ()
  in
  let rec go = function
    | [] -> repl db
    | "--demo" :: rest ->
        load_demo db;
        go rest
    | "-e" :: stmts :: rest ->
        run_input db stmts;
        if rest = [] then () else go rest
    | "-f" :: file :: rest ->
        let input = In_channel.with_open_text file In_channel.input_all in
        run_input db input;
        if rest = [] then () else go rest
    | "-d" :: _ :: rest -> go rest
    | "-j" :: _ :: rest -> go rest
    | "--help" :: _ -> print_endline usage
    | _ :: rest -> go rest
  in
  go (List.tl args)
