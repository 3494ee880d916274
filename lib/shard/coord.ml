(* The fan-out/fan-in coordinator: N aimd shards presented as one node.

   Clients speak the ordinary wire protocol to the coordinator, which
   is a request handler on {!Server}'s connection loop (admission
   control, idle timeout and graceful stop are the loop's).  It routes
   every statement through the versioned shard map
   ({!Shard_map}, root-key consistent hashing) over pooled shard
   connections ({!Pool}):

   - statements that pin one root (point lookups, updates and deletes
     whose WHERE fixes the partition key, single-root inserts) route to
     exactly one shard;
   - cross-shard SELECTs fan out in parallel and fan in through
     {!Nf2_algebra.Merge}: union + dedup for set results, k-way merge
     for ORDER BY, re-summed affected counts for broadcast DML;
   - DDL broadcasts to every shard, so all partitions share one schema;
   - pure-SYS statements run on the coordinator's own embedded engine,
     whose registry carries SYS_SHARDS (and the standard session tier:
     SYS_STATEMENTS, SYS_SESSIONS, ... reflecting the coordinator).

   Every statement carries a scatter/gather deadline, so one slow or
   dead shard degrades to a typed error (57S02 / 57S01) instead of a
   hang.  What cannot be answered correctly from partitions is refused
   typed (0A000): joins over more than one stored-table range, explicit
   transactions (no distributed commit — see docs/SHARDING.md), ASOF at
   a shard-local LSN, and partition-key updates (a root may not migrate
   between shards in place). *)

module Db = Nf2.Db
module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module Merge = Nf2_algebra.Merge
module Ast = Nf2_lang.Ast
module Parser = Nf2_lang.Parser
module Rewrite = Nf2_lang.Rewrite
module Params = Nf2_lang.Params
module Sysr = Nf2_sys.Registry
module Plan = Nf2_plan.Plan
module P = Nf2_server.Protocol
module Session = Nf2_server.Session
module Metrics = Nf2_server.Metrics
module Server = Nf2_server.Server

type config = {
  gather_deadline : float; (* seconds one statement may wait on shards *)
  pool_cap : int; (* idle connections kept per shard *)
  map_version : int;
  members : Shard_map.member list;
}

let default_config = { gather_deadline = 5.0; pool_cap = 8; map_version = 1; members = [] }

(* The routing state every request handler shares. *)
type router = {
  map : Shard_map.t;
  pools : Pool.t array;
  db : Db.t; (* embedded engine: SYS only, no user tables *)
  mgr : Session.manager;
  metrics : Metrics.t;
  config : config;
  keyfields : (string, string) Hashtbl.t; (* table -> first attribute, uppercased *)
  kmu : Mutex.t; (* guards [keyfields] *)
}

type t = { router : router; server : Server.t }

let port t = Server.port t.server
let metrics t = t.router.metrics
let session_manager t = t.router.mgr
let shard_map t = t.router.map

let refused code fmt = Fmt.kstr (fun s -> raise (Session.Refused (code, s))) fmt

let with_mu mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* --- the partition-key cache --------------------------------------------

   The partition key of table T is T's first attribute: INSERT hashes
   the first cell of each root row positionally, and a WHERE conjunct
   equating that attribute to a literal pins the statement to one
   shard.  The attribute's *name* is only needed for pin detection, so
   the cache (fed by the CREATE TABLEs the coordinator routes) is an
   optimization: an unknown table merely fans out, which is always
   correct. *)

let key_field t tbl = with_mu t.kmu (fun () -> Hashtbl.find_opt t.keyfields (String.uppercase_ascii tbl))

let learn_key t tbl (fields : Ast.field_def list) =
  match fields with
  | f :: _ ->
      with_mu t.kmu (fun () ->
          Hashtbl.replace t.keyfields (String.uppercase_ascii tbl)
            (String.uppercase_ascii f.Ast.fname))
  | [] -> ()

let forget_key t tbl = with_mu t.kmu (fun () -> Hashtbl.remove t.keyfields (String.uppercase_ascii tbl))

(* --- routing analysis --------------------------------------------------- *)

(* ASOF through the coordinator: DATE literals compare wall time and
   work everywhere; integer LSNs are shard-local counters, so a routed
   LSN read would time-travel each shard to a different state. *)
let check_asof (q : Ast.query) =
  Ast.fold_query_ranges
    (fun () (r : Ast.range) ->
      match r.Ast.asof with
      | None | Some (Ast.Const (Atom.Date _)) -> ()
      | Some (Ast.Const (Atom.Int _)) ->
          refused P.err_feature "ASOF at an integer LSN is shard-local; use a DATE through the coordinator"
      | Some _ -> refused P.err_feature "ASOF through the coordinator requires a DATE literal")
    () q

let rec conjuncts = function Ast.And (a, b) -> conjuncts a @ conjuncts b | p -> [ p ]

(* A top-level WHERE conjunct equating the table's partition key to a
   literal.  [rvar]: the range variable a qualified path must use
   ([None] for DML, whose predicates use unqualified attributes). *)
let pin_shard t ~(rvar : string option) ~(tbl : string) (where : Ast.pred option) : int option =
  match (key_field t tbl, where) with
  | Some kf, Some w ->
      let eq_name a b = String.uppercase_ascii a = b in
      let is_key = function
        | Ast.Path { Ast.var = Some v; steps = [ Ast.Field f ] } ->
            eq_name f kf && (match rvar with Some rv -> String.uppercase_ascii v = String.uppercase_ascii rv | None -> false)
        | Ast.Path { Ast.var = Some f; steps = [] } -> eq_name f kf
        | _ -> false
      in
      List.find_map
        (function
          | Ast.Cmp (Ast.Eq, p, Ast.Const a) when is_key p ->
              Some (Shard_map.shard_of_key t.map (Atom.to_literal a))
          | Ast.Cmp (Ast.Eq, Ast.Const a, p) when is_key p ->
              Some (Shard_map.shard_of_key t.map (Atom.to_literal a))
          | _ -> None)
        (conjuncts w)
  | _ -> None

type sroute = R_local | R_single of int | R_scatter

(* Every stored-table range occurrence counts, subqueries and
   quantifiers included: two occurrences mean a cross-shard join (or
   self-join), which partitioned evaluation cannot answer. *)
let select_route t (q : Ast.query) : sroute =
  let sys, user = List.partition (Db.is_sys_table t.db) (Ast.fold_query_ranges Ast.add_table [] q) in
  match user with
  | [] -> R_local
  | _ when sys <> [] ->
      refused P.err_feature "cannot combine SYS relations with sharded tables in one query"
  | _ :: _ :: _ ->
      refused P.err_feature
        "cross-shard joins are not supported: at most one stored-table range per statement \
         through a coordinator"
  | [ _ ] -> (
      check_asof q;
      match q.Ast.from with
      | [ { Ast.rvar; source = Ast.Table_src tbl; _ } ] -> (
          match pin_shard t ~rvar:(Some rvar) ~tbl q.Ast.where with
          | Some k -> R_single k
          | None -> R_scatter)
      | _ -> R_scatter)

(* --- fan-out ------------------------------------------------------------- *)

(* Run [jobs] concurrently (one systhread each; the real parallelism
   is across shard processes) and collect per-shard outcomes. *)
let parallel (jobs : (int * (unit -> P.response)) array) : (int * (P.response, exn) result) array =
  let out = Array.map (fun (id, _) -> (id, Error Exit)) jobs in
  let threads =
    Array.mapi
      (fun i (id, job) ->
        Thread.create
          (fun () -> out.(i) <- (id, (try Ok (job ()) with e -> Error e)))
          ())
      jobs
  in
  Array.iter Thread.join threads;
  out

(* Fan one statement out to every shard; raise the first shard failure
   (in shard order), return per-shard responses otherwise. *)
let scatter t ~(read : bool) ~(deadline : float) (sql : string) : (int * P.response) list =
  let jobs =
    Array.mapi (fun i p -> (i, fun () -> Pool.request p ~kind:`Fanout ~read ~deadline sql)) t.pools
  in
  let outcomes = parallel jobs in
  Array.iter
    (fun (_, r) ->
      match r with
      | Error (Session.Refused (code, _) as e) ->
          if code = P.err_shard_timeout then Metrics.incr t.metrics "coord_gather_timeouts";
          raise e
      | Error e -> raise e
      | Ok _ -> ())
    outcomes;
  Array.to_list (Array.map (fun (i, r) -> (i, Result.get_ok r)) outcomes)

(* The first shard error (by shard order), if any — engine errors come
   back as responses, not exceptions, and one shard's refusal decides
   the statement. *)
let first_error (parts : (int * P.response) list) : P.response option =
  List.find_map (fun (_, r) -> match r with P.Error _ -> Some r | _ -> None) parts

let single t ~(shard : int) ~(read : bool) ~(deadline : float) (sql : string) : P.response =
  Metrics.incr t.metrics "coord_routed_stmts";
  Pool.request t.pools.(shard) ~kind:`Routed ~read ~deadline sql

(* Broadcast (DDL): every shard must apply; the first response is the
   answer.  A mid-broadcast failure can leave shards diverged — the
   error names the shard so the operator can reconcile (docs/SHARDING.md). *)
let broadcast_ddl t ~(deadline : float) (sql : string) : P.response =
  Metrics.incr t.metrics "coord_broadcast_stmts";
  let parts = scatter t ~read:false ~deadline sql in
  match first_error parts with
  | Some err -> err
  | None -> ( match parts with (_, r) :: _ -> r | [] -> assert false)

(* Broadcast DML: affected counts re-aggregate by summing. *)
let broadcast_dml t ~(deadline : float) (sql : string) : P.response =
  Metrics.incr t.metrics "coord_broadcast_stmts";
  let parts = scatter t ~read:false ~deadline sql in
  match first_error parts with
  | Some err -> err
  | None ->
      let counts =
        List.map
          (fun (_, r) -> match r with P.Row_count { affected; _ } -> [ string_of_int affected ] | _ -> [])
          parts
      in
      let total =
        match Merge.reaggregate ~spec:[ Merge.C_sum ] counts with
        | [ n ] -> Option.value (int_of_string_opt n) ~default:0
        | _ -> 0
      in
      P.Row_count
        {
          affected = total;
          message = Printf.sprintf "%d row(s) affected across %d shard(s)" total (List.length parts);
        }

(* --- SELECT fan-in -------------------------------------------------------

   The merge discipline mirrors the engine's result semantics: no
   ORDER BY means a Set result, deduplicated across shards; ORDER BY
   means a List result, k-way merged on the sort keys (each shard's
   partition arrives already sorted), deduplicated only under
   DISTINCT. *)

type gkeys =
  | K_none (* unordered: union + dedup *)
  | K_fixed of Merge.key list (* resolved to output column indices *)
  | K_by_name of (string * bool) list (* resolved against columns at merge time *)

type gather_spec = {
  g_query : Ast.query; (* as shipped (may carry helper sort columns) *)
  g_keys : gkeys;
  g_dedup : bool;
  g_strip : int; (* trailing helper columns to drop after the merge *)
  g_merge_name : string; (* EXPLAIN detail *)
}

let key_name (e : Ast.expr) : string option =
  match e with
  | Ast.Path { Ast.var = Some v; steps = [] } -> Some (String.uppercase_ascii v)
  | Ast.Path { Ast.steps; _ } -> (
      match List.rev steps with
      | Ast.Field f :: _ -> Some (String.uppercase_ascii f)
      | _ -> None)
  | _ -> None

let find_index p l =
  let rec go i = function [] -> None | x :: rest -> if p x then Some i else go (i + 1) rest in
  go 0 l

(* Decide how to fan a SELECT in; rewrites the shipped query when the
   sort keys need to travel as extra columns. *)
let plan_gather (q : Ast.query) : gather_spec =
  if q.Ast.order_by = [] then
    { g_query = q; g_keys = K_none; g_dedup = true; g_strip = 0; g_merge_name = "union+dedup" }
  else
    match q.Ast.select with
    | Ast.Star ->
        (* SELECT * carries every top-level attribute, so the keys can
           be resolved against the returned column names *)
        let names =
          List.map
            (fun (oi : Ast.order_item) ->
              match key_name oi.Ast.key with
              | Some n -> (n, oi.Ast.descending)
              | None ->
                  refused P.err_feature
                    "cannot merge ORDER BY %s across shards (key is not a named attribute)"
                    (Ast.expr_to_string oi.Ast.key))
            q.Ast.order_by
        in
        { g_query = q; g_keys = K_by_name names; g_dedup = q.Ast.distinct; g_strip = 0; g_merge_name = "ordered" }
    | Ast.Items items when not q.Ast.distinct ->
        (* ship the sort keys as appended helper columns, strip them
           after the merge — works for arbitrary key expressions *)
        let base = List.length items in
        let extra =
          List.mapi
            (fun i (oi : Ast.order_item) ->
              { Ast.expr = oi.Ast.key; alias = Some (Printf.sprintf "_SK%d" i) })
            q.Ast.order_by
        in
        let keys =
          List.mapi
            (fun i (oi : Ast.order_item) -> { Merge.index = base + i; descending = oi.Ast.descending })
            q.Ast.order_by
        in
        {
          g_query = { q with Ast.select = Ast.Items (items @ extra) };
          g_keys = K_fixed keys;
          g_dedup = false;
          g_strip = List.length extra;
          g_merge_name = "ordered";
        }
    | Ast.Items items ->
        (* DISTINCT: appending columns would change the dedup, so the
           keys must already be in the select list *)
        let resolve (oi : Ast.order_item) =
          let kn = key_name oi.Ast.key in
          let matches (it : Ast.sel_item) =
            (match (it.Ast.alias, kn) with
            | Some al, Some n -> String.uppercase_ascii al = n
            | _ -> false)
            || Ast.expr_to_string it.Ast.expr = Ast.expr_to_string oi.Ast.key
            || match (it.Ast.alias, kn) with
               | None, Some n -> (
                   match key_name it.Ast.expr with Some m -> m = n | None -> false)
               | _ -> false
          in
          match find_index matches items with
          | Some i -> { Merge.index = i; descending = oi.Ast.descending }
          | None ->
              refused P.err_feature
                "cannot merge DISTINCT ... ORDER BY %s across shards (key is not in the select list)"
                (Ast.expr_to_string oi.Ast.key)
        in
        {
          g_query = q;
          g_keys = K_fixed (List.map resolve q.Ast.order_by);
          g_dedup = true;
          g_strip = 0;
          g_merge_name = "ordered";
        }

let drop_last n l = if n = 0 then l else List.filteri (fun i _ -> i < List.length l - n) l

let merge_select (spec : gather_spec) (parts : (int * P.response) list) : P.response =
  match first_error parts with
  | Some err -> err
  | None ->
      let tables =
        List.map
          (fun (i, r) ->
            match r with
            | P.Result_table { columns; rows } -> (i, columns, rows)
            | _ -> refused P.err_internal "shard %d answered a SELECT without a result table" i)
          parts
      in
      let columns = match tables with (_, cols, _) :: _ -> cols | [] -> [] in
      let partials = List.map (fun (_, _, rows) -> rows) tables in
      let rows =
        match spec.g_keys with
        | K_none -> Merge.union ~dedup:true partials
        | K_fixed keys ->
            let merged = Merge.merge_sorted ~keys partials in
            if spec.g_dedup then Merge.union ~dedup:true [ merged ] else merged
        | K_by_name names ->
            let keys =
              List.map
                (fun (n, descending) ->
                  match find_index (fun c -> String.uppercase_ascii c = n) columns with
                  | Some index -> { Merge.index; descending }
                  | None ->
                      refused P.err_feature
                        "cannot merge ORDER BY %s across shards (no such output column)" n)
                names
            in
            let merged = Merge.merge_sorted ~keys partials in
            if spec.g_dedup then Merge.union ~dedup:true [ merged ] else merged
      in
      P.Result_table
        {
          columns = drop_last spec.g_strip columns;
          rows = List.map (drop_last spec.g_strip) rows;
        }

(* --- EXPLAIN through the coordinator ------------------------------------ *)

let parse_est (text : string) : int =
  let key = "est_rows=" in
  let klen = String.length key in
  let n = String.length text in
  let rec find i =
    if i + klen > n then 0
    else if String.sub text i klen = key then begin
      let j = ref (i + klen) in
      while !j < n && text.[!j] >= '0' && text.[!j] <= '9' do incr j done;
      match int_of_string_opt (String.sub text (i + klen) (!j - i - klen)) with
      | Some v -> v
      | None -> 0
    end
    else find (i + 1)
  in
  find 0

let strip_plan_header (s : string) : string =
  let pfx = "plan:\n" in
  if String.length s >= String.length pfx && String.sub s 0 (String.length pfx) = pfx then
    String.sub s (String.length pfx) (String.length s - String.length pfx)
  else s

let reindent (by : int) (s : string) : string =
  let pad = String.make by ' ' in
  String.split_on_char '\n' s
  |> List.map (fun l -> if l = "" then l else pad ^ l)
  |> String.concat "\n"

let node_line ~(indent : int) (n : Plan.node) : string =
  Printf.sprintf "%s%s  (%s)\n" (String.make indent ' ') (Plan.describe n) (Plan.annot n)

let plan_text_of_response ~(what : string) (r : P.response) : string =
  match r with
  | P.Row_count { message; _ } -> strip_plan_header message
  | P.Error { code; message } -> Printf.sprintf "error %s: %s\n" code message
  | _ -> Printf.sprintf "unexpected %s response\n" what

let explain_single t ~(shard : int) ~(deadline : float) (sql : string) : P.response =
  let resp = single t ~shard ~read:true ~deadline sql in
  match resp with
  | P.Row_count { message; _ } ->
      let body = strip_plan_header message in
      let scan =
        Plan.shard_scan ~shard ~addr:(Pool.addr t.pools.(shard)) ~est_rows:(parse_est body)
      in
      P.Row_count { affected = 0; message = "plan:\n" ^ node_line ~indent:2 scan ^ reindent 2 body }
  | other -> other

let explain_scatter t (spec : gather_spec) ~(deadline : float) (sql : string) : P.response =
  let parts = scatter t ~read:true ~deadline sql in
  match first_error parts with
  | Some err -> err
  | None ->
      let bodies =
        List.map (fun (i, r) -> (i, plan_text_of_response ~what:"EXPLAIN" r)) parts
      in
      let scans =
        List.map
          (fun (i, body) ->
            (Plan.shard_scan ~shard:i ~addr:(Pool.addr t.pools.(i)) ~est_rows:(parse_est body), body))
          bodies
      in
      let gather =
        Plan.shard_gather
          ~children:(List.map fst scans)
          ~merge:(Printf.sprintf "%s deadline=%.1fs" spec.g_merge_name t.config.gather_deadline)
          ~est_rows:(List.fold_left (fun acc (n, _) -> acc + n.Plan.est_rows) 0 scans)
          ()
      in
      let b = Buffer.create 512 in
      Buffer.add_string b "plan:\n";
      Buffer.add_string b (node_line ~indent:2 gather);
      List.iter
        (fun (scan, body) ->
          Buffer.add_string b (node_line ~indent:4 scan);
          Buffer.add_string b (reindent 4 body))
        scans;
      P.Row_count { affected = 0; message = Buffer.contents b }

(* --- statement execution ------------------------------------------------- *)

let stmt_sql (stmt : Ast.stmt) : string = Ast.stmt_to_string stmt

(* Partition an INSERT's root rows by the hash of each row's first
   cell — the root key.  Placement is the one routing decision that is
   semantic rather than an optimization: it decides where the complex
   object lives. *)
let split_insert t ~(deadline : float) (i : Ast.stmt) rows table sub_path where : P.response =
  ignore table;
  let shard_of_row row =
    match row with
    | cell :: _ -> Shard_map.shard_of_key t.map (Ast.literal_to_string cell)
    | [] -> 0
  in
  let buckets = Hashtbl.create 4 in
  List.iter
    (fun row ->
      let k = shard_of_row row in
      Hashtbl.replace buckets k (row :: (Option.value (Hashtbl.find_opt buckets k) ~default:[])))
    rows;
  match Hashtbl.fold (fun k rs acc -> (k, List.rev rs) :: acc) buckets [] with
  | [] -> refused P.err_semantic "INSERT without rows"
  | [ (k, _) ] -> single t ~shard:k ~read:false ~deadline (stmt_sql i)
  | parts ->
      Metrics.incr t.metrics "coord_broadcast_stmts";
      let parts = List.sort compare parts in
      let jobs =
        Array.of_list
          (List.map
             (fun (k, rs) ->
               let sql =
                 stmt_sql (Ast.Insert { table; sub_path; where; rows = rs })
               in
               (k, fun () -> Pool.request t.pools.(k) ~kind:`Fanout ~read:false ~deadline sql))
             parts)
      in
      let outcomes = parallel jobs in
      Array.iter (fun (_, r) -> match r with Error e -> raise e | Ok _ -> ()) outcomes;
      let resps = Array.to_list (Array.map (fun (i, r) -> (i, Result.get_ok r)) outcomes) in
      (match first_error resps with
      | Some err -> err
      | None ->
          let total =
            List.fold_left
              (fun acc (_, r) -> match r with P.Row_count { affected; _ } -> acc + affected | _ -> acc)
              0 resps
          in
          P.Row_count
            {
              affected = total;
              message =
                Printf.sprintf "%d row(s) inserted across %d shard(s)" total (List.length resps);
            })

(* Execute one rewritten statement.  [local] is flipped when the
   statement ran on the embedded session (which then did its own
   bookkeeping). *)
let exec_stmt t (sess : Session.session) ~(local : bool ref) (stmt : Ast.stmt) : P.response =
  let deadline = Unix.gettimeofday () +. t.config.gather_deadline in
  let run_local () =
    local := true;
    Metrics.incr t.metrics "coord_local_stmts";
    Session.run_script sess (stmt_sql stmt ^ ";")
  in
  let fanout_select (q : Ast.query) =
    Metrics.incr t.metrics "coord_fanout_stmts";
    let spec = plan_gather q in
    let parts = scatter t ~read:true ~deadline (stmt_sql (Ast.Select spec.g_query)) in
    merge_select spec parts
  in
  match stmt with
  | Ast.Begin_txn | Ast.Commit | Ast.Rollback ->
      refused P.err_feature
        "explicit transactions are not supported through a coordinator: statements commit on \
         their own shard (distributed transactions are a ROADMAP follow-up)"
  | Ast.Select q -> (
      match select_route t q with
      | R_local -> run_local ()
      | R_single k -> single t ~shard:k ~read:true ~deadline (stmt_sql stmt)
      | R_scatter -> fanout_select q)
  | Ast.Explain q | Ast.Explain_analyze q -> (
      let analyze = match stmt with Ast.Explain_analyze _ -> true | _ -> false in
      let wrap inner = if analyze then Ast.Explain_analyze inner else Ast.Explain inner in
      match select_route t q with
      | R_local -> run_local ()
      | R_single k -> explain_single t ~shard:k ~deadline (stmt_sql (wrap q))
      | R_scatter ->
          Metrics.incr t.metrics "coord_fanout_stmts";
          let spec = plan_gather q in
          explain_scatter t spec ~deadline (stmt_sql (wrap q)))
  | Ast.Show_tables -> single t ~shard:0 ~read:true ~deadline (stmt_sql stmt)
  | Ast.Describe n ->
      if Db.is_sys_table t.db n then run_local ()
      else single t ~shard:0 ~read:true ~deadline (stmt_sql stmt)
  | Ast.Create_table { name; fields; _ } ->
      learn_key t name fields;
      broadcast_ddl t ~deadline (stmt_sql stmt)
  | Ast.Drop_table n ->
      forget_key t n;
      broadcast_ddl t ~deadline (stmt_sql stmt)
  | Ast.Create_index _ | Ast.Create_text_index _ | Ast.Alter_add _ ->
      broadcast_ddl t ~deadline (stmt_sql stmt)
  | Ast.Alter_drop { table; attr } ->
      (match key_field t table with
      | Some kf when String.uppercase_ascii attr = kf ->
          refused P.err_feature "cannot drop %s.%s: it is the partition key" table attr
      | _ -> ());
      broadcast_ddl t ~deadline (stmt_sql stmt)
  | Ast.Insert { table; sub_path = []; where; rows } ->
      split_insert t ~deadline stmt rows table [] where
  | Ast.Insert { table; sub_path = _ :: _; where; _ } -> (
      (* rows land inside existing roots; the WHERE picks the roots *)
      match pin_shard t ~rvar:None ~tbl:table where with
      | Some k -> single t ~shard:k ~read:false ~deadline (stmt_sql stmt)
      | None -> broadcast_dml t ~deadline (stmt_sql stmt))
  | Ast.Update { table; sub_path; sets; where; _ } -> (
      (match key_field t table with
      | Some kf when sub_path = [] && List.exists (fun (a, _) -> String.uppercase_ascii a = kf) sets ->
          refused P.err_feature
            "cannot update the partition key %s.%s: a complex object may not migrate between \
             shards in place (delete and re-insert)" table kf
      | _ -> ());
      match (if sub_path = [] then pin_shard t ~rvar:None ~tbl:table where else None) with
      | Some k -> single t ~shard:k ~read:false ~deadline (stmt_sql stmt)
      | None -> broadcast_dml t ~deadline (stmt_sql stmt))
  | Ast.Delete { table; sub_path; where; _ } -> (
      match (if sub_path = [] then pin_shard t ~rvar:None ~tbl:table where else None) with
      | Some k -> single t ~shard:k ~read:false ~deadline (stmt_sql stmt)
      | None -> broadcast_dml t ~deadline (stmt_sql stmt))

(* Run a ';'-separated script, routing statement by statement; a failed
   statement ends the script, like a session would.  Statements the
   embedded session did not see are folded into the coordinator's own
   SYS_STATEMENTS / SYS_SESSIONS via [Session.note_statement]. *)
let exec_script t (sess : Session.session) (input : string) : P.response =
  let stmts = Parser.parse_script input in
  if stmts = [] then refused P.err_syntax "empty query";
  let stmts = List.map Rewrite.rewrite_stmt stmts in
  let run_one stmt : P.response =
    let t0 = Unix.gettimeofday () in
    let local = ref false in
    let note ~rows ~status =
      (* the embedded session keeps its own books for local statements *)
      if not !local then begin
        Metrics.incr t.metrics "statements_total";
        Session.note_statement sess stmt ~seconds:(Unix.gettimeofday () -. t0) ~rows ~status
      end
    in
    match exec_stmt t sess ~local stmt with
    | resp ->
        let rows, status =
          match resp with
          | P.Result_table { rows; _ } -> (List.length rows, "ok")
          | P.Row_count { affected; _ } -> (affected, "ok")
          | P.Error _ -> (0, "error")
          | _ -> (0, "ok")
        in
        note ~rows ~status;
        resp
    | exception e ->
        note ~rows:0 ~status:"error";
        raise e
  in
  let rec go = function
    | [] -> assert false
    | [ stmt ] -> run_one stmt
    | stmt :: rest -> ( match run_one stmt with P.Error _ as err -> err | _ -> go rest)
  in
  go stmts

(* --- the shard counter source and SYS_SHARDS ---------------------------- *)

(* Read live by the registry: a shard that goes down shows in
   [shards_up] at the next read, with nothing to refresh first. *)
let shard_counters t () =
  let up p = if Pool.state p = Pool.Up then 1 else 0 in
  [
    ("shard.map_version", Shard_map.version t.map);
    ("shards.total", Array.length t.pools);
    ("shards.up", Array.fold_left (fun acc p -> acc + up p) 0 t.pools);
  ]
  @ List.concat_map
      (fun p ->
        let id = string_of_int (Pool.member p).Shard_map.id in
        let l name = Metrics.labeled_key name [ ("shard", id) ] in
        [
          (l "shard.routed", Pool.routed p);
          (l "shard.fanout", Pool.fanout p);
          (l "shard.errors", Pool.errors p);
          (l "shard.replica_reads", Pool.replica_reads p);
          (l "shard.stale_retries", Pool.stale_retries p);
          (l "shard.up", up p);
        ])
      (Array.to_list t.pools)

let sys_shards_provider t : Sysr.provider =
  let open Sysr.Build in
  let schema =
    relation "SYS_SHARDS"
      [
        field "SHARD" Atom.Tint;
        field "ADDR" Atom.Tstring;
        field "STATE" Atom.Tstring;
        field "MAPV" Atom.Tint;
        field "LAG" Atom.Tint;
        field "LAST_ERROR" Atom.Tstring;
        nested "COUNTS" Schema.Set [ field "KIND" Atom.Tstring; field "N" Atom.Tint ];
      ]
  in
  let materialize () =
    Array.to_list
      (Array.map
         (fun p ->
           let state = Pool.state p in
           let lag =
             if state = Pool.Replica_reads then Option.value (Pool.replica_lag p) ~default:(-1)
             else 0
           in
           let counts =
             [
               [ vstr "routed"; vint (Pool.routed p) ];
               [ vstr "fanout"; vint (Pool.fanout p) ];
               [ vstr "errors"; vint (Pool.errors p) ];
               [ vstr "replica_reads"; vint (Pool.replica_reads p) ];
               [ vstr "stale_retries"; vint (Pool.stale_retries p) ];
             ]
           in
           [
             vint (Pool.member p).Shard_map.id;
             vstr (Pool.addr p);
             vstr (Pool.state_name state);
             vint (Shard_map.version t.map);
             vint lag;
             vstr (Pool.last_error p);
             vset counts;
           ])
         t.pools)
  in
  { Sysr.name = "SYS_SHARDS"; schema; materialize }

let shard_map_response t : P.response =
  P.Shard_map
    {
      version = Shard_map.version t.map;
      shards =
        Array.to_list
          (Array.map
             (fun p ->
               {
                 P.sh_id = (Pool.member p).Shard_map.id;
                 sh_addr = Pool.addr p;
                 sh_state = Pool.state_name (Pool.state p);
                 sh_routed = Pool.routed p;
                 sh_fanout = Pool.fanout p;
                 sh_errors = Pool.errors p;
               })
             t.pools);
    }

(* --- request dispatch ----------------------------------------------------- *)

type csession = {
  sess : Session.session;
  prepared : (int, Ast.stmt * int) Hashtbl.t;
  mutable next_prep : int;
}

let coord_handle t (cs : csession) (req : P.request) : P.response =
  let protect kind f = Session.run_protected t.mgr kind "query_latency" f in
  let reject code message =
    Metrics.incr t.metrics "errors_total";
    P.Error { code; message }
  in
  match req with
  | P.Query input -> protect "requests_query" (fun () -> exec_script t cs.sess input)
  | P.Prepare input ->
      protect "requests_prepare" (fun () ->
          let pstmt, nparams = Parser.parse_prepared input in
          let pstmt = Rewrite.rewrite_stmt pstmt in
          let id = cs.next_prep in
          cs.next_prep <- id + 1;
          Hashtbl.replace cs.prepared id (pstmt, nparams);
          P.Prepared { id; nparams })
  | P.Execute_prepared { id; params } ->
      protect "requests_execute" (fun () ->
          match Hashtbl.find_opt cs.prepared id with
          | None -> refused P.err_protocol "no prepared statement #%d" id
          | Some (pstmt, nparams) ->
              if List.length params <> nparams then
                refused P.err_semantic "prepared statement #%d needs %d parameter(s), got %d" id
                  nparams (List.length params);
              (* bind, then route the bound statement like any other *)
              let bound = Params.bind_stmt pstmt params in
              let input = stmt_sql bound ^ ";" in
              exec_script t cs.sess input)
  | P.Shard_map_get ->
      Metrics.incr t.metrics "requests_shard_map";
      shard_map_response t
  | P.Begin | P.Commit | P.Rollback ->
      reject P.err_feature
        "explicit transactions are not supported through a coordinator: statements commit on \
         their own shard"
  | P.Shard_join _ | P.Shard_route _ ->
      reject P.err_protocol "this node is a coordinator, not a shard"
  | P.Metrics | P.Metrics_prom | P.Ping | P.Quit | P.Promote | P.Sys_reset | P.Set_slow_query _
  | P.Repl_handshake _ | P.Repl_ack _ ->
      (* identical semantics to a plain node; the session layer answers *)
      Session.handle cs.sess req

(* --- lifecycle ------------------------------------------------------------ *)

(* The coordinator runs on the server's connection loop; only the
   per-connection state and the handler are its own.  It starts no
   executor domains: reads run on the shards. *)
let start ?(server = Server.default_config) (config : config) : t =
  if config.members = [] then invalid_arg "Coord.start: no shards configured";
  let map = Shard_map.create ~version:config.map_version config.members in
  let metrics = Metrics.create () in
  let db = Db.create () in
  let mgr = Session.create_manager ~metrics db in
  let pools =
    Array.of_list
      (List.map
         (Pool.create ~cap:config.pool_cap ~map_version:config.map_version
            ~nshards:(List.length config.members))
         config.members)
  in
  let router =
    { map; pools; db; mgr; metrics; config; keyfields = Hashtbl.create 16; kmu = Mutex.create () }
  in
  Sysr.register (Db.sys_registry db) (sys_shards_provider router);
  Metrics.add_source metrics (shard_counters router);
  let open_conn ~sid =
    let cs = { sess = Session.open_session mgr ~sid; prepared = Hashtbl.create 8; next_prep = 1 } in
    { Server.handle = coord_handle router cs; close = (fun () -> Session.close_session cs.sess) }
  in
  let on_stop () = Array.iter Pool.close_all pools in
  { router; server = Server.serve ~on_stop server ~metrics mgr open_conn }

let stop t = Server.stop t.server

let render_metrics t = Session.render_metrics t.router.mgr
