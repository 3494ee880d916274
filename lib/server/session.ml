(* Session manager: one session per connection, mapping the wire
   protocol onto the engine.

   Concurrency model (see docs/CONCURRENCY.md):

   - statements are classified (after Rewrite normalisation) as
     read-only or mutating.  A plain read-only statement takes {e no
     lock and no latch at all}: it pins an MVCC snapshot (one atomic
     read of the engine's multi-version state, {!Nf2_temporal.Mvcc}),
     evaluates against the frozen version chains on a worker domain,
     and releases the pin — writers never block readers and readers
     never block writers.  Mutating statements, DDL, and the
     replication applier hold the engine's exclusive latch and still
     see the engine strictly alone; commits publish new versions and
     advance the snapshot LSN;
   - write-write isolation across sessions comes from predicate locks
     ({!Nf2_lock.Predicate_lock}): writers take Exclusive whole-table
     locks that explicit transactions hold until COMMIT/ROLLBACK
     (two-phase locking).  Shared locks remain only for reads {e
     inside} an explicit transaction, which must see the transaction's
     own uncommitted writes and therefore bypass the snapshot path;
   - at most one *engine* transaction is open at a time (the engine has
     a single transaction state); BEGIN and autocommitted mutations
     acquire this "transaction slot" first, so a transaction's
     uncommitted pages can never leak into another session's
     transaction;
   - every wait — slot or lock — carries a deadline; when it passes the
     request fails with a lock-timeout error instead of hanging, and a
     wait that would close a waits-for cycle fails immediately with a
     deadlock error.  A timeout or deadlock inside an explicit
     transaction aborts that transaction (the lock table's two-phase
     release drops everything at once);
   - commits append their WAL commit record under the engine mutex but
     fsync *outside* it via {!Nf2_storage.Wal.sync_to}, which is what
     lets concurrent committers share one fsync (group commit). *)

module Db = Nf2.Db
module Mvcc = Nf2_temporal.Mvcc
module PL = Nf2_lock.Predicate_lock
module Wal = Nf2_storage.Wal
module BP = Nf2_storage.Buffer_pool
module Disk = Nf2_storage.Disk
module Trace = Nf2_obs.Trace
module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module Rel = Nf2_algebra.Rel
module Ast = Nf2_lang.Ast
module Parser = Nf2_lang.Parser
module Lexer = Nf2_lang.Lexer
module Eval = Nf2_lang.Eval
module Rewrite = Nf2_lang.Rewrite
module Params = Nf2_lang.Params
module Sysr = Nf2_sys.Registry
module Stmt_stats = Nf2_sys.Stmt_stats
module Trace_ring = Nf2_sys.Trace_ring
module P = Protocol

(* A refusal that maps straight to a wire error. *)
exception Refused of string * string (* SQLSTATE-style code, message *)

let refused code fmt = Fmt.kstr (fun s -> raise (Refused (code, s))) fmt

(* [pstmt] is stored already Rewrite-normalised, so Execute binds
   parameters and runs without rewriting again (see the regression
   test: rewrite happens once, at Prepare). *)
type prep = { pstmt : Ast.stmt; nparams : int }

(* One finished statement in a session's recent ring (SYS_SESSIONS). *)
type recent = { rseq : int; rstmt : string; rms : float; rstatus : string }

type manager = {
  db : Db.t;
  engine : Rwlock.t; (* readers share the engine; writers hold it alone *)
  executor : Executor.t option; (* worker domains for parallel read evaluation *)
  mu : Mutex.t; (* guards the lock table and the transaction slot *)
  locks : PL.t;
  mutable txn_owner : int option; (* session id holding the engine txn slot *)
  lock_timeout : float; (* seconds a lock / slot wait may last *)
  group_commit : bool;
  metrics : Metrics.t;
  mutable slow_query : float option; (* trace statements; log those slower than this *)
  slow_sink : string -> unit; (* one structured line per offending statement *)
  mutable read_only : bool; (* replica mode: mutations refused with 25006 *)
  mutable promote : (unit -> string) option; (* installed by the replica tier *)
  start_time : float; (* for the uptime gauge *)
  smu : Mutex.t; (* guards [sessions] and every session's recent ring *)
  sessions : (int, session) Hashtbl.t; (* open sessions, by sid *)
  stmt_stats : Stmt_stats.t; (* cumulative per-shape statement statistics *)
  attribution : unit -> int array;
      (* samples the sources each statement is charged from: pool,
         disk, WAL, lock table, planner *)
  traces : Trace_ring.t; (* recent slow-query span trees *)
  mutable shard_identity : (int * int * int) option;
      (* (map version, shard id, nshards) once a coordinator has sent
         Shard_join; routed statements must match the version *)
}

and session = {
  sid : int;
  mgr : manager;
  prepared : (int, prep) Hashtbl.t;
  mutable next_prep : int;
  mutable ltxn : PL.txn option; (* lock-table transaction while in an explicit txn *)
  mutable in_txn : bool;
  started : float;
  mutable stmts_run : int; (* guarded by [mgr.smu], like [recent] *)
  mutable recent : recent list; (* newest first, <= [recent_cap] *)
}

let recent_cap = 16

(* --- statement-shape normalization ------------------------------------

   The SYS_STATEMENTS key: the statement with every constant (and
   every already-bound parameter) replaced by a fresh [?n] placeholder,
   printed back to text.  Two executions differing only in literals
   share one shape, so their statistics aggregate — the
   pg_stat_statements model, computed on the AST instead of the
   lexeme stream. *)

let normalize_stmt (stmt : Ast.stmt) : string =
  let n = ref 0 in
  let fresh () =
    incr n;
    !n
  in
  let rec expr (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.Const _ | Ast.Param _ -> Ast.Param (fresh ())
    | Ast.Path _ -> e
    | Ast.Subquery q -> Ast.Subquery (query q)
    | Ast.Binop (op, a, b) ->
        let a = expr a in
        Ast.Binop (op, a, expr b)
    | Ast.Neg e -> Ast.Neg (expr e)
    | Ast.Agg (a, eo) -> Ast.Agg (a, Option.map expr eo)
  and pred (pr : Ast.pred) : Ast.pred =
    match pr with
    | Ast.Cmp (c, a, b) ->
        let a = expr a in
        Ast.Cmp (c, a, expr b)
    | Ast.And (a, b) ->
        let a = pred a in
        Ast.And (a, pred b)
    | Ast.Or (a, b) ->
        let a = pred a in
        Ast.Or (a, pred b)
    | Ast.Not a -> Ast.Not (pred a)
    | Ast.Exists (r, body) ->
        let r = range r in
        Ast.Exists (r, pred body)
    | Ast.Forall (r, body) ->
        let r = range r in
        Ast.Forall (r, pred body)
    | Ast.Contains (e, pat) -> Ast.Contains (expr e, pat)
    | Ast.Bool_expr e -> Ast.Bool_expr (expr e)
  and range (r : Ast.range) : Ast.range = { r with Ast.asof = Option.map expr r.Ast.asof }
  and query (q : Ast.query) : Ast.query =
    let select =
      match q.Ast.select with
      | Ast.Star -> Ast.Star
      | Ast.Items items ->
          Ast.Items
            (List.map (fun (it : Ast.sel_item) -> { it with Ast.expr = expr it.Ast.expr }) items)
    in
    let from = List.map range q.Ast.from in
    let where = Option.map pred q.Ast.where in
    let order_by =
      List.map (fun (oi : Ast.order_item) -> { oi with Ast.key = expr oi.Ast.key }) q.Ast.order_by
    in
    { q with Ast.select; from; where; order_by }
  in
  let rec literal (l : Ast.literal_value) : Ast.literal_value =
    match l with
    | Ast.L_atom _ | Ast.L_param _ -> Ast.L_param (fresh ())
    | Ast.L_table (k, rows) -> Ast.L_table (k, List.map (List.map literal) rows)
  in
  let stmt =
    match stmt with
    | Ast.Select q -> Ast.Select (query q)
    | Ast.Explain q -> Ast.Explain (query q)
    | Ast.Explain_analyze q -> Ast.Explain_analyze (query q)
    | Ast.Insert i ->
        Ast.Insert
          { i with where = Option.map pred i.where; rows = List.map (List.map literal) i.rows }
    | Ast.Update u ->
        Ast.Update
          {
            u with
            sets = List.map (fun (a, e) -> (a, expr e)) u.sets;
            where = Option.map pred u.where;
            at = Option.map expr u.at;
          }
    | Ast.Delete d ->
        Ast.Delete { d with where = Option.map pred d.where; at = Option.map expr d.at }
    | ( Ast.Create_table _ | Ast.Drop_table _ | Ast.Create_index _ | Ast.Create_text_index _
      | Ast.Alter_add _ | Ast.Alter_drop _ | Ast.Begin_txn | Ast.Commit | Ast.Rollback
      | Ast.Show_tables | Ast.Describe _ ) as s ->
        s
  in
  Ast.stmt_to_string stmt

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* --- SYS providers (server tier) ---------------------------------------

   The session layer's half of the SYS schema: sessions, cumulative
   statement statistics, the lock table, the metrics registry and the
   slow-query trace ring, each materialized on demand as an NF²
   relation.  Registration happens once per manager; the thunks close
   over [mgr].  None of this sits on the statement hot path — the
   per-statement recorders below touch only [stmt_stats] / [recent],
   never the registry. *)

let version = "0.9"

let sf n ty = { Schema.name = n; attr = Schema.Atomic ty }

let snest n kind fields = { Schema.name = n; attr = Schema.Table { Schema.kind; fields } }

let sys_schema name fields =
  Schema.validate { Schema.name; table = { Schema.kind = Schema.Set; fields } }

let vint n = Value.Atom (Atom.Int n)
let vstr s = Value.Atom (Atom.Str s)
let vbool b = Value.Atom (Atom.Bool b)
let vfloat f = Value.Atom (Atom.Float f)
let vset tuples = Value.Table { Value.kind = Schema.Set; tuples }
let vlist tuples = Value.Table { Value.kind = Schema.List; tuples }

(* SYS_SESSIONS: open sessions with their recent-statement rings.  TXN
   is the predicate-lock transaction id (-1 outside a transaction) —
   the join key against SYS_LOCKS. *)
let sys_sessions_provider (mgr : manager) : Sysr.provider =
  let schema =
    sys_schema "SYS_SESSIONS"
      [
        sf "SID" Atom.Tint;
        sf "IN_TXN" Atom.Tbool;
        sf "TXN" Atom.Tint;
        sf "NSTMTS" Atom.Tint;
        sf "AGE_S" Atom.Tfloat;
        snest "STMTS" Schema.List
          [ sf "SEQ" Atom.Tint; sf "STMT" Atom.Tstring; sf "MS" Atom.Tfloat; sf "STATUS" Atom.Tstring ];
      ]
  in
  let materialize () =
    let now = Unix.gettimeofday () in
    with_lock mgr.smu (fun () ->
        Hashtbl.fold (fun _ sess acc -> sess :: acc) mgr.sessions []
        |> List.sort (fun a b -> compare a.sid b.sid)
        |> List.map (fun sess ->
               let stmts =
                 List.rev_map
                   (fun r -> [ vint r.rseq; vstr r.rstmt; vfloat r.rms; vstr r.rstatus ])
                   sess.recent
                 |> List.rev
               in
               [
                 vint sess.sid;
                 vbool sess.in_txn;
                 vint (match sess.ltxn with Some l -> l | None -> -1);
                 vint sess.stmts_run;
                 vfloat (now -. sess.started);
                 vlist stmts;
               ]))
  in
  { Sysr.name = "SYS_SESSIONS"; schema; materialize }

(* SYS_STATEMENTS: cumulative per-shape statistics (pg_stat_statements
   in the NF² idiom).  Times in milliseconds. *)
let sys_statements_provider (mgr : manager) : Sysr.provider =
  let schema =
    sys_schema "SYS_STATEMENTS"
      ([
         sf "SHAPE" Atom.Tstring;
         sf "CALLS" Atom.Tint;
         sf "ROWS_OUT" Atom.Tint;
         sf "TOTAL_MS" Atom.Tfloat;
         sf "MIN_MS" Atom.Tfloat;
         sf "MAX_MS" Atom.Tfloat;
         sf "P95_MS" Atom.Tfloat;
       ]
      @ List.map
          (fun (_, column, scale) ->
            sf column (match scale with Stmt_stats.Count -> Atom.Tint | Ms_of_ns -> Atom.Tfloat))
          Stmt_stats.attributed)
  in
  let cell (_, _, scale) v =
    match scale with Stmt_stats.Count -> vint v | Ms_of_ns -> vfloat (Float.of_int v /. 1e6)
  in
  let materialize () =
    List.map
      (fun (e : Stmt_stats.entry) ->
        [
          vstr e.Stmt_stats.shape;
          vint e.calls;
          vint e.rows;
          vfloat (e.total_s *. 1e3);
          vfloat (e.min_s *. 1e3);
          vfloat (e.max_s *. 1e3);
          vfloat (e.p95_s *. 1e3);
        ]
        @ List.map2 cell Stmt_stats.attributed (Array.to_list e.counters))
      (Stmt_stats.snapshot mgr.stmt_stats)
  in
  { Sysr.name = "SYS_STATEMENTS"; schema; materialize }

(* SYS_LOCKS: one row per granted predicate lock, with the waiters
   actually blocked on it nested — a waiter appears under a grant when
   its waits-for edge targets the grant's owner and the two requests
   genuinely conflict (mode and predicate). *)
let sys_locks_provider (mgr : manager) : Sysr.provider =
  let schema =
    sys_schema "SYS_LOCKS"
      [
        sf "TXN" Atom.Tint;
        sf "MODE" Atom.Tstring;
        sf "PREDICATE" Atom.Tstring;
        sf "NWAITERS" Atom.Tint;
        snest "WAITERS" Schema.Set
          [ sf "WTXN" Atom.Tint; sf "WMODE" Atom.Tstring; sf "WPREDICATE" Atom.Tstring ];
      ]
  in
  let materialize () =
    let granted, waiters, waits_for =
      with_lock mgr.mu (fun () -> PL.dump mgr.locks)
    in
    List.map
      (fun (owner, mode, predicate) ->
        let blocked =
          List.filter_map
            (fun (wtxn, wmode, wpredicate) ->
              if
                List.mem (wtxn, owner) waits_for
                && PL.modes_conflict wmode mode
                && PL.predicates_overlap wpredicate predicate
              then
                Some
                  [ vint wtxn; vstr (PL.mode_name wmode); vstr (PL.predicate_to_string wpredicate) ]
              else None)
            waiters
        in
        [
          vint owner;
          vstr (PL.mode_name mode);
          vstr (PL.predicate_to_string predicate);
          vint (List.length blocked);
          vset blocked;
        ])
      granted
  in
  { Sysr.name = "SYS_LOCKS"; schema; materialize }

(* --- counter sources -------------------------------------------------------

   Each layer names its counters once, as one source read live by every
   consumer: the metrics registry (SYS_METRICS, [\\metrics], the
   Prometheus scrape), statement attribution (SYS_STATEMENTS) and
   slow-query traces.  The storage layers define theirs
   ({!BP.counters}, {!Disk.counters}, {!Db.wal_counters},
   {!PL.counters}, {!Db.mvcc_counters}, {!Db.plan_counters}); the
   session layer adds the engine latch, the executor and its own
   gauges. *)

let engine_counters (engine : Rwlock.t) () =
  [
    ("engine.readers_active", Rwlock.readers_active engine);
    ("engine.read_grants", Rwlock.read_grants engine);
    ("engine.write_grants", Rwlock.write_grants engine);
  ]

let executor_counters (ex : Executor.t) () =
  [
    ("executor.domains", Executor.size ex);
    ("executor.active", Executor.active ex);
    ("executor.jobs", Executor.executed ex);
  ]

let server_gauges (mgr : manager) () =
  [
    (Metrics.labeled_key "build_info" [ ("version", version); ("ocaml", Sys.ocaml_version) ], 1.);
    ("uptime_seconds", Unix.gettimeofday () -. mgr.start_time);
    ("slow_query_threshold_seconds", Option.value mgr.slow_query ~default:0.);
  ]

(* SYS_METRICS: the registry itself.  Counters and float gauges carry
   their value flat; histograms carry their sum in VALUE and the raw
   (non-cumulative) bucket counts as a nested LIST — nested-path
   queries aggregate them back.  Every layer's source is read live, so
   the view matches what a scrape at the same moment would serve. *)
let sys_metrics_provider (mgr : manager) : Sysr.provider =
  let schema =
    sys_schema "SYS_METRICS"
      [
        sf "NAME" Atom.Tstring;
        sf "VALUE" Atom.Tfloat;
        snest "BUCKETS" Schema.List [ sf "LE" Atom.Tfloat; sf "CNT" Atom.Tint ];
      ]
  in
  let materialize () =
    let counters, histograms = Metrics.dump mgr.metrics in
    let floats = Metrics.dump_floats mgr.metrics in
    List.map (fun (name, v) -> [ vstr name; vfloat (Float.of_int v); vlist [] ]) counters
    @ List.map (fun (name, v) -> [ vstr name; vfloat v; vlist [] ]) floats
    @ List.map
        (fun (name, (h : Metrics.hdump)) ->
          let buckets =
            List.init (Array.length h.Metrics.counts) (fun i ->
                [ vfloat h.Metrics.bounds.(i); vint h.Metrics.counts.(i) ])
          in
          [ vstr name; vfloat h.Metrics.sum; vlist buckets ])
        histograms
  in
  { Sysr.name = "SYS_METRICS"; schema; materialize }

(* SYS_TRACES: the bounded ring of recent slow-query traces, span
   trees flattened to depth-annotated LIST rows (pre-order). *)
let sys_traces_provider (mgr : manager) : Sysr.provider =
  let schema =
    sys_schema "SYS_TRACES"
      [
        sf "SEQ" Atom.Tint;
        sf "SID" Atom.Tint;
        sf "STMT" Atom.Tstring;
        sf "MS" Atom.Tfloat;
        sf "STATUS" Atom.Tstring;
        snest "SPANS" Schema.List
          [
            sf "DEPTH" Atom.Tint;
            sf "LABEL" Atom.Tstring;
            sf "SROWS" Atom.Tint;
            sf "CALLS" Atom.Tint;
            sf "US" Atom.Tint;
          ];
      ]
  in
  let materialize () =
    List.map
      (fun (e : Trace_ring.entry) ->
        let spans =
          List.map
            (fun (sp : Trace_ring.span) ->
              [
                vint sp.Trace_ring.depth;
                vstr sp.Trace_ring.label;
                vint sp.Trace_ring.srows;
                vint sp.Trace_ring.calls;
                vint sp.Trace_ring.us;
              ])
            e.Trace_ring.spans
        in
        [
          vint e.Trace_ring.seq;
          vint e.Trace_ring.sid;
          vstr e.Trace_ring.stmt;
          vfloat e.Trace_ring.ms;
          vstr e.Trace_ring.status;
          vlist spans;
        ])
      (Trace_ring.snapshot mgr.traces)
  in
  { Sysr.name = "SYS_TRACES"; schema; materialize }

let register_server_sys (mgr : manager) =
  let reg = Db.sys_registry mgr.db in
  Sysr.register reg (sys_sessions_provider mgr);
  Sysr.register reg (sys_statements_provider mgr);
  Sysr.register reg (sys_locks_provider mgr);
  Sysr.register reg (sys_metrics_provider mgr);
  Sysr.register reg (sys_traces_provider mgr)

let create_manager ?(lock_timeout = 2.0) ?(group_commit = true) ?(group_window = 0.002)
    ?(wal_appender = true) ?slow_query ?(slow_sink = prerr_endline) ?executor
    ~(metrics : Metrics.t) (db : Db.t) : manager =
  Db.attach_wal db;
  (match Db.wal db with
  | Some w ->
      let window = if group_window > 0. then fun () -> Thread.delay group_window else fun () -> () in
      Wal.set_group_commit ~window w group_commit;
      (* the async appender supersedes the leader/follower scheme when
         enabled: commits enqueue, one thread fsyncs per batch *)
      if group_commit && wal_appender then Wal.set_async_appender w true
  | None -> ());
  let engine = Rwlock.create () and locks = PL.create () in
  let attributed =
    [
      (fun () -> BP.counters (Db.pool db));
      (fun () -> Disk.counters (Db.disk db));
      (fun () -> Db.wal_counters db);
      (fun () -> PL.counters locks);
      (fun () -> Db.plan_counters db);
    ]
  in
  List.iter (Metrics.add_source metrics)
    (attributed
    @ [ engine_counters engine; (fun () -> Db.mvcc_counters db) ]
    @ Option.to_list (Option.map executor_counters executor));
  let mgr =
    {
      db;
      engine;
      executor;
      mu = Mutex.create ();
      locks;
      txn_owner = None;
      lock_timeout;
      group_commit;
      metrics;
      slow_query;
      slow_sink;
      read_only = false;
      promote = None;
      start_time = Unix.gettimeofday ();
      smu = Mutex.create ();
      sessions = Hashtbl.create 16;
      stmt_stats = Stmt_stats.create ();
      attribution = Stmt_stats.sampler attributed;
      traces = Trace_ring.create ();
      shard_identity = None;
    }
  in
  Metrics.add_float_source metrics (server_gauges mgr);
  register_server_sys mgr;
  mgr

(* Runtime observability switches (the [\\sys] / [\\slow-query] meta
   commands). *)
let set_slow_query (mgr : manager) v = mgr.slow_query <- v
let slow_query (mgr : manager) = mgr.slow_query

let sys_reset (mgr : manager) =
  Stmt_stats.reset mgr.stmt_stats;
  Trace_ring.reset mgr.traces

(* Replica wiring (see lib/repl): a read-only manager refuses mutating
   statements with the replica SQLSTATE; the promote handler, when
   installed, serves the [Promote] request. *)
let set_read_only (mgr : manager) v = mgr.read_only <- v
let read_only (mgr : manager) = mgr.read_only
let set_promote_handler (mgr : manager) f = mgr.promote <- Some f
let manager_db (mgr : manager) = mgr.db

let open_session (mgr : manager) ~(sid : int) : session =
  let sess =
    {
      sid;
      mgr;
      prepared = Hashtbl.create 8;
      next_prep = 1;
      ltxn = None;
      in_txn = false;
      started = Unix.gettimeofday ();
      stmts_run = 0;
      recent = [];
    }
  in
  with_lock mgr.smu (fun () -> Hashtbl.replace mgr.sessions sid sess);
  sess

(* --- which tables does a statement touch? ------------------------------

   Conservative whole-table lock specs: Shared on every table a
   statement reads (FROM ranges, subqueries, WHERE / SET / AT
   expressions), Exclusive on the table a mutation or DDL targets.
   Predicate refinement (locking only the WHERE-restricted slice) is a
   ROADMAP item; whole-table specs are sound, just coarser. *)

(* (mode, table) lock specs by table name, uppercased: Exclusive on the
   written tables, Shared on the others read.  SYS sources materialize
   engine state on demand — nothing a predicate lock protects — so
   reads of them lock nothing, even inside an explicit transaction. *)
let lock_specs (mgr : manager) (stmt : Ast.stmt) : (PL.mode * string) list =
  let writes =
    match stmt with
    | Ast.Insert { table; _ } | Ast.Update { table; _ } | Ast.Delete { table; _ }
    | Ast.Create_index { table; _ } | Ast.Create_text_index { table; _ }
    | Ast.Alter_add { table; _ } | Ast.Alter_drop { table; _ } ->
        [ table ]
    | Ast.Create_table { name; _ } | Ast.Drop_table name -> [ name ]
    | Ast.Select _ | Ast.Explain _ | Ast.Explain_analyze _ | Ast.Show_tables | Ast.Describe _
    | Ast.Begin_txn | Ast.Commit | Ast.Rollback ->
        []
  in
  let dedup l = List.sort_uniq String.compare (List.map String.uppercase_ascii l) in
  let writes = dedup writes in
  let reads =
    dedup (Ast.fold_stmt_ranges Ast.add_table [] stmt)
    |> List.filter (fun t -> not (List.mem t writes || Db.is_sys_table mgr.db t))
  in
  List.map (fun t -> (PL.Exclusive, t)) writes @ List.map (fun t -> (PL.Shared, t)) reads

(* --- waiting with deadlines -------------------------------------------- *)

let poll_interval = 0.002

(* Acquire every (mode, table) spec for [ltxn], waiting at most until
   the shared deadline.  On deadlock or timeout the caller's cleanup
   releases whatever was granted (two-phase release). *)
let acquire_locks (mgr : manager) (ltxn : PL.txn) (specs : (PL.mode * string) list)
    ~(deadline : float) =
  let acquire_one (mode, table) =
    (* blocked time is charged to the lock table's stats, where the
       per-statement trace picks it up as a wait_ns delta *)
    let first_block = ref None in
    let settle_wait () =
      match !first_block with
      | Some t0 ->
          PL.add_wait_ns mgr.locks (Float.to_int ((Unix.gettimeofday () -. t0) *. 1e9))
      | None -> ()
    in
    let rec loop first =
      let outcome =
        with_lock mgr.mu (fun () -> PL.acquire mgr.locks ltxn mode (PL.whole_table table))
      in
      match outcome with
      | PL.Granted -> settle_wait ()
      | PL.Deadlock _ ->
          settle_wait ();
          refused P.err_deadlock "deadlock detected acquiring %s lock on %s" (PL.mode_name mode)
            table
      | PL.Blocked _ ->
          if first then begin
            Metrics.incr mgr.metrics "lock_waits";
            first_block := Some (Unix.gettimeofday ())
          end;
          if Unix.gettimeofday () > deadline then begin
            settle_wait ();
            Metrics.incr mgr.metrics "lock_timeouts";
            refused P.err_lock_timeout "lock wait on %s timed out after %.1fs" table
              mgr.lock_timeout
          end;
          Thread.delay poll_interval;
          loop false
    in
    loop true
  in
  (* exclusive first: a writer that would time out should fail before
     collecting shared locks it would only have to give back *)
  let ordered =
    List.sort (fun (a, _) (b, _) -> compare (a = PL.Shared) (b = PL.Shared)) specs
  in
  List.iter acquire_one ordered

(* The engine-transaction slot: at most one open engine transaction. *)
let acquire_slot (sess : session) ~(deadline : float) =
  let mgr = sess.mgr in
  let rec loop first =
    let got =
      with_lock mgr.mu (fun () ->
          match mgr.txn_owner with
          | None ->
              mgr.txn_owner <- Some sess.sid;
              true
          | Some owner -> owner = sess.sid)
    in
    if not got then begin
      if first then Metrics.incr mgr.metrics "txn_slot_waits";
      if Unix.gettimeofday () > deadline then begin
        Metrics.incr mgr.metrics "lock_timeouts";
        refused P.err_lock_timeout "transaction slot wait timed out after %.1fs" mgr.lock_timeout
      end;
      Thread.delay poll_interval;
      loop false
    end
  in
  loop true

let release_slot (sess : session) =
  let mgr = sess.mgr in
  with_lock mgr.mu (fun () ->
      match mgr.txn_owner with Some owner when owner = sess.sid -> mgr.txn_owner <- None | _ -> ())

let release_locks (mgr : manager) (ltxn : PL.txn) =
  with_lock mgr.mu (fun () -> PL.release_all mgr.locks ltxn)

let fresh_ltxn (mgr : manager) : PL.txn = with_lock mgr.mu (fun () -> PL.begin_txn mgr.locks)

(* --- engine access ------------------------------------------------------

   The engine latch has two sides.  Mutating statements, DDL, engine
   transaction control, and the replication applier take the exclusive
   side ([with_engine]) and see the engine strictly alone, exactly as
   under the old global mutex.  Read-only statements take the shared
   side and additionally dispatch their evaluation to the executor's
   worker domains, so reads run in parallel across cores while the
   session systhread merely blocks for the result.  Lock order is
   predicate locks first, engine latch second, for readers and writers
   alike, so the two layers cannot deadlock against each other. *)

let with_engine (mgr : manager) f = Rwlock.with_write mgr.engine f

let with_engine_read (mgr : manager) f =
  Rwlock.with_read mgr.engine (fun () ->
      match mgr.executor with Some ex -> Executor.run ex f | None -> f ())

(* After a commit released the engine latch, make it durable — sharing
   the fsync with concurrent committers when group commit is on (with
   it off, Wal.commit already flushed under the latch). *)
let sync_commit (mgr : manager) (lsn : Wal.lsn option) =
  match (Db.wal mgr.db, lsn) with
  | Some w, Some lsn when mgr.group_commit -> Wal.sync_to w lsn
  | _ -> ()

(* --- transaction control ------------------------------------------------ *)

let do_begin (sess : session) : Db.result =
  (* an explicit transaction would hold the engine's single transaction
     slot open, stalling the replication applier between batches *)
  if sess.mgr.read_only then
    refused P.err_read_only "read-only replica: explicit transactions are refused";
  if sess.in_txn then refused P.err_txn_state "transaction already open";
  let deadline = Unix.gettimeofday () +. sess.mgr.lock_timeout in
  acquire_slot sess ~deadline;
  match with_engine sess.mgr (fun () -> Db.begin_txn sess.mgr.db) with
  | () ->
      sess.ltxn <- Some (fresh_ltxn sess.mgr);
      sess.in_txn <- true;
      Db.Msg "transaction started"
  | exception e ->
      release_slot sess;
      raise e

(* End the explicit transaction's lock scope (two-phase release). *)
let end_txn_scope (sess : session) =
  (match sess.ltxn with Some l -> release_locks sess.mgr l | None -> ());
  sess.ltxn <- None;
  sess.in_txn <- false;
  release_slot sess

let do_commit (sess : session) : Db.result =
  if not sess.in_txn then refused P.err_txn_state "COMMIT without BEGIN";
  (* Early lock release: once the commit record is appended (inside
     Db.commit, under the engine mutex) the engine transaction is over,
     so locks and the slot go back before the durability wait.  This is
     what lets concurrent committers pile into one fsync — and it is
     safe because the log is flushed in prefix order: no later
     transaction can become durable before this one. *)
  let lsn =
    Fun.protect
      ~finally:(fun () -> end_txn_scope sess)
      (fun () ->
        with_engine sess.mgr (fun () ->
            Db.commit sess.mgr.db;
            Option.map Wal.last_lsn (Db.wal sess.mgr.db)))
  in
  sync_commit sess.mgr lsn;
  Metrics.incr sess.mgr.metrics "txns_committed";
  Db.Msg "committed"

let do_rollback (sess : session) : Db.result =
  if not sess.in_txn then refused P.err_txn_state "ROLLBACK without BEGIN";
  Fun.protect
    ~finally:(fun () -> end_txn_scope sess)
    (fun () ->
      with_engine sess.mgr (fun () -> Db.rollback sess.mgr.db);
      Metrics.incr sess.mgr.metrics "txns_rolled_back";
      Db.Msg "rolled back")

(* Abort the explicit transaction after a failure inside it (lock
   timeout, deadlock, or an engine error mid-transaction would leave
   partially applied work). *)
let abort_txn (sess : session) =
  if sess.in_txn then begin
    (try with_engine sess.mgr (fun () -> Db.rollback sess.mgr.db) with _ -> ());
    Metrics.incr sess.mgr.metrics "txns_rolled_back";
    end_txn_scope sess
  end

(* --- statement execution ------------------------------------------------ *)

let count_stmt_metric (mgr : manager) (stmt : Ast.stmt) =
  let kind =
    match stmt with
    | Ast.Select _ | Ast.Explain _ | Ast.Explain_analyze _ -> "select"
    | Ast.Insert _ -> "insert"
    | Ast.Update _ -> "update"
    | Ast.Delete _ -> "delete"
    | Ast.Begin_txn | Ast.Commit | Ast.Rollback -> "txn"
    | _ -> "ddl"
  in
  Metrics.incr mgr.metrics ("stmts_" ^ kind);
  Metrics.incr_labeled mgr.metrics "stmts" [ ("kind", kind) ]

(* Run one non-transaction-control statement with proper locking.
   [stmt] is already Rewrite-normalised (handle/Execute do it once),
   so evaluation below runs with [rewrite:false] and classification
   happens on the normalised form.

   In an explicit transaction: locks accumulate on the session's lock
   transaction and are held until COMMIT/ROLLBACK; a failure aborts the
   transaction.  Outside one: a mutating statement becomes its own
   engine transaction (slot + X locks + exclusive latch, commit with
   group fsync); a read takes statement-duration S locks and runs
   under the shared latch on a worker domain. *)
let run_stmt ?trace (sess : session) (stmt : Ast.stmt) : Db.result =
  let mgr = sess.mgr in
  count_stmt_metric mgr stmt;
  match stmt with
  | Ast.Begin_txn -> do_begin sess
  | Ast.Commit -> do_commit sess
  | Ast.Rollback -> do_rollback sess
  | _ ->
      if mgr.read_only && Ast.mutates stmt then begin
        Metrics.incr mgr.metrics "stmts_refused_read_only";
        refused P.err_read_only
          "read-only replica: mutating statements are refused (promote to accept writes)"
      end;
      let exec () = Db.exec_stmt ?trace ~rewrite:false mgr.db stmt in
      let deadline = Unix.gettimeofday () +. mgr.lock_timeout in
      if sess.in_txn then begin
        let ltxn = Option.get sess.ltxn in
        (* reads inside an explicit transaction may still share the
           latch: predicate locks keep other sessions off this
           transaction's written tables, and a read mutates nothing *)
        let with_eng = if Ast.mutates stmt then with_engine mgr else with_engine_read mgr in
        match
          acquire_locks mgr ltxn (lock_specs mgr stmt) ~deadline;
          with_eng exec
        with
        | r -> r
        | exception (Nf2_storage.Disk.Crash _ as e) -> raise e
        | exception e ->
            abort_txn sess;
            (match e with
            | Refused (code, m) ->
                raise (Refused (code, m ^ " (transaction rolled back)"))
            | e -> raise e)
      end
      else if Ast.mutates stmt then begin
        (* autocommit: the statement is its own engine transaction *)
        acquire_slot sess ~deadline;
        let ltxn = fresh_ltxn mgr in
        let cleanup () =
          release_locks mgr ltxn;
          release_slot sess
        in
        (* locks and slot released as soon as the commit record is
           appended (see do_commit: prefix-ordered durability makes the
           early release safe), so the fsync waits below can overlap
           across sessions and share one flush *)
        let r, lsn =
          Fun.protect ~finally:cleanup (fun () ->
              acquire_locks mgr ltxn (lock_specs mgr stmt) ~deadline;
              with_engine mgr (fun () ->
                  Db.begin_txn mgr.db;
                  match exec () with
                  | r ->
                      Db.commit mgr.db;
                      (r, Option.map Wal.last_lsn (Db.wal mgr.db))
                  | exception (Nf2_storage.Disk.Crash _ as e) -> raise e
                  | exception e ->
                      (try Db.rollback mgr.db with _ -> ());
                      raise e))
        in
        sync_commit mgr lsn;
        Metrics.incr mgr.metrics "txns_committed";
        r
      end
      else if (match stmt with Ast.Explain _ -> true | _ -> false) then
        (* EXPLAIN executes nothing: plan against the live catalog
           (under the shared latch, so DDL cannot race the planner) and
           show the access paths an in-transaction read would use —
           snapshot catalogs deliberately expose no index paths *)
        with_engine_read mgr exec
      else begin
        (* plain read: lock-free MVCC snapshot — no predicate locks and
           no engine latch.  The pinned version chains are immutable,
           so evaluation runs on a worker domain while writers commit
           freely; the pin only holds the GC horizon. *)
        Metrics.incr mgr.metrics "snapshot_reads";
        let snap = Db.snapshot mgr.db in
        Fun.protect
          ~finally:(fun () -> Db.release_snapshot mgr.db snap)
          (fun () ->
            let eval () = Db.exec_read ?trace ~rewrite:false mgr.db snap stmt in
            match mgr.executor with Some ex -> Executor.run ex eval | None -> eval ())
      end

(* --- slow-query tracing -------------------------------------------------- *)

(* Record one finished statement in the session's bounded recent ring
   (SYS_SESSIONS) and the cumulative shape statistics (SYS_STATEMENTS). *)
let record_statement (sess : session) (stmt : Ast.stmt) (delta : Stmt_stats.delta) ~status : unit =
  let mgr = sess.mgr in
  Stmt_stats.record mgr.stmt_stats ~shape:(normalize_stmt stmt) delta;
  with_lock mgr.smu (fun () ->
      sess.stmts_run <- sess.stmts_run + 1;
      let r =
        {
          rseq = sess.stmts_run;
          rstmt = Ast.stmt_to_string stmt;
          rms = delta.Stmt_stats.d_seconds *. 1e3;
          rstatus = status;
        }
      in
      let kept =
        if List.length sess.recent >= recent_cap then
          List.filteri (fun i _ -> i < recent_cap - 1) sess.recent
        else sess.recent
      in
      sess.recent <- r :: kept)

(* Flatten a trace's span tree to depth-annotated pre-order rows for
   the SYS_TRACES ring (children are stored newest first). *)
let flatten_trace (tr : Trace.t) : Trace_ring.span list =
  let rec go depth (n : Trace.node) acc =
    let span =
      {
        Trace_ring.depth;
        label = n.Trace.label;
        srows = n.Trace.rows;
        calls = n.Trace.calls;
        us = n.Trace.ns / 1000;
      }
    in
    List.fold_left (fun acc c -> go (depth + 1) c acc) (span :: acc) (List.rev n.Trace.children)
  in
  List.rev (go 0 (Trace.root tr) [])

(* Fold a statement the *coordinator* executed on behalf of this
   session — routed to shards, so never through [run_stmt_observed] —
   into the same books: the per-kind counters, the cumulative shape
   statistics and the session's recent ring.  The counter delta is
   empty (the local engine did no work; the shards' own
   SYS_STATEMENTS carry the storage attribution). *)
let note_statement (sess : session) (stmt : Ast.stmt) ~(seconds : float) ~(rows : int)
    ~(status : string) : unit =
  count_stmt_metric sess.mgr stmt;
  record_statement sess stmt { Stmt_stats.zero_delta with d_seconds = seconds; d_rows = rows } ~status

(* Every statement is measured and aggregated into the cumulative
   shape statistics.  With a slow-query threshold configured the
   statement additionally runs under a trace (storage + lock
   attribution included); those at or over the threshold emit one
   structured line to the sink and enter the SYS_TRACES ring.
   Statements that fail still report — a slow failure is still slow. *)
let run_stmt_observed (sess : session) (stmt : Ast.stmt) : Db.result =
  let mgr = sess.mgr in
  let before = mgr.attribution () in
  let t0 = Unix.gettimeofday () in
  let record ~rows ~status =
    let seconds = Unix.gettimeofday () -. t0 in
    let after = mgr.attribution () in
    record_statement sess stmt (Stmt_stats.delta ~before ~after ~seconds ~rows) ~status
  in
  match mgr.slow_query with
  | None -> (
      match run_stmt sess stmt with
      | r ->
          let rows = match r with Db.Rows rel -> Rel.cardinality rel | Db.Msg _ -> 0 in
          record ~rows ~status:"ok";
          r
      | exception e ->
          record ~rows:0 ~status:"error";
          raise e)
  | Some threshold -> (
      let tr = Db.new_trace ~label:(Ast.stmt_to_string stmt) mgr.db in
      Trace.add_source tr (fun () -> PL.counters mgr.locks);
      let root = Trace.root tr in
      let report status =
        let elapsed = Trace.elapsed_s root in
        if elapsed >= threshold then begin
          Metrics.incr mgr.metrics "slow_queries";
          Trace_ring.add mgr.traces ~sid:sess.sid ~stmt:(Ast.stmt_to_string stmt)
            ~ms:(elapsed *. 1e3) ~status (flatten_trace tr);
          mgr.slow_sink
            (Printf.sprintf "slow-query ms=%.3f sid=%d status=%s stmt=%S trace=[%s]"
               (elapsed *. 1e3) sess.sid status (Ast.stmt_to_string stmt)
               (Trace.render_compact tr))
        end
      in
      match Trace.timed tr root (fun () -> run_stmt ~trace:tr sess stmt) with
      | r ->
          (match r with Db.Rows rel -> Trace.add_rows root (Rel.cardinality rel) | Db.Msg _ -> ());
          let rows = match r with Db.Rows rel -> Rel.cardinality rel | Db.Msg _ -> 0 in
          record ~rows ~status:"ok";
          report "ok";
          r
      | exception e ->
          record ~rows:0 ~status:"error";
          report "error";
          raise e)

(* --- results and errors on the wire ------------------------------------- *)

let response_of_result (r : Db.result) : P.response =
  match r with
  | Db.Rows rel ->
      let columns =
        List.map (fun (f : Schema.field) -> f.Schema.name) rel.Rel.schema.Schema.fields
      in
      let rows = List.map (List.map Value.render_v) (Rel.tuples rel) in
      P.Result_table { columns; rows }
  | Db.Msg m ->
      let affected =
        match String.split_on_char ' ' m with
        | first :: _ -> Option.value (int_of_string_opt first) ~default:0
        | [] -> 0
      in
      P.Row_count { affected; message = m }

(* The wire error (code, message) for an engine / parser / lock /
   refusal exception; [None] for connection-level exceptions, which must
   escape. *)
let error_of_exn (e : exn) : (string * string) option =
  match e with
  | Refused (code, message) -> Some (code, message)
  | Db.Db_error m -> Some (P.err_semantic, m)
  | Parser.Parse_error m | Lexer.Lex_error m -> Some (P.err_syntax, m)
  | Eval.Eval_error m | Schema.Schema_error m | Value.Value_error m | Params.Param_error m ->
      Some (P.err_semantic, m)
  | Mvcc.Snapshot_too_old { table; lsn; floor } ->
      Some
        ( P.err_snapshot_too_old,
          Printf.sprintf
            "snapshot too old: %s @ LSN %d is below the version GC horizon (oldest kept: %d)"
            table lsn floor )
  | P.Protocol_error m -> Some (P.err_protocol, m)
  | _ -> None

let render_metrics (mgr : manager) : string = Metrics.render mgr.metrics
let render_prometheus (mgr : manager) : string = Metrics.render_prometheus mgr.metrics

(* Parse and run a ';'-separated script, answering with the last
   statement's result — the body of both [Query] and a routed
   [Shard_route] (which carries exactly one statement). *)
let run_script (sess : session) (input : string) : P.response =
  let stmts = Parser.parse_script input in
  if stmts = [] then refused P.err_syntax "empty query";
  (* normalise once, here; classification and evaluation both work on
     the rewritten form *)
  let stmts = List.map Rewrite.rewrite_stmt stmts in
  let results = List.map (run_stmt_observed sess) stmts in
  Metrics.add sess.mgr.metrics "statements_total" (List.length stmts);
  response_of_result (List.nth results (List.length results - 1))

(* --- request dispatch ---------------------------------------------------- *)

(* Count a request under [kind], time it into [latency_name], and turn
   an engine / parser / lock / refusal exception into its counted wire
   error. *)
let run_protected (mgr : manager) kind latency_name (f : unit -> P.response) : P.response =
  let t0 = Unix.gettimeofday () in
  Metrics.incr mgr.metrics kind;
  let resp =
    match f () with
    | resp -> resp
    | exception e -> (
        match error_of_exn e with
        | Some (code, message) ->
            Metrics.incr mgr.metrics "errors_total";
            Metrics.incr_labeled mgr.metrics "errors" [ ("code", code) ];
            P.Error { code; message }
        | None -> raise e)
  in
  Metrics.observe mgr.metrics latency_name (Unix.gettimeofday () -. t0);
  resp

let handle (sess : session) (req : P.request) : P.response =
  let mgr = sess.mgr in
  let run_protected = run_protected mgr in
  match req with
  | P.Ping ->
      Metrics.incr mgr.metrics "requests_ping";
      P.Pong
  | P.Metrics ->
      Metrics.incr mgr.metrics "requests_metrics";
      P.Metrics_text (render_metrics mgr)
  | P.Metrics_prom ->
      Metrics.incr mgr.metrics "requests_metrics";
      P.Metrics_text (render_prometheus mgr)
  | P.Quit -> P.Bye
  | P.Promote ->
      run_protected "requests_promote" "txn_latency" (fun () ->
          match mgr.promote with
          | None -> refused P.err_semantic "PROMOTE: this server is not a replica"
          | Some f -> P.Row_count { affected = 0; message = f () })
  | P.Sys_reset ->
      Metrics.incr mgr.metrics "requests_sys_reset";
      sys_reset mgr;
      P.Row_count { affected = 0; message = "SYS statistics reset" }
  | P.Set_slow_query thr ->
      Metrics.incr mgr.metrics "requests_slow_query";
      set_slow_query mgr thr;
      let message =
        match thr with
        | None -> "slow-query tracing off"
        | Some s -> Printf.sprintf "slow-query threshold %gs" s
      in
      P.Row_count { affected = 0; message }
  | P.Repl_handshake _ | P.Repl_ack _ ->
      (* handshakes are intercepted by the server loop before dispatch;
         a replication frame reaching a plain session is a protocol
         violation *)
      Metrics.incr mgr.metrics "errors_total";
      P.Error { code = P.err_protocol; message = "replication frame outside a replication stream" }
  | P.Begin -> run_protected "requests_begin" "txn_latency" (fun () -> response_of_result (do_begin sess))
  | P.Commit ->
      run_protected "requests_commit" "commit_latency" (fun () -> response_of_result (do_commit sess))
  | P.Rollback ->
      run_protected "requests_rollback" "txn_latency" (fun () -> response_of_result (do_rollback sess))
  | P.Query input ->
      run_protected "requests_query" "query_latency" (fun () -> run_script sess input)
  | P.Shard_join { map_version; shard_id; nshards } ->
      (* a coordinator claims this node as one slot of its shard map;
         the identity is node-wide so every pooled connection (and the
         stale-route check) sees the same version *)
      Metrics.incr mgr.metrics "requests_shard_join";
      mgr.shard_identity <- Some (map_version, shard_id, nshards);
      P.Row_count
        { affected = 0; message = Printf.sprintf "shard %d/%d at map v%d" shard_id nshards map_version }
  | P.Shard_route { map_version; sql } ->
      run_protected "requests_shard_route" "query_latency" (fun () ->
          match mgr.shard_identity with
          | None -> refused P.err_stale_route "shard route before a Shard_join handshake"
          | Some (v, _, _) when v <> map_version ->
              Metrics.incr mgr.metrics "shard_stale_routes";
              refused P.err_stale_route
                "stale shard route: statement carries map v%d, this shard joined v%d" map_version v
          | Some _ -> run_script sess sql)
  | P.Shard_map_get ->
      (* answered for real by the coordinator's own loop; on a plain
         node it is a recoverable error, which lets aimsh probe for a
         coordinator banner without losing the session *)
      Metrics.incr mgr.metrics "errors_total";
      P.Error { code = P.err_semantic; message = "no shard map: this server is not a coordinator" }
  | P.Prepare input ->
      run_protected "requests_prepare" "query_latency" (fun () ->
          let pstmt, nparams = Parser.parse_prepared input in
          (* rewrite once at Prepare; Execute only binds parameters *)
          let pstmt = Rewrite.rewrite_stmt pstmt in
          let id = sess.next_prep in
          sess.next_prep <- id + 1;
          Hashtbl.replace sess.prepared id { pstmt; nparams };
          P.Prepared { id; nparams })
  | P.Execute_prepared { id; params } ->
      run_protected "requests_execute" "query_latency" (fun () ->
          match Hashtbl.find_opt sess.prepared id with
          | None -> refused P.err_protocol "no prepared statement #%d" id
          | Some p ->
              if List.length params <> p.nparams then
                refused P.err_semantic "prepared statement #%d needs %d parameter(s), got %d" id
                  p.nparams (List.length params);
              response_of_result (run_stmt_observed sess (Params.bind_stmt p.pstmt params)))

(* Close a session: roll back an in-flight transaction, drop its locks
   and slot, forget its prepared statements. *)
let close_session (sess : session) =
  abort_txn sess;
  with_lock sess.mgr.smu (fun () -> Hashtbl.remove sess.mgr.sessions sess.sid);
  Hashtbl.reset sess.prepared
