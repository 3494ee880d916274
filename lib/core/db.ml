(* The AIM-II database engine: catalog + storage + access paths +
   temporal support behind one handle, with [exec] interpreting the
   query language.  This is the public entry point of the library. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module Rel = Nf2_algebra.Rel
module MD = Nf2_storage.Mini_directory
module Disk = Nf2_storage.Disk
module BP = Nf2_storage.Buffer_pool
module OS = Nf2_storage.Object_store
module Tid = Nf2_storage.Tid
module VI = Nf2_index.Value_index
module TI = Nf2_index.Text_index
module VS = Nf2_temporal.Version_store
module Mvcc = Nf2_temporal.Mvcc
module Tname = Nf2_tname.Tuple_name
module SMap = Map.Make (String)
module TidSet = Set.Make (Tid)
module Wal = Nf2_storage.Wal
module Recovery = Nf2_storage.Recovery
module Plan = Nf2_plan.Plan
module Pstats = Nf2_plan.Stats
module Driver = Nf2_plan.Driver
module Compile = Nf2_plan.Compile
module Sysr = Nf2_sys.Registry
open Nf2_lang

exception Db_error of string

let db_error fmt = Fmt.kstr (fun s -> raise (Db_error s)) fmt

type index_info = { iname : string; ipath : Schema.path; vindex : VI.t }

type table_info = {
  schema : Schema.t;
  store : OS.t;
  history : VS.t option; (* a versioned table's Section 5 history *)
  mutable indexes : index_info list;
  mutable text_indexes : (Schema.path * TI.t) list;
  mutable stat_rows : int; (* planner statistic: current object count *)
}

(* The catalog as [encode_catalog] reads it, by reference: each table's
   record, page lists, index lists and history pages, and the tuple
   names.  Every part is an immutable value that is replaced when it
   changes, so two stamps whose parts are physically equal describe the
   same catalog — an O(#tables) check instead of an encode. *)
type table_stamp = {
  s_ti : table_info;
  s_dir : int list;
  s_data : int list;
  s_free : int list;
  s_indexes : index_info list;
  s_text : (Schema.path * TI.t) list;
  s_history : int list;
}

type stamp = { s_tables : table_stamp list; s_names : (string * Tname.t) list }

type t = {
  disk : Disk.t;
  pool : BP.t;
  layout : MD.layout;
  clustering : bool;
  tables : (string, table_info) Hashtbl.t; (* key: uppercased name *)
  mutable tnames : Tname.registry;
  mutable last_plan : string list;
  mutable wal : Wal.t option; (* physical write-ahead log, if attached *)
  mutable wal_txn : wal_txn_state option; (* open WAL transaction, if any *)
  mutable catalog_cache : (stamp * string) option; (* the last encoded catalog, at its stamp *)
  mutable logged_catalog : stamp option; (* the catalog of the attached WAL's newest payload *)
  mutable files : files option; (* image + log files, when opened from them *)
  mvcc : Mvcc.t; (* committed version chains for lock-free snapshot reads *)
  sys : Sysr.t; (* SYS introspection providers (engine + host layers) *)
  mutable dirty : dirty SMap.t; (* tables touched since the last MVCC publish *)
  mutable plan_force_seq : bool; (* planner ablation: sequential plans only *)
  mutable last_plan_tree : Plan.node option;
  (* access-path counters; atomic because parallel readers plan too *)
  pc_seq_scans : int Atomic.t;
  pc_index_scans : int Atomic.t;
  pc_index_intersections : int Atomic.t;
}

(* What a table changed since the last MVCC publish: the roots DML
   inserted, updated or deleted, or (DDL, load, recovery, replica
   apply) the whole table. *)
and dirty = Whole | Roots of TidSet.t

(* A WAL transaction: the log holds its page before-images for physical
   undo; [saved_catalog] is the cheap in-memory metadata snapshot
   restored on rollback (pages are the expensive part, and those are
   undone from the log), taken at [saved_stamp], and [saved_tables]
   what rollback takes up again, by table key, instead of rebuilding
   it from the store. *)
and wal_txn_state = {
  wtx : Wal.txid;
  saved_catalog : string;
  saved_stamp : stamp;
  saved_tables : (string * kept) list;
}

(* A table's access structures as of BEGIN: its history index (a copy)
   and frozen handles on its value and text indexes, in catalog order.
   [Bptree] is persistent, so freezing costs O(1) per index and the
   live indexes' maintenance leaves the handles as they were. *)
and kept = { k_history : VS.t option; k_indexes : VI.t list; k_text : TI.t list }

(* A database opened by {!open_files}: [image] is rewritten at every
   checkpoint, [log] holds the WAL's durable bytes since then. *)
and files = { image : string; log : string }

type result = Rows of Rel.t | Msg of string

(* Attach a write-ahead log: flush the pool first so the log's base
   state is entirely on disk, then have the buffer pool capture every
   subsequent page change as a physiological log record. *)
let attach_wal t =
  match t.wal with
  | Some _ -> ()
  | None ->
      BP.flush_all t.pool;
      let w = Wal.create () in
      BP.attach_wal t.pool w;
      t.wal <- Some w;
      (* a new log holds no catalog yet: its first commit carries one *)
      t.logged_catalog <- None

let wal t = t.wal

(* --- SYS introspection providers -----------------------------------------

   The engine's own telemetry is queryable as NF² relations: each
   subsystem registers a named thunk that materializes its state on
   demand.  Providers never run eagerly — the catalog wrapper below
   freezes each SYS table lazily at its first touch within one
   statement, so a statement sees one consistent materialization and
   EXPLAIN (typing only) materializes nothing. *)

let sys_registry t = t.sys

(* A SYS name resolves to a provider only where no user table shadows
   it — user data always wins, SYS is a fallback namespace. *)
let is_sys_table t name =
  let up = String.uppercase_ascii name in
  (not (Hashtbl.mem t.tables up)) && Sysr.find t.sys up <> None

open Sysr.Build

(* SYS_WAL: one row of cumulative write-ahead-log state. *)
let sys_wal_provider t : Sysr.provider =
  let schema =
    relation "SYS_WAL"
      [
        field "ATTACHED" Atom.Tbool;
        field "RECORDS" Atom.Tint;
        field "BYTES" Atom.Tint;
        field "FSYNCS" Atom.Tint;
        field "FORCED_FSYNCS" Atom.Tint;
        field "GROUP_BATCHES" Atom.Tint;
        field "GROUP_TXNS" Atom.Tint;
        field "APPENDER" Atom.Tbool;
        field "BATCHES" Atom.Tint;
        field "BATCH_TXNS" Atom.Tint;
        field "BATCH_MAX" Atom.Tint;
        field "DURABLE_LSN" Atom.Tint;
        field "LAST_LSN" Atom.Tint;
      ]
  in
  let materialize () =
    match t.wal with
    | None ->
        [
          [
            vbool false; vint 0; vint 0; vint 0; vint 0; vint 0; vint 0; vbool false; vint 0;
            vint 0; vint 0; vint 0; vint 0;
          ];
        ]
    | Some w ->
        let s = Wal.stats w in
        [
          [
            vbool true;
            vint s.Wal.records;
            vint s.Wal.bytes;
            vint s.Wal.flushes;
            vint s.Wal.forced_flushes;
            vint s.Wal.group_commit_batches;
            vint s.Wal.group_commit_txns;
            vbool (Wal.appender_running w);
            vint s.Wal.appender_batches;
            vint s.Wal.appender_txns;
            vint s.Wal.appender_max_batch;
            vint (Wal.durable_lsn w);
            vint (Wal.last_lsn w);
          ];
        ]
  in
  { Sysr.name = "SYS_WAL"; schema; materialize }

(* SYS_POOL: one row per buffer-pool partition, resident frames nested.
   The flat columns are the per-partition latch/table counters; summing
   them across rows reproduces the aggregate BP.stats exactly. *)
let sys_pool_provider t : Sysr.provider =
  let schema =
    relation "SYS_POOL"
      [
        field "PART" Atom.Tint;
        field "QUOTA" Atom.Tint;
        field "RESIDENT" Atom.Tint;
        field "HITS" Atom.Tint;
        field "MISSES" Atom.Tint;
        field "EVICTIONS" Atom.Tint;
        field "LOG_CAPTURES" Atom.Tint;
        field "CONTENDED" Atom.Tint;
        nested "FRAMES" Schema.List
          [
            field "SLOT" Atom.Tint;
            field "PAGE" Atom.Tint;
            field "DIRTY" Atom.Tbool;
            field "PINS" Atom.Tint;
          ];
      ]
  in
  let materialize () =
    List.map
      (fun (ps : BP.partition_stat) ->
        let frames =
          List.map
            (fun (fi : BP.frame_info) ->
              [ vint fi.BP.slot; vint fi.BP.fi_page; vbool fi.BP.fi_dirty; vint fi.BP.fi_pins ])
            ps.BP.frame_infos
        in
        [
          vint ps.BP.part;
          vint ps.BP.quota;
          vint ps.BP.resident;
          vint ps.BP.p_hits;
          vint ps.BP.p_misses;
          vint ps.BP.p_evictions;
          vint ps.BP.p_log_captures;
          vint ps.BP.p_contended;
          vlist frames;
        ])
      (BP.partition_stats t.pool)
  in
  { Sysr.name = "SYS_POOL"; schema; materialize }

(* SYS_MVCC: one row per version chain, versions nested newest-first.
   A version is PINNED when some pinned snapshot LSN resolves to it. *)
let sys_mvcc_provider t : Sysr.provider =
  let schema =
    relation "SYS_MVCC"
      [
        field "TBL" Atom.Tstring;
        field "TRIMMED" Atom.Tbool;
        field "NVERSIONS" Atom.Tint;
        nested "CHAIN" Schema.List
          [
            field "LSN" Atom.Tint;
            field "BYTES" Atom.Tint;
            field "LIVE" Atom.Tbool;
            field "PINNED" Atom.Tbool;
          ];
      ]
  in
  let materialize () =
    let pins = List.map fst (Mvcc.pinned_lsns t.mvcc) in
    List.map
      (fun (name, trimmed, versions) ->
        (* newest-first: pin p resolves to the first version at or below p *)
        let pinned_lsns =
          List.filter_map
            (fun p ->
              List.find_opt (fun v -> v.Mvcc.v_lsn <= p) versions
              |> Option.map (fun v -> v.Mvcc.v_lsn))
            pins
        in
        let vrows =
          List.map
            (fun v ->
              [
                vint v.Mvcc.v_lsn;
                vint v.Mvcc.v_bytes;
                vbool v.Mvcc.v_live;
                vbool (List.mem v.Mvcc.v_lsn pinned_lsns);
              ])
            versions
        in
        [ vstr name; vbool trimmed; vint (List.length versions); vlist vrows ])
      (Mvcc.chains t.mvcc)
  in
  { Sysr.name = "SYS_MVCC"; schema; materialize }

(* SYS_TABLES: the SYS namespace itself — what providers exist, with
   their top-level arity.  [\sys] in the shell is just a query here. *)
let sys_tables_provider t : Sysr.provider =
  let schema =
    relation "SYS_TABLES" [ field "NAME" Atom.Tstring; field "COLS" Atom.Tint ]
  in
  let materialize () =
    List.filter_map
      (fun n ->
        match Sysr.find t.sys n with
        | None -> None
        | Some p -> Some [ vstr n; vint (List.length p.Sysr.schema.Schema.table.Schema.fields) ])
      (Sysr.names t.sys)
  in
  { Sysr.name = "SYS_TABLES"; schema; materialize }

let register_builtin_sys t =
  Sysr.register t.sys (sys_wal_provider t);
  Sysr.register t.sys (sys_pool_provider t);
  Sysr.register t.sys (sys_mvcc_provider t);
  Sysr.register t.sys (sys_tables_provider t)

(* Wrap a read view's catalog with the SYS fallback.  A SYS name
   resolves to its provider only where the view's own catalog has no
   table of that name, so the view, not the live table set, decides what
   is a SYS table.  One wrapper is built per statement, so the lazy cell
   freezes each touched SYS table exactly once for that statement:
   repeated references (self-joins, EXISTS subqueries) see the same
   materialization, and the next statement sees fresh state.  The
   second result tells whether a name resolved to a provider. *)
let with_sys t (base : Eval.catalog) : Eval.catalog * (string -> bool) =
  let memo : (string, Schema.t * Value.tuple list Lazy.t) Hashtbl.t = Hashtbl.create 4 in
  let frozen up =
    match Hashtbl.find_opt memo up with
    | Some _ as r -> r
    | None ->
        Option.map
          (fun p ->
            let e = (p.Sysr.schema, lazy (p.Sysr.materialize ())) in
            Hashtbl.replace memo up e;
            e)
          (Sysr.find t.sys up)
  in
  let catalog name =
    match base name with
    | Some _ as r -> r
    | None ->
        Option.map
          (fun (schema, rows) ->
            {
              Eval.schema;
              scan = (function Eval.Current -> Lazy.force rows | _ -> Eval.not_versioned name);
              index = None;
            })
          (frozen (String.uppercase_ascii name))
  in
  (catalog, fun name -> Hashtbl.mem memo (String.uppercase_ascii name))

(* An empty catalog over [disk]; [create], [load] and [of_replay] all
   start here. *)
let make ?(frames = 256) ?pool_partitions ~layout ~clustering disk =
  let t =
    {
      disk;
      pool = BP.create ~frames ?partitions:pool_partitions disk;
      layout;
      clustering;
      tables = Hashtbl.create 16;
      tnames = Tname.create_registry ();
      last_plan = [];
      wal = None;
      wal_txn = None;
      catalog_cache = None;
      logged_catalog = None;
      files = None;
      mvcc = Mvcc.create ();
      sys = Sysr.create ();
      dirty = SMap.empty;
      plan_force_seq = false;
      last_plan_tree = None;
      pc_seq_scans = Atomic.make 0;
      pc_index_scans = Atomic.make 0;
      pc_index_intersections = Atomic.make 0;
    }
  in
  register_builtin_sys t;
  t

let create ?(page_size = 4096) ?frames ?pool_partitions ?(layout = MD.SS3) ?(clustering = true)
    ?(wal = false) () =
  let t = make ?frames ?pool_partitions ~layout ~clustering (Disk.create ~page_size ()) in
  if wal then attach_wal t;
  t

let disk t = t.disk
let pool t = t.pool
let last_plan t = List.rev t.last_plan

let find_table t name = Hashtbl.find_opt t.tables (String.uppercase_ascii name)

let table_exn t name =
  match find_table t name with
  | Some ti -> ti
  | None -> db_error "no such table: %s" name

let table_names t =
  Hashtbl.fold (fun _ ti acc -> ti.schema.Schema.name :: acc) t.tables [] |> List.sort String.compare

(* --- schema construction from DDL ------------------------------------- *)

let rec fields_of_defs (defs : Ast.field_def list) : Schema.field list =
  List.map
    (fun (d : Ast.field_def) ->
      match d.Ast.ftype with
      | Ast.T_atom ty -> { Schema.name = d.Ast.fname; attr = Schema.Atomic ty }
      | Ast.T_table (kind, sub) ->
          { Schema.name = d.Ast.fname; attr = Schema.Table { Schema.kind; fields = fields_of_defs sub } })
    defs

(* --- literal -> value conversion, schema-directed ----------------------- *)

let rec value_of_literal (attr : Schema.attr) (l : Ast.literal_value) : Value.v =
  match attr, l with
  | Schema.Atomic ty, Ast.L_atom a ->
      (* permit INT literals in FLOAT columns *)
      let a = match ty, a with Atom.Tfloat, Atom.Int v -> Atom.Float (float_of_int v) | _ -> a in
      if not (Atom.conforms ty a) then
        db_error "literal %s does not conform to %s" (Atom.to_literal a) (Atom.type_name ty);
      Value.Atom a
  | Schema.Table sub, Ast.L_table (kind, rows) ->
      if kind <> sub.Schema.kind then db_error "table literal kind mismatch ({ } vs < >)";
      Value.Table { Value.kind = kind; tuples = List.map (tuple_of_literals sub) rows }
  | Schema.Atomic _, Ast.L_table _ -> db_error "table literal in atomic attribute"
  | Schema.Table _, Ast.L_atom _ -> db_error "atomic literal in table attribute"
  | _, Ast.L_param i -> db_error "unbound parameter ?%d (use Db.prepare/execute)" i

and tuple_of_literals (tbl : Schema.table) (row : Ast.literal_value list) : Value.tuple =
  if List.length row <> List.length tbl.Schema.fields then
    db_error "literal row arity mismatch (expected %d attributes)" (List.length tbl.Schema.fields);
  List.map2 (fun (f : Schema.field) l -> value_of_literal f.Schema.attr l) tbl.Schema.fields row

(* --- catalog for the evaluator ------------------------------------------- *)

(* [ASOF <int>] on an unversioned table: MVCC time travel to the newest
   version of [name] committed at or below [lsn] within [s]. *)
let scan_at_lsn (s : Mvcc.snapshot) name lsn =
  match Mvcc.resolve_at s name ~lsn with Some v -> Mvcc.scan v | None -> []

(* A table's scan in a read view, for either view: its [current]
   objects; for ASOF on a versioned table, its Section 5 history folded
   back from the view's objects ([ASOF <int>] is a logical timestamp
   there); for [ASOF <int>] on any other table, MVCC time travel. *)
let table_scan name (schema : Schema.t) history ~fetch ~current ~at_lsn asof =
  match asof, history with
  | Eval.Current, _ -> current ()
  | (Eval.Asof_date ts | Eval.Asof_int ts), Some h -> VS.asof h schema ~fetch ~ts
  | Eval.Asof_int lsn, None -> at_lsn lsn
  | Eval.Asof_date _, None -> Eval.not_versioned name

let catalog t : Eval.catalog =
 fun name ->
  Option.map
    (fun ti ->
      let fetch = OS.fetch ti.store ti.schema in
      {
        Eval.schema = ti.schema;
        scan =
          table_scan name ti.schema (Option.map VS.freeze ti.history) ~fetch
            ~current:(fun () -> List.map fetch (OS.roots ti.store))
            ~at_lsn:(fun lsn -> scan_at_lsn (Mvcc.view t.mvcc) name lsn);
        index =
          Some
            {
              Eval.fetch;
              indexes = List.map (fun ii -> (ii.ipath, ii.vindex)) ti.indexes;
              text_indexes = ti.text_indexes;
            };
      })
    (find_table t name)

(* Planner statistics: cached row counts (maintained at publish /
   create / load time), live indexes supply their own cardinalities. *)
let stats_of t : Pstats.provider =
 fun name -> Option.map (fun ti -> { Pstats.rows = ti.stat_rows }) (find_table t name)

let count_access t = function
  | `Seq -> Atomic.incr t.pc_seq_scans
  | `Index -> Atomic.incr t.pc_index_scans
  | `Intersect -> Atomic.incr t.pc_index_intersections

(* A statement's compiled code plans its nested blocks with this
   database's statistics and [force_seq] switch, and counts their
   accesses. *)
let statement t =
  Compile.statement ~force_seq:t.plan_force_seq
    ~on_access:(fun _ kind -> count_access t kind)
    ~stats:(stats_of t) (catalog t)

(* --- MVCC publication --------------------------------------------------------

   Every committed mutation publishes, per touched table, an immutable
   version stamped with the commit LSN into [t.mvcc]
   (lib/temporal/mvcc).  Mutating statements record what they touch in
   [t.dirty]: DML the roots it inserts, updates and deletes, DDL the
   whole table.  The capture below runs on the write side — at WAL
   commit, or right after an unlogged autocommitted mutation — so
   readers holding a snapshot handle never look at shared storage at
   all.  A table with only touched roots publishes a patch: those roots
   are fetched (or found gone) and keyed by heap position, and every
   other object is shared with the previous version, so a commit costs
   O(objects changed).  A whole-table mark — or a table with no live
   version of the same schema to patch — captures every object.  Either
   way the version also freezes the table's indexes in O(#indexes)
   (persistent B+-trees, {!VI.freeze}), so snapshot reads keep their
   index paths; CREATE [TEXT] INDEX marks the table so the next publish
   carries the new index.  A versioned table publishes like any other
   and adds its Section 5 history, frozen in O(1) ({!VS.freeze}), so a
   snapshot answers date-ASOF from the version alone. *)

let mark t name f =
  let key = String.uppercase_ascii name in
  t.dirty <- SMap.add key (f (SMap.find_opt key t.dirty)) t.dirty

(* The whole table changed (DDL, bulk registration). *)
let touch t name = mark t name (fun _ -> Whole)

(* A DML statement runs on the table: it publishes a version even when
   it changes no object. *)
let touch_rows t name = mark t name (function Some d -> d | None -> Roots TidSet.empty)

(* [root] is about to be inserted, changed or deleted.  Recorded before
   the change, so an unlogged statement failing halfway still
   publishes the object it left behind. *)
let touch_root t name root =
  mark t name (function
    | Some Whole -> Whole
    | Some (Roots s) -> Roots (TidSet.add root s)
    | None -> Roots (TidSet.singleton root))

let capture_table t name (d : dirty) : Mvcc.input =
  match find_table t name with
  | None -> Mvcc.Drop
  | Some ti -> (
      let indexes = List.map (fun ii -> (ii.ipath, VI.freeze ii.vindex)) ti.indexes in
      let text_indexes = List.map (fun (p, tix) -> (p, TI.freeze tix)) ti.text_indexes in
      let history = Option.map VS.freeze ti.history in
      match d, Mvcc.resolve (Mvcc.view t.mvcc) name with
      | Roots roots, Some head when head.Mvcc.v_schema = ti.schema ->
          let changes =
            List.map
              (fun root ->
                ( OS.root_position ti.store root,
                  root,
                  if OS.is_root ti.store root then Some (OS.fetch ti.store ti.schema root) else None ))
              (TidSet.elements roots)
          in
          Mvcc.Patch { changes; indexes; text_indexes; history }
      | _ ->
          let objects =
            List.map
              (fun root -> (OS.root_position ti.store root, Some root, OS.fetch ti.store ti.schema root))
              (OS.roots ti.store)
          in
          Mvcc.Publish { schema = ti.schema; objects; indexes; text_indexes; history })

(* Commit LSN: the WAL's last appended record (the commit record, when
   called right after [Wal.commit]); without a WAL, an internal counter. *)
let next_publish_lsn t =
  match t.wal with
  | Some w -> Wal.last_lsn w
  | None -> Mvcc.snapshot_lsn t.mvcc + 1

(* Publish [changes], then take each live table's planner row count
   from the version just published. *)
let publish_changes ?lsn ?monotonize t (changes : (string * dirty) list) =
  let lsn = match lsn with Some l -> l | None -> next_publish_lsn t in
  Mvcc.publish t.mvcc ?monotonize ~lsn (List.map (fun (n, d) -> (n, capture_table t n d)) changes);
  let view = Mvcc.view t.mvcc in
  List.iter
    (fun (n, _) ->
      match find_table t n, Mvcc.resolve view n with
      | Some ti, Some v -> ti.stat_rows <- v.Mvcc.v_rows
      | _ -> ())
    changes

let mvcc_publish ?lsn ?monotonize t =
  let changes = SMap.bindings t.dirty in
  t.dirty <- SMap.empty;
  publish_changes ?lsn ?monotonize t changes

(* Wholesale refresh (load, recovery, replica catalog apply): publish
   every live table in full, tombstoning chains whose table
   disappeared. *)
let mvcc_refresh_all ?lsn ?monotonize t =
  t.dirty <- SMap.empty;
  let names =
    List.sort_uniq String.compare
      (Hashtbl.fold (fun k _ acc -> k :: acc) t.tables (Mvcc.live_names t.mvcc))
  in
  publish_changes ?lsn ?monotonize t (List.map (fun n -> (n, Whole)) names)

(* --- index maintenance ------------------------------------------------------ *)

let deindex_object ti root =
  List.iter (fun ii -> VI.remove_object ii.vindex root) ti.indexes;
  List.iter (fun (_, tix) -> TI.remove_object tix root) ti.text_indexes

let reindex_object ti root =
  List.iter (fun ii -> VI.insert_object ii.vindex root) ti.indexes;
  List.iter (fun (_, tix) -> TI.insert_object tix root) ti.text_indexes

(* --- helpers for DML -------------------------------------------------------- *)

(* The timestamp a statement's changes carry in a versioned table's
   history: its AT clause, refused before anything changes when it
   precedes the history's clock, or else the clock itself (a
   same-instant version).  AT on any other table is refused. *)
let eval_ts t ti (at : Ast.expr option) : int =
  match ti.history, at with
  | None, None -> 0
  | None, Some _ -> db_error "AT applies to versioned tables only"
  | Some h, None -> VS.clock h
  | Some h, Some e ->
      let ts =
        match Compile.expr_in (statement t) [] e [] with
        | Value.Atom (Atom.Date d) -> d
        | Value.Atom (Atom.Int i) -> i
        | _ -> db_error "AT expression must be a date or integer"
      in
      if ts < VS.clock h then
        db_error "AT %s precedes the last change of %s: timestamps must be monotone"
          (Ast.expr_to_string e) ti.schema.Schema.name;
      ts

(* [root] was just inserted or is about to change: publish it at the
   next commit, and log the event in a versioned table's history. *)
let log_event t ti ~ts root (event : unit -> VS.event) =
  touch_root t ti.schema.Schema.name root;
  Option.iter (fun h -> VS.record h ~ts root (event ())) ti.history

let insert_object t ti tup =
  let root = OS.insert ti.store ti.schema tup in
  log_event t ti ~ts:(eval_ts t ti None) root (fun () -> VS.Born);
  reindex_object ti root;
  root

(* --- catalog codec -----------------------------------------------------------

   The catalog (schemas, store page-ownership metadata, index specs,
   history log pages, tuple names) serialises separately from the
   page images: [save] writes pages + catalog, while WAL commit records
   carry the catalog alone, when it changed — it is the metadata a
   from-scratch kernel would keep on pages, so recovery needs it
   alongside the replayed page images. *)

let magic = "AIMII001"

let put_int_list b xs =
  Codec.put_uvarint b (List.length xs);
  List.iter (Codec.put_varint b) xs

let get_int_list src =
  let n = Codec.get_uvarint src in
  List.init n (fun _ -> Codec.get_varint src)

let put_path b (p : Schema.path) =
  Codec.put_uvarint b (List.length p);
  List.iter (Codec.put_string b) p

let get_path src : Schema.path =
  let n = Codec.get_uvarint src in
  List.init n (fun _ -> Codec.get_string src)

let put_step b = function
  | OS.Attr a ->
      Codec.put_u8 b 0;
      Codec.put_string b a
  | OS.Elem i ->
      Codec.put_u8 b 1;
      Codec.put_uvarint b i

let get_step src =
  match Codec.get_u8 src with
  | 0 -> OS.Attr (Codec.get_string src)
  | 1 -> OS.Elem (Codec.get_uvarint src)
  | n -> Codec.decode_error "Db: step tag %d" n

(* A table's history tag: 0 for none, [history_log] before the log's
   page list.  Tag 1 was a version store whose object versions the
   catalog itself listed; such an image is refused. *)
let history_log = 2

let encode_catalog b t =
  let tables = Hashtbl.fold (fun _ ti acc -> ti :: acc) t.tables [] in
  Codec.put_uvarint b (List.length tables);
  List.iter
    (fun ti ->
      Schema.encode b ti.schema;
      Codec.put_bool b (Option.is_some ti.history);
      let dir_pages, data_pages, free_pages = OS.export_meta ti.store in
      put_int_list b dir_pages;
      put_int_list b data_pages;
      put_int_list b free_pages;
      Codec.put_uvarint b (List.length ti.indexes);
      List.iter
        (fun ii ->
          put_path b ii.ipath;
          Codec.put_u8 b
            (match VI.strategy ii.vindex with VI.Data_tid -> 0 | VI.Root_tid -> 1 | VI.Hierarchical -> 2))
        ti.indexes;
      Codec.put_uvarint b (List.length ti.text_indexes);
      List.iter (fun (p, _) -> put_path b p) ti.text_indexes;
      match ti.history with
      | None -> Codec.put_u8 b 0
      | Some h ->
          Codec.put_u8 b history_log;
          put_int_list b (VS.pages h))
    tables;
  (* tuple names *)
  let names = Tname.all t.tnames in
  Codec.put_uvarint b (List.length names);
  List.iter
    (fun (token, (tn : Tname.t)) ->
      Codec.put_string b token;
      Codec.put_string b tn.Tname.table;
      (match tn.Tname.kind with
      | Tname.K_object -> Codec.put_u8 b 0
      | Tname.K_subobject -> Codec.put_u8 b 1
      | Tname.K_subtable i ->
          Codec.put_u8 b 2;
          Codec.put_uvarint b i);
      Tid.encode b tn.Tname.root;
      Codec.put_uvarint b (List.length tn.Tname.steps);
      List.iter (put_step b) tn.Tname.steps)
    names

(* Rebuild [t.tables] and [t.tnames] from a catalog image, re-attaching
   stores to [t.pool].  A table's history and indexes are taken up from
   [kept] (a rollback's, from BEGIN) when it is there, else rebuilt
   from its log and its store. *)
let decode_catalog ?(kept = []) t src =
  Hashtbl.reset t.tables;
  let ntables = Codec.get_uvarint src in
  for _ = 1 to ntables do
    let schema = Schema.decode src in
    let _versioned = Codec.get_bool src (* the history tag below says it again *) in
    let dir_pages = get_int_list src in
    let data_pages = get_int_list src in
    let free_pages = get_int_list src in
    let store =
      OS.restore ~layout:t.layout ~clustering:t.clustering t.pool ~dir_pages
        ~data_pages ~free_pages
    in
    let nidx = Codec.get_uvarint src in
    let index_specs =
      List.init nidx (fun _ ->
          let p = get_path src in
          let strategy =
            match Codec.get_u8 src with
            | 0 -> VI.Data_tid
            | 1 -> VI.Root_tid
            | 2 -> VI.Hierarchical
            | n -> Codec.decode_error "Db.load: strategy %d" n
          in
          (p, strategy))
    in
    let ntidx = Codec.get_uvarint src in
    let text_paths = List.init ntidx (fun _ -> get_path src) in
    let kept = List.assoc_opt (String.uppercase_ascii schema.Schema.name) kept in
    let history =
      match Codec.get_u8 src with
      | 0 -> None
      | n when n = history_log ->
          let pages = get_int_list src in
          Some
            (match kept with
            | Some { k_history = Some h; _ } -> h
            | _ -> VS.restore t.pool ~pages)
      | 1 ->
          db_error
            "versioned table %s was written by an older build that kept its versions in the \
             catalog; this engine keeps them in a history log and cannot read it"
            schema.Schema.name
      | n -> Codec.decode_error "Db.load: history tag %d" n
    in
    let vindexes, tindexes =
      match kept with
      | Some k ->
          (List.map (fun v -> VI.rebind v store) k.k_indexes, List.map (fun x -> TI.rebind x store) k.k_text)
      | None ->
          ( List.map (fun (p, strategy) -> VI.create store schema strategy p) index_specs,
            List.map (fun p -> TI.create store schema p) text_paths )
    in
    let indexes =
      List.map2
        (fun (p, _) vindex ->
          { iname = Printf.sprintf "IDX_%s_%s" schema.Schema.name (String.concat "_" p); ipath = p; vindex })
        index_specs vindexes
    in
    let text_indexes = List.combine text_paths tindexes in
    Hashtbl.replace t.tables (String.uppercase_ascii schema.Schema.name)
      {
        schema;
        store;
        history;
        indexes;
        text_indexes;
        (* the published row count: a rollback restores the state the
           head version holds, and load, recovery and replica apply
           publish every table afresh right after *)
        stat_rows =
          (match Mvcc.resolve (Mvcc.view t.mvcc) schema.Schema.name with
          | Some v -> v.Mvcc.v_rows
          | None -> 0);
      }
  done;
  let nnames = Codec.get_uvarint src in
  let names =
    List.init nnames (fun _ ->
        let token = Codec.get_string src in
        let table = Codec.get_string src in
        let kind =
          match Codec.get_u8 src with
          | 0 -> Tname.K_object
          | 1 -> Tname.K_subobject
          | 2 -> Tname.K_subtable (Codec.get_uvarint src)
          | n -> Codec.decode_error "Db.load: tname kind %d" n
        in
        let root = Tid.decode src in
        let nsteps = Codec.get_uvarint src in
        let steps = List.init nsteps (fun _ -> get_step src) in
        (token, { Tname.table; kind; root; steps }))
  in
  t.tnames <- Tname.restore_registry names

(* --- WAL transactions --------------------------------------------------------

   With a WAL attached, mutations run as logged transactions: page
   changes are captured as before/after-image records by the buffer
   pool, COMMIT appends a commit record (carrying the catalog image
   when it changed) and forces the log, and rollback (runtime abort)
   restores the before-images through the pool — the compensations
   are logged like any other update, so a crash mid-rollback still
   recovers cleanly.
   A simulated [Disk.Crash] is machine death: nothing is cleaned up. *)

(* The physical configuration heading database images and catalog
   payloads: layout, clustering, and a byte that once flagged page
   compression.  It is always written off; an image written with it on
   holds compressed data subtuples this engine cannot read, so it is
   refused rather than misread. *)
let put_physical b t =
  Codec.put_u8 b (match t.layout with MD.SS1 -> 1 | MD.SS2 -> 2 | MD.SS3 -> 3);
  Codec.put_bool b t.clustering;
  Codec.put_bool b false

let get_physical ~what src =
  let layout =
    match Codec.get_u8 src with
    | 1 -> MD.SS1
    | 2 -> MD.SS2
    | 3 -> MD.SS3
    | n -> db_error "%s: unknown layout %d" what n
  in
  let clustering = Codec.get_bool src in
  if Codec.get_bool src then
    db_error "%s: written with page compression, which this engine no longer supports" what;
  (layout, clustering)

let catalog_stamp t : stamp =
  {
    s_tables =
      Hashtbl.fold
        (fun _ ti acc ->
          let s_dir, s_data, s_free = OS.export_meta ti.store in
          {
            s_ti = ti;
            s_dir;
            s_data;
            s_free;
            s_indexes = ti.indexes;
            s_text = ti.text_indexes;
            s_history = (match ti.history with Some h -> VS.pages h | None -> []);
          }
          :: acc)
        t.tables [];
    s_names = Tname.all t.tnames;
  }

let same_stamp a b =
  a.s_names == b.s_names
  && List.equal
       (fun x y ->
         x.s_ti == y.s_ti && x.s_dir == y.s_dir && x.s_data == y.s_data && x.s_free == y.s_free
         && x.s_indexes == y.s_indexes && x.s_text == y.s_text && x.s_history == y.s_history)
       a.s_tables b.s_tables

(* Catalog image as carried in WAL commit/checkpoint records, at
   [stamp] (the current one); encoded only when the catalog changed
   since the last encode. *)
let payload_at t stamp : string =
  match t.catalog_cache with
  | Some (s, payload) when same_stamp s stamp -> payload
  | _ ->
      let b = Codec.create_sink () in
      put_physical b t;
      encode_catalog b t;
      let payload = Codec.contents b in
      t.catalog_cache <- Some (stamp, payload);
      payload

(* Whether the attached log's newest catalog payload describes the
   catalog at [stamp]: recovery and replicas take the newest payload,
   so a commit then need not carry one. *)
let logged_at t stamp = match t.logged_catalog with Some s -> same_stamp s stamp | None -> false

let restore_catalog ?kept t (payload : string) =
  let src = Codec.source_of_string payload in
  let layout, clustering = get_physical ~what:"catalog payload" src in
  (* rollback restores always match; a *shipped* payload from a primary
     with a different physical configuration must be refused — the page
     images it describes would be misread under this layout *)
  if layout <> t.layout || clustering <> t.clustering then
    db_error "catalog payload: layout/clustering mismatch with this database";
  decode_catalog ?kept t src;
  (* the decoded catalog is the one [payload] encodes *)
  t.catalog_cache <- Some (catalog_stamp t, payload)

let begin_wal_txn t w =
  let wtx = Wal.begin_tx w in
  BP.set_tx t.pool wtx;
  let saved_tables =
    Hashtbl.fold
      (fun key ti acc ->
        ( key,
          {
            k_history = Option.map VS.copy ti.history;
            k_indexes = List.map (fun ii -> VI.freeze ii.vindex) ti.indexes;
            k_text = List.map (fun (_, x) -> TI.freeze x) ti.text_indexes;
          } )
        :: acc)
      t.tables []
  in
  let saved_stamp = catalog_stamp t in
  let st = { wtx; saved_catalog = payload_at t saved_stamp; saved_stamp; saved_tables } in
  t.wal_txn <- Some st;
  st

(* The commit record carries the catalog only when it differs from the
   one the log's newest payload holds. *)
let commit_wal_txn t w (st : wal_txn_state) =
  let stamp = catalog_stamp t in
  let payload = if logged_at t stamp then None else Some (payload_at t stamp) in
  Wal.commit w ~tx:st.wtx ~payload;
  t.logged_catalog <- Some stamp;
  BP.set_tx t.pool Wal.system_tx;
  t.wal_txn <- None;
  (* the commit record is the last appended LSN: publish the touched
     tables' new versions at it, making the commit visible to snapshot
     readers in one atomic step *)
  mvcc_publish t

(* Runtime rollback: apply the transaction's before-images in reverse
   through the pool (logging compensations), mark it aborted, and
   restore the catalog snapshot so in-memory metadata matches the
   rewound pages. *)
let abort_wal_txn t w (st : wal_txn_state) =
  let updates = Wal.tx_updates w st.wtx in
  List.iter
    (fun (page, off, before) ->
      BP.write t.pool page (fun buf -> Bytes.blit_string before 0 buf off (String.length before)))
    (List.rev updates);
  Wal.log_abort w st.wtx;
  BP.set_tx t.pool Wal.system_tx;
  t.wal_txn <- None;
  t.dirty <- SMap.empty; (* nothing committed: publish nothing *)
  let logged = logged_at t st.saved_stamp in
  restore_catalog ~kept:st.saved_tables t st.saved_catalog;
  (* the catalog is BEGIN's again, so the log holds it if it did then *)
  if logged then t.logged_catalog <- Some (catalog_stamp t)

(* Run [f] as its own logged transaction when a WAL is attached and no
   transaction is already open.  [Disk.Crash] (simulated machine death)
   passes through untouched; any other failure aborts the transaction
   before re-raising. *)
let logged t (f : unit -> 'a) : 'a =
  match t.wal with
  | Some w when t.wal_txn = None -> (
      let st = begin_wal_txn t w in
      let still_ours () = match t.wal_txn with Some st' -> st' == st | None -> false in
      try
        let r = f () in
        if still_ours () then commit_wal_txn t w st;
        r
      with
      | Disk.Crash _ as e -> raise e
      | e ->
          if still_ours () then abort_wal_txn t w st;
          raise e)
  | _ ->
      (* no WAL (or already inside a transaction): outside a
         transaction each mutating call publishes its own MVCC version
         directly — also on failure, since without a WAL a failed
         script may have partially applied and the snapshot must track
         the actual state *)
      let publish () =
        if t.wal_txn = None && not (SMap.is_empty t.dirty) then mvcc_publish t
      in
      (match f () with
      | r ->
          publish ();
          r
      | exception e ->
          publish ();
          raise e)

(* --- transactions ------------------------------------------------------------------

   Single-user transactions (the prototype itself is single-user, as
   the paper states), always through the WAL: BEGIN attaches the log
   if the database has none yet, ROLLBACK rewinds the touched pages
   from the log's before-images (plus the cheap catalog snapshot), and
   COMMIT forces the log.  A database that never opens a transaction
   stays unlogged. *)

let in_txn t = t.wal_txn <> None

let begin_txn t =
  if in_txn t then db_error "transaction already open";
  attach_wal t;
  ignore (begin_wal_txn t (Option.get t.wal))

let commit t =
  match (t.wal_txn, t.wal) with
  | Some st, Some w -> commit_wal_txn t w st
  | _ -> db_error "COMMIT without BEGIN"

let rollback t =
  match (t.wal_txn, t.wal) with
  | Some st, Some w -> abort_wal_txn t w st
  | _ -> db_error "ROLLBACK without BEGIN"

(* A new empty table (CREATE TABLE, {!register_table}). *)
let add_table t (schema : Schema.t) ~versioned =
  let ti =
    {
      schema;
      store = OS.create ~layout:t.layout ~clustering:t.clustering t.pool;
      history = (if versioned then Some (VS.create t.pool) else None);
      indexes = [];
      text_indexes = [];
      stat_rows = 0;
    }
  in
  Hashtbl.replace t.tables (String.uppercase_ascii schema.Schema.name) ti;
  touch t schema.Schema.name;
  ti

(* Rebuild a table under a changed schema (ALTER): fresh object store,
   reinserted rows, indexes rebuilt where their paths still resolve. *)
let rebuild_table t ti (schema' : Schema.t) (tuples : Value.tuple list) =
  let store = OS.create ~layout:t.layout ~clustering:t.clustering t.pool in
  List.iter (fun tup -> ignore (OS.insert store schema' tup)) tuples;
  let still_resolves path =
    match Schema.path_attr schema'.Schema.table path with
    | Schema.Atomic _ -> true
    | Schema.Table _ -> false
    | exception Schema.Schema_error _ -> false
  in
  let indexes =
    List.filter_map
      (fun ii ->
        (* rebuilt indexes use hierarchical addressing, the production
           strategy; strawman strategies exist for experiments only *)
        if still_resolves ii.ipath then
          Some { ii with vindex = VI.create store schema' VI.Hierarchical ii.ipath }
        else None)
      ti.indexes
  in
  let text_indexes =
    List.filter_map
      (fun (path, _) ->
        if still_resolves path then Some (path, TI.create store schema' path) else None)
      ti.text_indexes
  in
  Hashtbl.replace t.tables
    (String.uppercase_ascii schema'.Schema.name)
    { ti with schema = schema'; store; indexes; text_indexes; stat_rows = List.length tuples }

(* Element schemas along a subtable path, innermost first. *)
let subtable_scopes ti (sub_path : string list) : Schema.table list =
  List.fold_left
    (fun (tbl, acc) attr ->
      match Schema.find_field tbl attr with
      | Some (_, { Schema.attr = Schema.Table sub; _ }) -> (sub, sub :: acc)
      | _ -> db_error "%s is not a subtable" (String.concat "." sub_path))
    (ti.schema.Schema.table, []) sub_path
  |> snd

(* SET expressions compiled once for a statement, in the scope of its
   row and elements (innermost first). *)
let compile_sets t scope (sets : (string * Ast.expr) list) =
  List.map (fun (a, e) -> (a, Compile.expr_in (statement t) scope e)) sets

(* The atomic attributes of [tup] (of table [tbl]) after [sets], each
   SET expression evaluated on [frame], the tuples of the scope they
   were compiled in. *)
let set_atoms (tbl : Schema.table) (tup : Value.tuple) sets (frame : Value.tuple list) : Atom.t list =
  List.filter_map
    (fun (f : Schema.field) ->
      match f.Schema.attr with
      | Schema.Table _ -> None
      | Schema.Atomic ty -> (
          match List.find_opt (fun (a, _) -> Schema.same_name a f.Schema.name) sets with
          | None -> ( match Value.field tbl tup f.Schema.name with Value.Atom a -> Some a | _ -> None)
          | Some (_, e) -> (
              match e frame with
              | Value.Atom a ->
                  let a = match ty, a with Atom.Tfloat, Atom.Int v -> Atom.Float (float_of_int v) | _ -> a in
                  if not (Atom.conforms ty a) then db_error "SET %s: type mismatch" f.Schema.name;
                  Some a
              | _ -> db_error "SET %s: expected atomic value" f.Schema.name)))
    tbl.Schema.fields

(* The scope a subtable statement's predicate and SET expressions run
   in: each element ([#elem], innermost first) inside the row. *)
let element_scope ti inner =
  List.map (fun sub -> ("#elem", sub)) inner @ [ ("#row", ti.schema.Schema.table) ]

(* Elements of the subtable at [sub_path] (inside every nesting level)
   of the object [tup] that [matches] (compiled over {!element_scope});
   returns (steps-to-element, element, frame) triples where the frame
   holds the element and all its ancestors for SET expressions. *)
let matching_elements ti (matches : (Value.tuple list -> bool) option) (tup : Value.tuple)
    (sub_path : string list) : (OS.step list * Value.tuple * Value.tuple list) list =
  let acc = ref [] in
  let rec go (tbl : Schema.table) (cur : Value.tuple) (steps_rev : OS.step list) frame
      (path : string list) =
    match path with
    | [] -> ()
    | attr :: rest -> (
        match Schema.field_exn tbl attr with
        | _, { Schema.attr = Schema.Table sub; _ } -> (
            match Value.field tbl cur attr with
            | Value.Table inner ->
                List.iteri
                  (fun i etup ->
                    let steps_rev' = OS.Elem i :: OS.Attr attr :: steps_rev in
                    let frame' = etup :: frame in
                    if rest = [] then begin
                      let keep = match matches with None -> true | Some m -> m frame' in
                      if keep then acc := (List.rev steps_rev', etup, frame') :: !acc
                    end
                    else go sub etup steps_rev' frame' rest)
                  inner.Value.tuples
            | _ -> ())
        | _ -> db_error "%s is not a subtable attribute" attr)
  in
  go ti.schema.Schema.table tup [] [ tup ] sub_path;
  List.rev !acc

(* --- statement execution -------------------------------------------------------- *)

module Trace = Nf2_obs.Trace

(* The engine's counter sources beyond the pool's and the disk's:
   the WAL source reads [t.wal] at call time (BEGIN may attach one). *)
let wal_counters t = Wal.counters t.wal
let mvcc_counters t = Mvcc.counters t.mvcc

let plan_counters t =
  [
    ("plan.seq_scans", Atomic.get t.pc_seq_scans);
    ("plan.index_scans", Atomic.get t.pc_index_scans);
    ("plan.index_intersections", Atomic.get t.pc_index_intersections);
  ]

(* A trace wired to this database's storage tier: the pool, disk and
   WAL sources, so every span delta-snapshots them. *)
let new_trace ?label t : Trace.t =
  let tr = Trace.create ?label () in
  Trace.add_source tr (fun () -> BP.counters t.pool);
  Trace.add_source tr (fun () -> Disk.counters t.disk);
  Trace.add_source tr (fun () -> wal_counters t);
  tr

type planner_counters = { seq_scans : int; index_scans : int; index_intersections : int }

let planner_counters t =
  {
    seq_scans = Atomic.get t.pc_seq_scans;
    index_scans = Atomic.get t.pc_index_scans;
    index_intersections = Atomic.get t.pc_index_intersections;
  }

let set_plan_force_seq t v = t.plan_force_seq <- v
let plan_force_seq t = t.plan_force_seq
let last_plan_tree t = t.last_plan_tree

(* --- DML targets ---------------------------------------------------------------

   UPDATE and DELETE, and subtable INSERT, UPDATE and DELETE, find their
   objects through the planner: the WHERE clause is planned as the
   one-range block [#row IN table] ({!Driver.candidate_roots}), so a
   sargable conjunct probes an index — a value or range probe,
   CONTAINS, or the Section 4.2 hierarchical-prefix intersection —
   instead of fetching every object.  Candidates are visited in heap
   order, the order a full scan visits them, so statement effects never
   depend on the path chosen; each is fetched once and re-checked
   against the full predicate.  Targets are collected before any
   mutation, which keeps [SET <indexed key> = ...] correct. *)

(* [where] compiled once for a statement over its object. *)
let row_matches t ti (where : Ast.pred option) : Value.tuple -> bool =
  match where with
  | None -> fun _ -> true
  | Some w ->
      let matches = Compile.pred_in (statement t) [ ("#row", ti.schema.Schema.table) ] w in
      fun tup -> matches [ tup ]

(* Objects an index path says may satisfy [where], in heap order; every
   root when the plan is a scan.  [inner]: the element schemas of a
   subtable statement, innermost first. *)
let candidate_roots t ti ?inner (where : Ast.pred option) : Tid.t list =
  let name = ti.schema.Schema.name in
  match
    Driver.candidate_roots ~force_seq:t.plan_force_seq ?inner ~stats:(stats_of t) (catalog t)
      ~table:name where
  with
  | Some (roots, kind) ->
      count_access t kind;
      List.map (fun r -> (OS.root_position ti.store r, r)) roots
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map snd
  | None ->
      count_access t `Seq;
      OS.roots ti.store

(* The objects an UPDATE or DELETE changes, with their current tuples. *)
let dml_targets t ti (where : Ast.pred option) : (Tid.t * Value.tuple) list =
  let matches = row_matches t ti where in
  List.filter_map
    (fun root ->
      let tup = OS.fetch ti.store ti.schema root in
      if matches tup then Some (root, tup) else None)
    (candidate_roots t ti where)

(* --- read statements ------------------------------------------------------------

   SELECT, SHOW TABLES, DESCRIBE and EXPLAIN [ANALYZE] run through
   {!exec_view} over a read view: the catalog the statement's tables
   resolve in, the planner statistics that go with it, the table names
   SHOW TABLES lists, and a plan-note prefix naming the state read.  Two
   functions make views: {!live_view} over the current tables (the
   caller holds the engine latch), and {!snapshot_view} over a pinned
   MVCC snapshot, which reads no engine state but the SYS providers. *)

type view = {
  catalog : Eval.catalog;
  stats : Pstats.provider;
  names : unit -> string list;
  note : string option;
}

let live_view t = { catalog = catalog t; stats = stats_of t; names = (fun () -> table_names t); note = None }

(* Scans serve the frozen version's objects and index paths probe the
   indexes frozen with it, so evaluation touches no shared storage at
   all.  [Data_tid] indexes stay out: resolving their postings to roots
   scans the live store.  Each version carries its exact row count. *)
let snapshot_view (s : Mvcc.snapshot) =
  let catalog name =
    Option.map
      (fun v ->
        {
          Eval.schema = v.Mvcc.v_schema;
          scan =
            table_scan name v.Mvcc.v_schema v.Mvcc.v_history ~fetch:(Mvcc.fetch v)
              ~current:(fun () -> Mvcc.scan v) ~at_lsn:(scan_at_lsn s name);
          index =
            Some
              {
                Eval.fetch = Mvcc.fetch v;
                indexes = List.filter (fun (_, vi) -> VI.strategy vi <> VI.Data_tid) v.Mvcc.v_indexes;
                text_indexes = v.Mvcc.v_text_indexes;
              };
        })
      (Mvcc.resolve s name)
  in
  {
    catalog;
    stats = (fun name -> Option.map (fun v -> { Pstats.rows = v.Mvcc.v_rows }) (Mvcc.resolve s name));
    names = (fun () -> List.map (fun (_, v) -> v.Mvcc.v_schema.Schema.name) (Mvcc.live_tables s));
    note = Some (Printf.sprintf "snapshot @ LSN %d" (Mvcc.lsn s));
  }

(* Plan and run one query; returns its plan notes and plan tree too.
   SYS scans are deliberately invisible to the plan-path counters:
   introspecting the engine must not perturb what it reports. *)
let run_query ?trace ?rewrite t view q =
  (* plan notes accumulate locally: parallel readers may run this
     concurrently, and [last_plan] is a last-writer-wins debugging aid,
     not shared state *)
  let notes = ref (Option.to_list view.note) in
  let catalog, is_sys = with_sys t view.catalog in
  let rel, tree =
    Driver.run
      ~plan_note:(fun p -> notes := p :: !notes)
      ?trace ~force_seq:t.plan_force_seq
      ~on_access:(fun name kind -> if not (is_sys name) then count_access t kind)
      ?rewrite ~stats:view.stats catalog q
  in
  t.last_plan <- !notes;
  t.last_plan_tree <- Some tree;
  (rel, List.rev !notes, tree)

let exec_view ?trace ?rewrite t view (stmt : Ast.stmt) : result =
  match stmt with
  | Ast.Select q ->
      let rel, _, _ = run_query ?trace ?rewrite t view q in
      Rows rel
  | Ast.Show_tables -> Msg (String.concat "\n" (view.names ()))
  | Ast.Describe name -> (
      match fst (with_sys t view.catalog) name with
      | Some { Eval.schema; _ } ->
          Msg (Schema.to_string schema ^ "\n" ^ Schema.render_segment_tree schema)
      | None -> db_error "no such table: %s" name)
  | Ast.Explain q ->
      (* plan only — typing runs (errors surface) but nothing executes *)
      let tree =
        Driver.explain ~force_seq:t.plan_force_seq ?rewrite ~stats:view.stats
          (fst (with_sys t view.catalog)) q
      in
      t.last_plan_tree <- Some tree;
      let note = match view.note with Some n -> "  " ^ n ^ "\n" | None -> "" in
      Msg (Printf.sprintf "plan:\n%s%s" note (Plan.render ~indent:2 tree))
  | Ast.Explain_analyze q ->
      (* execute the query under a trace wired to this database's
         storage counters, then render plan + annotated operator tree *)
      let tr = new_trace t in
      let root = Trace.root tr in
      let rel, notes, tree = Trace.timed tr root (fun () -> run_query ~trace:tr ?rewrite t view q) in
      Trace.add_rows root (Rel.cardinality rel);
      let plan = match notes with [] -> [ "in-memory evaluation" ] | ps -> ps in
      Msg
        (Printf.sprintf "plan:\n  %s\ntree:\n%strace:\n%sresult: %d row(s), schema %s"
           (String.concat "\n  " plan) (Plan.render ~indent:2 tree) (Trace.render tr)
           (Rel.cardinality rel)
           (Format.asprintf "%a" Schema.pp_table rel.Rel.schema))
  | _ -> db_error "exec_read: statement is not read-only"

let exec_stmt ?trace ?rewrite t (stmt : Ast.stmt) : result =
  match stmt with
  | Ast.Select _ | Ast.Show_tables | Ast.Describe _ | Ast.Explain _ | Ast.Explain_analyze _ ->
      exec_view ?trace ?rewrite t (live_view t) stmt
  | Ast.Begin_txn ->
      begin_txn t;
      Msg "transaction started"
  | Ast.Commit ->
      commit t;
      Msg "committed"
  | Ast.Rollback ->
      rollback t;
      Msg "rolled back"
  | Ast.Create_table { name; fields; versioned } ->
      if find_table t name <> None then db_error "table %s already exists" name;
      let schema =
        Schema.validate { Schema.name = String.uppercase_ascii name; table = { Schema.kind = Schema.Set; fields = fields_of_defs fields } }
      in
      ignore (add_table t schema ~versioned);
      Msg (Printf.sprintf "table %s created%s" (String.uppercase_ascii name) (if versioned then " (versioned)" else ""))
  | Ast.Drop_table name ->
      let _ = table_exn t name in
      Hashtbl.remove t.tables (String.uppercase_ascii name);
      touch t name;
      Msg (Printf.sprintf "table %s dropped" (String.uppercase_ascii name))
  | Ast.Create_index { table; path; strategy } ->
      let ti = table_exn t table in
      let strategy =
        match strategy with Ast.S_data -> VI.Data_tid | Ast.S_root -> VI.Root_tid | Ast.S_hier -> VI.Hierarchical
      in
      let vindex = VI.create ti.store ti.schema strategy path in
      let iname = Printf.sprintf "IDX_%s_%s" (String.uppercase_ascii table) (String.concat "_" path) in
      ti.indexes <- { iname; ipath = path; vindex } :: ti.indexes;
      touch_rows t table;
      Msg (Printf.sprintf "index %s created (%s)" iname (VI.strategy_name strategy))
  | Ast.Create_text_index { table; path } ->
      let ti = table_exn t table in
      let tix = TI.create ti.store ti.schema path in
      ti.text_indexes <- (path, tix) :: ti.text_indexes;
      touch_rows t table;
      Msg (Printf.sprintf "text index on %s(%s) created" (String.uppercase_ascii table) (String.concat "." path))
  | Ast.Insert { table; sub_path = []; where = None; rows } ->
      let ti = table_exn t table in
      touch_rows t table;
      let tuples = List.map (tuple_of_literals ti.schema.Schema.table) rows in
      List.iter (fun tup -> ignore (insert_object t ti tup)) tuples;
      Msg (Printf.sprintf "%d row(s) inserted into %s" (List.length rows) (String.uppercase_ascii table))
  | Ast.Insert { table; sub_path = []; where = Some _; _ } ->
      db_error "INSERT INTO %s: WHERE requires a subtable path" table
  | Ast.Insert { table; sub_path; where; rows } ->
      (* insert into a subtable of selected complex objects *)
      let ti = table_exn t table in
      let sub =
        match Schema.path_attr ti.schema.Schema.table sub_path with
        | Schema.Table sub -> sub
        | Schema.Atomic _ -> db_error "%s is not a subtable" (String.concat "." sub_path)
      in
      touch_rows t table;
      let ts = eval_ts t ti None in
      let tuples = List.map (tuple_of_literals sub) rows in
      let steps = List.map (fun a -> OS.Attr a) sub_path in
      let matches = row_matches t ti where in
      let targets =
        List.filter
          (fun root -> Option.is_none where || matches (OS.fetch ti.store ti.schema root))
          (candidate_roots t ti where)
      in
      List.iter
        (fun root ->
          log_event t ti ~ts root (fun () -> VS.Changed (VS.Whole (OS.fetch ti.store ti.schema root)));
          deindex_object ti root;
          List.iter (fun tup -> OS.append_element ti.store ti.schema root steps tup) tuples;
          reindex_object ti root)
        targets;
      Msg
        (Printf.sprintf "%d row(s) inserted into %s of %d object(s)" (List.length rows)
           (String.concat "." sub_path) (List.length targets))
  | Ast.Alter_add { table; field } ->
      let ti = table_exn t table in
      if Option.is_some ti.history then db_error "ALTER on versioned tables is not supported";
      let new_field = List.hd (fields_of_defs [ field ]) in
      let schema' =
        Schema.validate
          { ti.schema with Schema.table = { ti.schema.Schema.table with Schema.fields = ti.schema.Schema.table.Schema.fields @ [ new_field ] } }
      in
      (* default value for existing objects: NULL / empty table *)
      let default =
        match new_field.Schema.attr with
        | Schema.Atomic _ -> Value.null
        | Schema.Table sub -> Value.Table { Value.kind = sub.Schema.kind; tuples = [] }
      in
      let tuples = List.map (fun r -> OS.fetch ti.store ti.schema r @ [ default ]) (OS.roots ti.store) in
      rebuild_table t ti schema' tuples;
      touch t table;
      Msg (Printf.sprintf "attribute %s added to %s" new_field.Schema.name (String.uppercase_ascii table))
  | Ast.Alter_drop { table; attr } ->
      let ti = table_exn t table in
      if Option.is_some ti.history then db_error "ALTER on versioned tables is not supported";
      let idx =
        match Schema.find_field ti.schema.Schema.table attr with
        | Some (i, _) -> i
        | None -> db_error "no attribute %s in %s" attr table
      in
      let fields = List.filteri (fun i _ -> i <> idx) ti.schema.Schema.table.Schema.fields in
      if fields = [] then db_error "cannot drop the last attribute of %s" table;
      let schema' =
        Schema.validate { ti.schema with Schema.table = { ti.schema.Schema.table with Schema.fields } }
      in
      let tuples =
        List.map
          (fun r -> List.filteri (fun i _ -> i <> idx) (OS.fetch ti.store ti.schema r))
          (OS.roots ti.store)
      in
      rebuild_table t ti schema' tuples;
      touch t table;
      Msg (Printf.sprintf "attribute %s dropped from %s" (String.uppercase_ascii attr) (String.uppercase_ascii table))
  | Ast.Update { table; sub_path = _ :: _ as sub_path; sets; where; at } ->
      let ti = table_exn t table in
      touch_rows t table;
      let ts = eval_ts t ti at in
      let inner = subtable_scopes ti sub_path in
      let sub = List.hd inner in
      (* reject SETs of unknown or non-atomic element attributes *)
      List.iter
        (fun (a, _) ->
          match Schema.find_field sub a with
          | Some (_, { Schema.attr = Schema.Atomic _; _ }) -> ()
          | Some _ -> db_error "SET %s: only atomic attributes can be updated" a
          | None -> db_error "SET %s: unknown attribute of %s" a (String.concat "." sub_path))
        sets;
      let scope = element_scope ti inner in
      let matches = Option.map (Compile.pred_in (statement t) scope) where in
      let sets = compile_sets t scope sets in
      let count = ref 0 in
      List.iter
        (fun root ->
          let tup = OS.fetch ti.store ti.schema root in
          (* every new element is computed before the object changes *)
          let updates =
            List.map
              (fun (steps, etup, frame) -> (steps, etup, set_atoms sub etup sets frame))
              (matching_elements ti matches tup sub_path)
          in
          if updates <> [] then begin
            deindex_object ti root;
            List.iter
              (fun (steps, etup, atoms) ->
                log_event t ti ~ts root (fun () -> VS.Changed (VS.Atoms (steps, VS.atoms_at sub etup [])));
                OS.update_atoms ti.store ti.schema root steps atoms;
                incr count)
              updates;
            reindex_object ti root
          end)
        (candidate_roots t ti ~inner where);
      Msg (Printf.sprintf "%d element(s) updated in %s" !count (String.concat "." sub_path))
  | Ast.Delete { table; sub_path = _ :: _ as sub_path; where; at } ->
      let ti = table_exn t table in
      touch_rows t table;
      let ts = eval_ts t ti at in
      let inner = subtable_scopes ti sub_path in
      let matches = Option.map (Compile.pred_in (statement t) (element_scope ti inner)) where in
      let count = ref 0 in
      List.iter
        (fun root ->
          let tup = OS.fetch ti.store ti.schema root in
          let targets = matching_elements ti matches tup sub_path in
          if targets <> [] then begin
            log_event t ti ~ts root (fun () -> VS.Changed (VS.Whole tup));
            deindex_object ti root;
            (* delete deepest-last indices first so shallower ones stay valid *)
            let sorted =
              List.map (fun (steps, _, _) -> steps) targets
              |> List.sort (fun a b -> compare (List.rev a) (List.rev b))
              |> List.rev
            in
            List.iter
              (fun steps ->
                match List.rev steps with
                | OS.Elem idx :: rev_prefix ->
                    OS.delete_element ti.store ti.schema root (List.rev rev_prefix) ~idx;
                    incr count
                | _ -> ())
              sorted;
            reindex_object ti root
          end)
        (candidate_roots t ti ~inner where);
      Msg (Printf.sprintf "%d element(s) deleted from %s" !count (String.concat "." sub_path))
  | Ast.Update { table; sub_path = []; sets; where; at } ->
      let ti = table_exn t table in
      touch_rows t table;
      let ts = eval_ts t ti at in
      (* reject SETs of unknown or table-valued attributes *)
      List.iter
        (fun (a, _) ->
          match Schema.find_field ti.schema.Schema.table a with
          | Some (_, { Schema.attr = Schema.Atomic _; _ }) -> ()
          | Some _ -> db_error "SET %s: only atomic attributes can be updated" a
          | None -> db_error "SET %s: unknown attribute" a)
        sets;
      let sets = compile_sets t [ ("#row", ti.schema.Schema.table) ] sets in
      let new_atoms tup = set_atoms ti.schema.Schema.table tup sets [ tup ] in
      let targets = dml_targets t ti where in
      List.iter
        (fun (root, tup) ->
          let atoms = new_atoms tup in
          log_event t ti ~ts root (fun () ->
              VS.Changed (VS.Atoms ([], VS.atoms_at ti.schema.Schema.table tup [])));
          deindex_object ti root;
          OS.update_atoms ti.store ti.schema root [] atoms;
          reindex_object ti root)
        targets;
      Msg (Printf.sprintf "%d row(s) updated in %s" (List.length targets) (String.uppercase_ascii table))
  | Ast.Delete { table; sub_path = []; where; at } ->
      let ti = table_exn t table in
      touch_rows t table;
      let ts = eval_ts t ti at in
      let targets = dml_targets t ti where in
      List.iter
        (fun (root, tup) ->
          log_event t ti ~ts root (fun () -> VS.Died tup);
          deindex_object ti root;
          OS.delete ti.store ti.schema root)
        targets;
      Msg (Printf.sprintf "%d row(s) deleted from %s" (List.length targets) (String.uppercase_ascii table))


let is_txn_control = function Ast.Begin_txn | Ast.Commit | Ast.Rollback -> true | _ -> false

(* With a WAL attached, a mutating script outside an explicit
   transaction is its own logged transaction.  A script that opens or
   closes a transaction itself runs statement by statement instead:
   each mutating statement outside its BEGIN ... COMMIT is logged on
   its own. *)
let exec t (input : string) : result list =
  let stmts = Parser.parse_script input in
  if not (List.exists Ast.mutates stmts) then List.map (exec_stmt t) stmts
  else if List.exists is_txn_control stmts then
    List.map
      (fun s -> if Ast.mutates s then logged t (fun () -> exec_stmt t s) else exec_stmt t s)
      stmts
  else logged t (fun () -> List.map (exec_stmt t) stmts)

(* Single-statement convenience. *)
let exec1 t input : result =
  match exec t input with
  | [ r ] -> r
  | rs -> Msg (Printf.sprintf "%d statements executed" (List.length rs))

(* Run a query string, expecting rows. *)
let query t input : Rel.t =
  match exec1 t input with
  | Rows rel -> rel
  | Msg m -> db_error "expected rows, got: %s" m

let render_result = function
  | Rows rel -> Rel.render rel
  | Msg m -> m

(* --- typed API (bypassing the language) -------------------------------------- *)

(* Register a table from an existing schema value (used by examples and
   fixtures; DDL via [exec] is the normal route). *)
let register_table t (schema : Schema.t) ?(versioned = false) (rows : Value.tuple list) =
  let key = String.uppercase_ascii schema.Schema.name in
  if Hashtbl.mem t.tables key then db_error "table %s already exists" schema.Schema.name;
  logged t (fun () ->
      let ti = add_table t schema ~versioned in
      List.iter (fun tup -> ignore (insert_object t ti tup)) rows;
      ti.stat_rows <- List.length rows)

let insert_tuple t ~table (tup : Value.tuple) : Tid.t =
  let ti = table_exn t table in
  logged t (fun () ->
      let root = insert_object t ti tup in
      ti.stat_rows <- ti.stat_rows + 1;
      root)

let fetch_tuple t ~table (root : Tid.t) : Value.tuple =
  let ti = table_exn t table in
  OS.fetch ti.store ti.schema root

let table_schema t ~table = (table_exn t table).schema
let table_store t ~table = (table_exn t table).store
let table_roots t ~table = OS.roots (table_exn t table).store

(* --- prepared statements ------------------------------------------------------------ *)

(* The embedded-API analogue (Section 3): parse once, execute many
   times with '?' parameters bound per call. *)
type prepared = { pstmt : Ast.stmt; nparams : int; source : string }

let prepare _t (input : string) : prepared =
  let pstmt, nparams = Parser.parse_prepared input in
  { pstmt; nparams; source = input }

let execute t (p : prepared) (values : Atom.t list) : result =
  if List.length values <> p.nparams then
    db_error "prepared statement needs %d parameter(s), got %d" p.nparams (List.length values);
  exec_stmt t (Params.bind_stmt p.pstmt values)

(* --- persistence ------------------------------------------------------------------- *)

(* Serialise the whole database — page images plus catalog metadata —
   into one file.  TIDs, Mini-TIDs, and t-name tokens stay valid across
   save/load because the page images persist byte-for-byte.  The image
   goes to [path.tmp], is fsynced and renamed over [path]: a crash
   leaves either the old image or the new one, never a torn one (a
   stale [path.tmp] is simply overwritten by the next save). *)
let save t (path : string) =
  BP.flush_all t.pool;
  let b = Codec.create_sink () in
  Buffer.add_string b magic;
  Codec.put_uvarint b (Disk.page_size t.disk);
  put_physical b t;
  let pages = Disk.export_pages t.disk in
  Codec.put_uvarint b (Array.length pages);
  Array.iter (fun p -> Buffer.add_bytes b p) pages;
  encode_catalog b t;
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc (Codec.contents b);
      Out_channel.flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Unix.rename tmp path

(* An image file's parts: page size, physical configuration, page
   array, and a source positioned at its catalog. *)
let read_image (path : string) =
  let data = In_channel.with_open_bin path In_channel.input_all in
  if String.length data < String.length magic || String.sub data 0 (String.length magic) <> magic
  then db_error "not an AIM-II database image";
  let src = Codec.source_of_string (String.sub data (String.length magic) (String.length data - String.length magic)) in
  let page_size = Codec.get_uvarint src in
  let layout, clustering = get_physical ~what:"Db.load" src in
  let npages = Codec.get_uvarint src in
  let pages =
    Array.init npages (fun _ -> Bytes.of_string (Codec.get_fixed src page_size))
  in
  (page_size, layout, clustering, pages, src)

let load ?frames ?pool_partitions (path : string) : t =
  let page_size, layout, clustering, pages, src = read_image path in
  let t = make ?frames ?pool_partitions ~layout ~clustering (Disk.of_pages ~page_size pages) in
  decode_catalog t src;
  mvcc_refresh_all t;
  t

(* --- WAL checkpointing and physical crash recovery ---------------------------

   With a WAL attached (see {!attach_wal}), a crash at any physical
   write leaves the surviving page images plus the log's durable
   prefix, and {!recover_from_image} replays them (redo history, undo
   losers) to exactly the committed-prefix state.  {!open_files} does
   the same over real files: the last checkpoint's image plus the log
   file's bytes. *)

let wal_exn t =
  match t.wal with Some w -> w | None -> db_error "no write-ahead log attached"

(* Sharp checkpoint: flush every dirty page (the WAL-before-data rule
   forces the log out first), then log a checkpoint record carrying the
   catalog so recovery can start its replay here.  A database opened
   from files first renames a new image into place — until then the
   log file's records must stay valid redo over the old image — and
   restarts its log file last. *)
let wal_checkpoint t =
  let w = wal_exn t in
  if in_txn t then db_error "checkpoint inside an open transaction";
  BP.flush_all t.pool;
  Option.iter (fun f -> save t f.image) t.files;
  let stamp = catalog_stamp t in
  let lsn = Wal.log_checkpoint w ~payload:(Some (payload_at t stamp)) in
  (* a restarted log file holds no payload, but recovery then takes
     the image's catalog, which is this one *)
  t.logged_catalog <- Some stamp;
  Option.iter (fun f -> Wal.start_file w f.log) t.files;
  lsn

(* What a crash right now would leave behind. *)
let crash_image t = Recovery.capture t.disk (wal_exn t)

(* --- replication apply (replica side) ----------------------------------------

   A replica replays shipped WAL records through its own buffer pool:
   repeat history, byte for byte, in LSN order — the same redo rule
   {!Recovery.replay} uses, but incremental and against a live pool so
   read-only sessions keep serving between batches.  The applied images
   are captured by the replica's *own* WAL (as system-transaction work),
   which is what makes a replica locally recoverable and promotable. *)

let ensure_page t page =
  while Disk.npages t.disk <= page do
    ignore (BP.alloc t.pool)
  done

(* Redo one shipped record.  Updates are byte-exact page images, so
   re-applying an already-applied record is a no-op — catch-up may
   safely restart from any conservative LSN. *)
let replicate_record t ((_, r) : Wal.lsn * Wal.record) =
  if in_txn t then db_error "replicate_record inside an open transaction";
  match r with
  | Wal.Update { page; off; after; _ } ->
      ensure_page t page;
      BP.write t.pool page (fun buf -> Bytes.blit_string after 0 buf off (String.length after))
  | Wal.Alloc { page; _ } -> ensure_page t page
  | Wal.Begin _ | Wal.Commit _ | Wal.Abort _ | Wal.Checkpoint _ -> ()

(* Refresh the replica's catalog from a shipped commit / checkpoint
   payload, or from its own when the shipped commit carries none (the
   primary's catalog is then the one last shipped), making the
   transaction's objects visible to readers.  With [lsn] (the shipped
   record's LSN) the refresh publishes a new MVCC version stamped with
   the primary's commit LSN — and is a no-op when that LSN was already
   applied, so catch-up may safely re-apply. *)
let replicate_catalog ?lsn t (payload : string option) =
  if in_txn t then db_error "replicate_catalog inside an open transaction";
  restore_catalog t (match payload with Some p -> p | None -> payload_at t (catalog_stamp t));
  match lsn with
  | Some lsn -> mvcc_refresh_all ~lsn ~monotonize:false t
  | None -> mvcc_refresh_all t

(* Promotion undo: apply before-images (newest first) through the pool,
   rolling unresolved shipped transactions back off the pages.  The
   compensations are captured by the local WAL like any other write. *)
let replicate_undo t (images : (int * int * string) list) =
  if in_txn t then db_error "replicate_undo inside an open transaction";
  List.iter
    (fun (page, off, before) ->
      ensure_page t page;
      BP.write t.pool page (fun buf -> Bytes.blit_string before 0 buf off (String.length before)))
    images;
  mvcc_refresh_all t

(* A fresh database over a replayed disk, with a fresh WAL attached.
   Its catalog is the log's newest payload; when the log holds none,
   [fallback] supplies the physical configuration and catalog. *)
let of_replay ?frames ?pool_partitions ?fallback (img : Recovery.image) : t =
  let outcome = Recovery.replay img in
  let (layout, clustering), src =
    match (outcome.Recovery.catalog, fallback) with
    | Some payload, _ ->
        let src = Codec.source_of_string payload in
        (get_physical ~what:"Db.recover_from_image" src, Some src)
    | None, Some (physical, src) -> (physical, Some src)
    | None, None -> ((MD.SS3, true), None)
  in
  let t = make ?frames ?pool_partitions ~layout ~clustering outcome.Recovery.disk in
  Option.iter (decode_catalog t) src;
  attach_wal t;
  mvcc_refresh_all t;
  t

let recover_from_image ?frames ?pool_partitions img = of_replay ?frames ?pool_partitions img

(* Open a database kept in an image file plus a log file: replay the
   log over the image's pages, then checkpoint at once — the recovered
   state becomes the new image and the log file restarts, so the new
   log's LSNs start clean. *)
let open_files ?frames ~image ~log () : t =
  let wal =
    match if Sys.file_exists log then Wal.file_records log else Some "" with
    | Some records -> records
    | None -> db_error "%s: not an AIM-II log file (a statement journal from an older build?)" log
  in
  if not (Sys.file_exists image) then save (create ()) image;
  let page_size, layout, clustering, pages, src = read_image image in
  let t = of_replay ?frames ~fallback:((layout, clustering), src) { Recovery.page_size; pages; wal } in
  t.files <- Some { image; log };
  ignore (wal_checkpoint t);
  t

(* --- tuple names ------------------------------------------------------------------ *)

let tname_object t ~table (root : Tid.t) : string =
  let ti = table_exn t table in
  Tname.register t.tnames (Tname.of_object ~table:ti.schema.Schema.name root)

let tname_subobject t ~table (root : Tid.t) (steps : OS.step list) : string =
  let ti = table_exn t table in
  Tname.register t.tnames (Tname.of_subobject ~table:ti.schema.Schema.name root steps)

let tname_subtable t ~table (root : Tid.t) (steps : OS.step list) : string =
  let ti = table_exn t table in
  Tname.register t.tnames (Tname.of_subtable ~table:ti.schema.Schema.name root steps)

let resolve_tname t (token : string) : Value.v =
  let tn = Tname.find_token t.tnames token in
  let ti = table_exn t tn.Tname.table in
  Tname.resolve ti.store ti.schema tn

(* --- MVCC snapshot reads ------------------------------------------------------

   The lock-free read path: pin the current multi-version state (one
   atomic read), build a catalog that resolves every table to its
   newest committed version at or below the snapshot LSN, and evaluate
   read-only statements against that — no predicate locks, no engine
   latch, and writers are never blocked.  ASOF falls out naturally:
   a versioned table's version carries its Section 5 history, frozen
   with it, which folds back from the version's own objects; [ASOF
   <int>] on any other table is time-travel to an older LSN within the
   same pinned snapshot. *)

let snapshot t : Mvcc.snapshot = Mvcc.snapshot t.mvcc
let release_snapshot t (s : Mvcc.snapshot) = Mvcc.release t.mvcc s
let snapshot_lsn (s : Mvcc.snapshot) = Mvcc.lsn s
let current_snapshot_lsn t = Mvcc.snapshot_lsn t.mvcc
let mvcc_stats t : Mvcc.stats = Mvcc.stats t.mvcc
let set_mvcc_retain t n = Mvcc.set_retain t.mvcc n
let set_mvcc_budget t n = Mvcc.set_budget t.mvcc n
let mvcc_budget t = Mvcc.budget t.mvcc

(* Execute one read-only statement against a pinned snapshot.  Callers
   classify statements first (the server's statement rewrite does);
   anything mutating is rejected here as a backstop. *)
let exec_read ?trace ?rewrite t (s : Mvcc.snapshot) (stmt : Ast.stmt) : result =
  exec_view ?trace ?rewrite t (snapshot_view s) stmt
