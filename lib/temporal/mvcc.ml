(* Engine-wide LSN-stamped version chains for MVCC snapshot reads.

   The whole multi-version state is one immutable value behind an
   [Atomic.t]: a map from table name to its chain of committed
   versions, newest first.  Publishing (the write side, already
   serialised by the engine's exclusive latch) builds a new state and
   swaps the pointer; taking a snapshot is a single [Atomic.get], so
   readers are wait-free with respect to writers and always observe a
   commit-consistent boundary — there is no moment at which a reader
   can see table A after a commit and table B before it.

   A version holds its objects in a persistent map keyed by heap
   position.  A commit that touched a few objects publishes a [Patch]:
   the new version's map is the previous one with those keys replaced
   or removed, so it shares every untouched object with its
   predecessor and costs O(change log n) to build.  A second persistent
   map, root TID -> heap position, is patched alongside it, and the
   version carries the table's value and text indexes frozen at its
   commit (persistent B+-trees that share every untouched node with
   their live originals), so an index probe on a snapshot resolves its
   root TIDs from the version alone.

   GC runs inside publish: every chain keeps its newest [retain]
   versions plus everything a pinned snapshot might still resolve;
   older versions are dropped and the chain remembers that it was
   trimmed, so resolving below the horizon fails with the typed
   [Snapshot_too_old] instead of silently returning a younger state. *)

module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module Tid = Nf2_storage.Tid
module VI = Nf2_index.Value_index
module TI = Nf2_index.Text_index
module SMap = Map.Make (String)
module TMap = Map.Make (Tid)

exception Snapshot_too_old of { table : string; lsn : int; floor : int }

type key = int * int

module KMap = Map.Make (struct
  type t = key

  let compare (r1, s1) (r2, s2) = match Int.compare r1 r2 with 0 -> Int.compare s1 s2 | c -> c
end)

(* A version's objects, where each root TID sits, plus the scan list
   built from them on first use.  The cache is an [Atomic] rather than
   a [Lazy]: snapshot readers on several domains may force it at once,
   and a lost race only builds the same list twice. *)
type objects = {
  objs : Value.tuple KMap.t;
  roots : key TMap.t;
  scan_cache : Value.tuple list option Atomic.t;
}

type version = {
  v_lsn : int;
  v_schema : Schema.t;
  v_versioned : bool;
  v_objects : objects;
  v_rows : int;
  v_asof : (int -> Value.tuple list) option;
  v_live : bool; (* false: drop tombstone — the table is gone above v_lsn *)
  v_bytes : int; (* approximate payload size of all its objects *)
  v_own_bytes : int; (* the part not shared with its predecessor *)
  v_indexes : (Schema.path * VI.t) list; (* frozen at v_lsn *)
  v_text_indexes : (Schema.path * TI.t) list;
}

let objects_of objs roots = { objs; roots; scan_cache = Atomic.make None }

let scan (v : version) =
  match Atomic.get v.v_objects.scan_cache with
  | Some l -> l
  | None ->
      let l = KMap.fold (fun _ tup acc -> tup :: acc) v.v_objects.objs [] |> List.rev in
      Atomic.set v.v_objects.scan_cache (Some l);
      l

let fetch (v : version) root =
  match TMap.find_opt root v.v_objects.roots with
  | Some k -> KMap.find k v.v_objects.objs
  | None ->
      invalid_arg
        (Fmt.str "Mvcc.fetch: %a is not a root of %s @ LSN %d" Tid.pp root
           v.v_schema.Schema.name v.v_lsn)

(* Approximate in-memory size of a tuple.  Per-constructor constants
   stand in for boxing + list-cons overhead; only string payloads vary.
   Exactness does not matter — the budget needs a monotone, stable
   measure, not an allocator audit. *)
let rec approx_bytes_v = function
  | Value.Atom (Nf2_model.Atom.Str s) -> 32 + String.length s
  | Value.Atom _ -> 16
  | Value.Table tb ->
      List.fold_left (fun acc tup -> acc + approx_bytes_tuple tup) 48 tb.Value.tuples

and approx_bytes_tuple tup = List.fold_left (fun acc v -> acc + 16 + approx_bytes_v v) 16 tup

type input =
  | Publish of {
      schema : Schema.t;
      versioned : bool;
      objects : (key * Tid.t option * Value.tuple) list;
      asof : (int -> Value.tuple list) option;
      indexes : (Schema.path * VI.t) list;
      text_indexes : (Schema.path * TI.t) list;
    }
  | Patch of {
      changes : (key * Tid.t * Value.tuple option) list;
      indexes : (Schema.path * VI.t) list;
      text_indexes : (Schema.path * TI.t) list;
    }
  | Drop

(* [c_trimmed]: GC has dropped versions off the old end, so resolution
   below the oldest kept version must fail rather than answer wrong. *)
type chain = { c_versions : version list (* newest first, never [] *); c_trimmed : bool }

type state = { s_lsn : int; s_tables : chain SMap.t; s_versions : int; s_bytes : int }

type t = {
  state : state Atomic.t;
  mu : Mutex.t; (* serialises publishers; guards pins *)
  pins : (int, int) Hashtbl.t; (* pinned snapshot LSN -> refcount *)
  mutable retain : int;
  mutable budget : int option; (* byte budget over all chains; None = unbounded *)
  mutable reclaimed : int;
  mutable floor : int;
}

type snapshot = { snap_state : state; snap_lsn : int }

type stats = {
  snapshot_lsn : int;
  versions_live : int;
  bytes_live : int;
  gc_reclaimed : int;
  gc_floor : int;
  pins : int;
}

let create ?(retain = 8) () =
  {
    state = Atomic.make { s_lsn = 0; s_tables = SMap.empty; s_versions = 0; s_bytes = 0 };
    mu = Mutex.create ();
    pins = Hashtbl.create 8;
    retain = max 1 retain;
    budget = None;
    reclaimed = 0;
    floor = 0;
  }

let with_mu (t : t) f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let set_retain (t : t) n = with_mu t (fun () -> t.retain <- max 1 n)

let oldest_pin_locked (t : t) =
  Hashtbl.fold (fun lsn n acc -> if n > 0 then min lsn acc else acc) t.pins max_int

(* Trim one chain: keep the newest [retain] versions, plus down to and
   including the first version at or below [keep_lsn] — the version a
   snapshot pinned at [keep_lsn] (or anything newer) resolves to. *)
let gc_chain (t : t) ~retain ~keep_lsn (c : chain) : chain =
  let rec keep idx = function
    | [] -> ([], [])
    | v :: rest ->
        if idx >= retain && v.v_lsn <= keep_lsn then ([ v ], rest)
        else
          let kept, dropped = keep (idx + 1) rest in
          (v :: kept, dropped)
  in
  let kept, dropped = keep 0 c.c_versions in
  if dropped = [] then c
  else begin
    t.reclaimed <- t.reclaimed + List.length dropped;
    List.iter (fun v -> t.floor <- max t.floor v.v_lsn) dropped;
    { c_versions = kept; c_trimmed = true }
  end

(* Bytes a chain holds: its oldest kept version in full, and what each
   newer version added on top of the one before it. *)
let chain_bytes (c : chain) =
  match List.rev c.c_versions with
  | [] -> 0
  | oldest :: newer -> List.fold_left (fun n v -> n + v.v_own_bytes) oldest.v_bytes newer

let state_bytes tables = SMap.fold (fun _ c n -> n + chain_bytes c) tables 0

(* GC over a whole table map.  First pass honours the configured
   [retain]; if the byte budget is still exceeded, a pressure pass
   shrinks the effective retain to 1 — pinned snapshots keep their
   horizon either way ([keep_lsn] is still respected), so the budget
   can legitimately stay exceeded while pins hold old versions. *)
let gc_tables (t : t) ~keep_lsn tables =
  let tables = SMap.map (gc_chain t ~retain:t.retain ~keep_lsn) tables in
  match t.budget with
  | Some b when state_bytes tables > b && t.retain > 1 ->
      SMap.map (gc_chain t ~retain:1 ~keep_lsn) tables
  | _ -> tables

let publish (t : t) ?(monotonize = true) ~lsn (inputs : (string * input) list) =
  with_mu t (fun () ->
      let cur = Atomic.get t.state in
      if lsn <= cur.s_lsn && not monotonize then ()
      else begin
        let lsn = if lsn > cur.s_lsn then lsn else cur.s_lsn + 1 in
        let tables =
          List.fold_left
            (fun tables (name, input) ->
              let key = String.uppercase_ascii name in
              let old = SMap.find_opt key tables in
              let head = Option.map (fun c -> List.hd c.c_versions) old in
              let push v =
                let c =
                  match old with
                  | Some c -> { c with c_versions = v :: c.c_versions }
                  | None -> { c_versions = [ v ]; c_trimmed = false }
                in
                SMap.add key c tables
              in
              match input, head with
              | Drop, None -> tables (* drop of a never-published table *)
              | Drop, Some prev ->
                  push
                    { prev with v_lsn = lsn; v_objects = objects_of KMap.empty TMap.empty;
                      v_rows = 0; v_asof = None; v_live = false; v_bytes = 0; v_own_bytes = 0;
                      v_indexes = []; v_text_indexes = [] }
              | Publish { schema; versioned; objects; asof; indexes; text_indexes }, _ ->
                  let objs, roots, bytes =
                    List.fold_left
                      (fun (m, r, b) (k, root, tup) ->
                        ( KMap.add k tup m,
                          Option.fold ~none:r ~some:(fun root -> TMap.add root k r) root,
                          b + approx_bytes_tuple tup ))
                      (KMap.empty, TMap.empty, 0) objects
                  in
                  push
                    { v_lsn = lsn; v_schema = schema; v_versioned = versioned;
                      v_objects = objects_of objs roots; v_rows = KMap.cardinal objs;
                      v_asof = asof; v_live = true; v_bytes = bytes; v_own_bytes = bytes;
                      v_indexes = indexes; v_text_indexes = text_indexes }
              | Patch { changes; indexes; text_indexes }, Some prev when prev.v_live ->
                  let objs, roots, rows, bytes, own =
                    List.fold_left
                      (fun (m, r, rows, bytes, own) (k, root, tup) ->
                        let rows, bytes =
                          match KMap.find_opt k m with
                          | Some old -> (rows - 1, bytes - approx_bytes_tuple old)
                          | None -> (rows, bytes)
                        in
                        match tup with
                        | Some tup ->
                            let b = approx_bytes_tuple tup in
                            (KMap.add k tup m, TMap.add root k r, rows + 1, bytes + b, own + b)
                        | None -> (KMap.remove k m, TMap.remove root r, rows, bytes, own))
                      (prev.v_objects.objs, prev.v_objects.roots, prev.v_rows, prev.v_bytes, 0)
                      changes
                  in
                  push
                    { prev with v_lsn = lsn; v_objects = objects_of objs roots; v_rows = rows;
                      v_bytes = bytes; v_own_bytes = own; v_indexes = indexes;
                      v_text_indexes = text_indexes }
              | Patch _, _ -> invalid_arg ("Mvcc.publish: patch of " ^ key ^ " without a live version"))
            cur.s_tables inputs
        in
        let keep_lsn = min (oldest_pin_locked t) lsn in
        let tables = gc_tables t ~keep_lsn tables in
        let s_versions = SMap.fold (fun _ c n -> n + List.length c.c_versions) tables 0 in
        Atomic.set t.state { s_lsn = lsn; s_tables = tables; s_versions; s_bytes = state_bytes tables }
      end)

(* Re-run GC over the current state without publishing anything — used
   when the budget or retain changes so pressure takes effect at once
   rather than at the next commit. *)
let sweep (t : t) =
  with_mu t (fun () ->
      let cur = Atomic.get t.state in
      let keep_lsn = min (oldest_pin_locked t) cur.s_lsn in
      let tables = gc_tables t ~keep_lsn cur.s_tables in
      let s_versions = SMap.fold (fun _ c n -> n + List.length c.c_versions) tables 0 in
      Atomic.set t.state { cur with s_tables = tables; s_versions; s_bytes = state_bytes tables })

let set_budget (t : t) b =
  with_mu t (fun () -> t.budget <- (match b with Some n when n >= 0 -> Some n | _ -> None));
  sweep t

let budget (t : t) = t.budget

let snapshot_lsn (t : t) = (Atomic.get t.state).s_lsn

let live_names (t : t) =
  SMap.fold
    (fun k c acc -> if (List.hd c.c_versions).v_live then k :: acc else acc)
    (Atomic.get t.state).s_tables []

let snapshot (t : t) : snapshot =
  with_mu t (fun () ->
      let st = Atomic.get t.state in
      let n = Option.value (Hashtbl.find_opt t.pins st.s_lsn) ~default:0 in
      Hashtbl.replace t.pins st.s_lsn (n + 1);
      { snap_state = st; snap_lsn = st.s_lsn })

(* Unpinned view of the current state: safe to resolve against (the
   state is immutable), but does not hold the GC horizon. *)
let view (t : t) : snapshot =
  let st = Atomic.get t.state in
  { snap_state = st; snap_lsn = st.s_lsn }

let release (t : t) (s : snapshot) =
  with_mu t (fun () ->
      match Hashtbl.find_opt t.pins s.snap_lsn with
      | Some n when n > 1 -> Hashtbl.replace t.pins s.snap_lsn (n - 1)
      | Some _ -> Hashtbl.remove t.pins s.snap_lsn
      | None -> ())

let lsn (s : snapshot) = s.snap_lsn

(* Newest version at or below [lsn], or the reason there is none. *)
let resolve_chain (c : chain) ~lsn : [ `Version of version | `Absent | `Too_old of int ] =
  let rec go = function
    | [] ->
        if c.c_trimmed then
          let oldest = List.nth c.c_versions (List.length c.c_versions - 1) in
          `Too_old oldest.v_lsn
        else `Absent
    | v :: rest -> if v.v_lsn <= lsn then `Version v else go rest
  in
  go c.c_versions

let resolve (s : snapshot) name : version option =
  match SMap.find_opt (String.uppercase_ascii name) s.snap_state.s_tables with
  | None -> None
  | Some c -> (
      (* chain heads never exceed the state's LSN, so `Too_old cannot
         surface here: the head itself is always at or below snap_lsn *)
      match resolve_chain c ~lsn:s.snap_lsn with
      | `Version v when v.v_live -> Some v
      | _ -> None)

let resolve_at (s : snapshot) name ~lsn : version option =
  let key = String.uppercase_ascii name in
  let lsn = min lsn s.snap_lsn in
  match SMap.find_opt key s.snap_state.s_tables with
  | None -> None
  | Some c -> (
      match resolve_chain c ~lsn with
      | `Version v -> if v.v_live then Some v else None
      | `Absent -> None
      | `Too_old floor -> raise (Snapshot_too_old { table = key; lsn; floor }))

let live_tables (s : snapshot) : (string * version) list =
  SMap.fold
    (fun k _ acc -> match resolve s k with Some v -> (k, v) :: acc | None -> acc)
    s.snap_state.s_tables []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let chains (t : t) : (string * bool * version list) list =
  let st = Atomic.get t.state in
  SMap.fold (fun k c acc -> (k, c.c_trimmed, c.c_versions) :: acc) st.s_tables []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let pinned_lsns (t : t) : (int * int) list =
  with_mu t (fun () -> Hashtbl.fold (fun lsn n acc -> (lsn, n) :: acc) t.pins [])
  |> List.sort compare

let stats (t : t) : stats =
  let st = Atomic.get t.state in
  with_mu t (fun () ->
      {
        snapshot_lsn = st.s_lsn;
        versions_live = st.s_versions;
        bytes_live = st.s_bytes;
        gc_reclaimed = t.reclaimed;
        gc_floor = t.floor;
        pins = Hashtbl.fold (fun _ n acc -> acc + n) t.pins 0;
      })

let counters (t : t) =
  let s = stats t in
  [
    ("mvcc.snapshot_lsn", s.snapshot_lsn);
    ("mvcc.versions_live", s.versions_live);
    ("mvcc.gc_reclaimed", s.gc_reclaimed);
    ("mvcc.pinned_snapshots", s.pins);
    ("mvcc.bytes_live", s.bytes_live);
  ]
