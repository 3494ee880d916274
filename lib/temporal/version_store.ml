(* Time-version support (Section 5 of the paper; /DLW84, Lu84/).

   A versioned table keeps its objects in its ordinary object store and
   their past in this history: an append-only log on heap pages with
   one entry per event — a birth, a change, a death — written before
   the change it describes.  A change entry is a *reverse delta*
   telling how to get from the state after the change back to the
   state before it; an ASOF query takes the current object and folds
   back the deltas younger than the requested time point.  This gives
   the paper's emphasis on storage space (small updates store small
   deltas) while current-state access stays that of a plain table.

   The paper exposes only fixed-point ASOF queries at the language
   level ("walk-through-time queries ... have not been brought up to
   the language interface"); [history] and [walk_through_time] below
   are the corresponding lower-level interval access.  Timestamps are
   logical: any monotone int works; the language layer uses days (the
   DATE representation) by default.

   Entries name their object id, and a birth starts a new id, so a root
   TID the store reuses after a death starts a new chain.  Entries also
   carry a sequence number: first-fit placement can put a later entry
   on an earlier page, and [restore] replays them in logged order. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module OS = Nf2_storage.Object_store
module Tid = Nf2_storage.Tid
module Heap = Nf2_storage.Heap
module IMap = Map.Make (Int)
module TMap = Map.Make (Tid)

exception Temporal_error of string

let temporal_error fmt = Fmt.kstr (fun s -> raise (Temporal_error s)) fmt

(* A reverse delta: how to turn the newer state back into the older. *)
type delta =
  | Whole of Value.tuple (* older state stored wholesale *)
  | Atoms of step_path * Atom.t list (* older first-level atoms of one subobject *)

and step_path = OS.step list

type event = Born | Changed of delta | Died of Value.tuple

type fate = Alive of Tid.t | Dead of int * Value.tuple (* death time, last state *)

type chain = {
  created : int;
  changes : (int * delta) list; (* newest first: when the newer state began, how to undo it *)
  fate : fate;
}

type state = { chains : chain IMap.t; clock : int }

type t = {
  log : Heap.t;
  mutable state : state;
  mutable ids : int TMap.t; (* root of each live object -> its id *)
  mutable next_id : int;
  mutable next_seq : int;
}

(* --- entry codec ------------------------------------------------------ *)

let encode_step b = function
  | OS.Attr name ->
      Codec.put_u8 b 0;
      Codec.put_string b name
  | OS.Elem i ->
      Codec.put_u8 b 1;
      Codec.put_uvarint b i

let decode_step src =
  match Codec.get_u8 src with
  | 0 -> OS.Attr (Codec.get_string src)
  | 1 -> OS.Elem (Codec.get_uvarint src)
  | n -> Codec.decode_error "Version_store.decode_step: %d" n

(* seq, id, ts, then the event; a birth carries the new root *)
let encode_entry ~seq ~id ~ts root (ev : event) =
  let b = Codec.create_sink () in
  Codec.put_uvarint b seq;
  Codec.put_uvarint b id;
  Codec.put_varint b ts;
  (match ev with
  | Born ->
      Codec.put_u8 b 0;
      Tid.encode b root
  | Changed (Whole tup) ->
      Codec.put_u8 b 1;
      Value.encode_tuple b tup
  | Changed (Atoms (path, atoms)) ->
      Codec.put_u8 b 2;
      Codec.put_uvarint b (List.length path);
      List.iter (encode_step b) path;
      Codec.put_uvarint b (List.length atoms);
      List.iter (Atom.encode b) atoms
  | Died last ->
      Codec.put_u8 b 3;
      Value.encode_tuple b last);
  Codec.contents b

let decode_entry payload =
  let src = Codec.source_of_string payload in
  let seq = Codec.get_uvarint src in
  let id = Codec.get_uvarint src in
  let ts = Codec.get_varint src in
  let ev =
    match Codec.get_u8 src with
    | 0 -> `Born (Tid.decode src)
    | 1 -> `Ev (Changed (Whole (Value.decode_tuple src)))
    | 2 ->
        let np = Codec.get_uvarint src in
        let path = List.init np (fun _ -> decode_step src) in
        let na = Codec.get_uvarint src in
        `Ev (Changed (Atoms (path, List.init na (fun _ -> Atom.decode src))))
    | 3 -> `Ev (Died (Value.decode_tuple src))
    | n -> Codec.decode_error "Version_store.decode_entry: %d" n
  in
  (seq, id, ts, ev)

(* --- value-level helpers ----------------------------------------------- *)

(* First-level atoms of the subobject at [path] inside [tup]. *)
let atoms_at (tbl : Schema.table) (tup : Value.tuple) (path : step_path) : Atom.t list =
  let first_level_atoms (tbl : Schema.table) (tp : Value.tuple) =
    List.concat
      (List.map2
         (fun (f : Schema.field) v ->
           match f.Schema.attr, v with Schema.Atomic _, Value.Atom a -> [ a ] | _ -> [])
         tbl.Schema.fields tp)
  in
  let rec go (tbl : Schema.table) (tp : Value.tuple) = function
    | [] -> first_level_atoms tbl tp
    | OS.Attr name :: OS.Elem i :: rest -> (
        match Schema.field_exn tbl name with
        | _, { Schema.attr = Schema.Table sub; _ } -> (
            match Value.field tbl tp name with
            | Value.Table inner -> go sub (List.nth inner.Value.tuples i) rest
            | _ -> temporal_error "atoms_at: schema mismatch")
        | _ -> temporal_error "atoms_at: %s is not a table" name)
    | _ -> temporal_error "atoms_at: malformed path"
  in
  go tbl tup path

(* Replace the first-level atoms of the subobject at [path]. *)
let replace_atoms (tbl : Schema.table) (tup : Value.tuple) (path : step_path) (atoms : Atom.t list) :
    Value.tuple =
  let rebuild (tbl : Schema.table) (tp : Value.tuple) atoms =
    let rem = ref atoms in
    List.map2
      (fun (f : Schema.field) v ->
        match f.Schema.attr with
        | Schema.Atomic _ -> (
            match !rem with
            | a :: rest ->
                rem := rest;
                Value.Atom a
            | [] -> temporal_error "replace_atoms: too few atoms")
        | Schema.Table _ -> v)
      tbl.Schema.fields tp
  in
  let rec go (tbl : Schema.table) (tp : Value.tuple) path =
    match path with
    | [] -> rebuild tbl tp atoms
    | OS.Attr name :: OS.Elem i :: rest -> (
        match Schema.field_exn tbl name with
        | _, { Schema.attr = Schema.Table sub; _ } ->
            List.map2
              (fun (f : Schema.field) v ->
                if String.uppercase_ascii f.Schema.name = String.uppercase_ascii name then
                  match v with
                  | Value.Table inner ->
                      Value.Table
                        {
                          inner with
                          Value.tuples =
                            List.mapi (fun j tp' -> if j = i then go sub tp' rest else tp') inner.Value.tuples;
                        }
                  | _ -> temporal_error "replace_atoms: schema mismatch"
                else v)
              tbl.Schema.fields tp
        | _ -> temporal_error "replace_atoms: %s is not a table" name)
    | _ -> temporal_error "replace_atoms: malformed path"
  in
  go tbl tup path

(* --- lifecycle ---------------------------------------------------------- *)

let empty = { chains = IMap.empty; clock = 0 }

let create pool = { log = Heap.create pool; state = empty; ids = TMap.empty; next_id = 0; next_seq = 0 }

let pages t = Heap.pages t.log
let clock t = t.state.clock
let freeze t = t.state
let copy t = { t with log = Heap.copy t.log }
let object_id t root = TMap.find_opt root t.ids

(* Apply one logged event to the index. *)
let apply t ~id ~ts root (ev : event) =
  let chains = t.state.chains in
  let chain =
    match ev, IMap.find_opt id chains with
    | Born, _ ->
        t.ids <- TMap.add root id t.ids;
        { created = ts; changes = []; fate = Alive root }
    | Changed d, Some c -> { c with changes = (ts, d) :: c.changes }
    | Died last, Some c ->
        t.ids <- TMap.remove root t.ids;
        { c with fate = Dead (ts, last) }
    | _, None -> temporal_error "history entry for unknown object %d" id
  in
  t.state <- { chains = IMap.add id chain chains; clock = max ts t.state.clock }

let record t ~ts root (ev : event) =
  if ts < t.state.clock then temporal_error "timestamps must be monotone (%d < %d)" ts t.state.clock;
  let id =
    match ev, TMap.find_opt root t.ids with
    | Born, _ ->
        t.next_id <- t.next_id + 1;
        t.next_id - 1
    | _, Some id -> id
    | _, None -> temporal_error "%s is not a live versioned object" (Tid.to_string root)
  in
  ignore (Heap.insert t.log (encode_entry ~seq:t.next_seq ~id ~ts root ev));
  t.next_seq <- t.next_seq + 1;
  apply t ~id ~ts root ev

let restore pool ~pages =
  let t = { (create pool) with log = Heap.restore pool ~pages } in
  Heap.fold t.log (fun acc _ payload -> decode_entry payload :: acc) []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> Int.compare a b)
  |> List.iter (fun (seq, id, ts, ev) ->
         t.next_seq <- seq + 1;
         t.next_id <- max t.next_id (id + 1);
         match ev with
         | `Born root -> apply t ~id ~ts root Born
         | `Ev ev -> (
             match IMap.find_opt id t.state.chains with
             | Some { fate = Alive root; _ } -> apply t ~id ~ts root ev
             | _ -> temporal_error "history entry for dead or unknown object %d" id));
  t

(* --- ASOF --------------------------------------------------------------- *)

let find (s : state) id =
  match IMap.find_opt id s.chains with
  | Some c -> c
  | None -> temporal_error "no versioned object %d" id

(* The chain's state as of [ts] (inclusive), or None if the object did
   not exist then: its newest state, with the deltas of changes
   strictly younger than [ts] folded back. *)
let chain_asof (tbl : Schema.table) ~fetch c ~ts =
  let newest =
    match c.fate with
    | _ when ts < c.created -> None
    | Dead (d, _) when ts >= d -> None
    | Dead (_, last) -> Some last
    | Alive root -> Some (fetch root)
  in
  let rec back state = function
    | (vts, d) :: older when vts > ts ->
        let state = match d with Whole old -> old | Atoms (path, atoms) -> replace_atoms tbl state path atoms in
        back state older
    | _ -> state
  in
  Option.map (fun tup -> back tup c.changes) newest

let asof (s : state) (schema : Schema.t) ~fetch ~ts : Value.tuple list =
  IMap.fold
    (fun _ c acc -> match chain_asof schema.Schema.table ~fetch c ~ts with Some tup -> tup :: acc | None -> acc)
    s.chains []
  |> List.rev

let object_asof (s : state) (schema : Schema.t) ~fetch id ~ts =
  chain_asof schema.Schema.table ~fetch (find s id) ~ts

(* When each state of the object began, oldest first. *)
let stamps c = c.created :: List.rev_map fst c.changes

let history (s : state) id : (int * bool) list =
  let c = find s id in
  (c.created, true) :: List.rev_map (fun (ts, _) -> (ts, false)) c.changes

(* Walk-through-time: every distinct state of object [id] whose version
   interval intersects [lo, hi], oldest first, with the timestamp at
   which that state became current. *)
let walk_through_time (s : state) (schema : Schema.t) ~fetch id ~lo ~hi : (int * Value.tuple) list =
  if hi < lo then temporal_error "walk_through_time: empty interval (%d > %d)" lo hi;
  let c = find s id in
  let stamps = stamps c in
  (* states current somewhere in [lo, hi]: the last version at or
     before lo, plus every version starting within (lo, hi] *)
  let relevant = List.filter (fun ts -> ts > lo && ts <= hi) stamps in
  let base = if List.exists (fun ts -> ts <= lo) stamps then [ lo ] else [] in
  List.filter_map
    (fun ts -> Option.map (fun tup -> (ts, tup)) (chain_asof schema.Schema.table ~fetch c ~ts))
    (base @ relevant)

(* --- space accounting (experiments) -------------------------------------- *)

let delta_bytes t = Heap.fold t.log (fun acc _ payload -> acc + String.length payload) 0

let version_count (s : state) id = List.length (stamps (find s id))
