(* Value indexes over NF2 tables (Section 4.2 of the paper).

   An index is built on an attribute *path* (e.g.
   DEPARTMENTS.PROJECTS.MEMBERS.FUNCTION) and maps each key value to a
   list of addresses.  Three address implementations are provided, the
   first two being the paper's strawmen and the third its solution:

   - [Data_tid]: global TIDs of the data subtuples containing the key.
     Cannot reach the enclosing object without a table scan.
   - [Root_tid]: TIDs of root MD subtuples.  Reaches the object and
     dedups multiple hits per object, but cannot distinguish *which*
     subobject matched — conjunctive queries on two indexes must scan
     objects of the candidate superset.
   - [Hierarchical]: root TID + Mini-TIDs of the data subtuples along
     the path (Fig 7b).  Conjunctive predicates combine by address
     prefix comparison (P2 = F2) without touching the data. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module OS = Nf2_storage.Object_store
module Tid = Nf2_storage.Tid

type strategy = Data_tid | Root_tid | Hierarchical

let strategy_name = function
  | Data_tid -> "data-subtuple TIDs"
  | Root_tid -> "root-MD TIDs"
  | Hierarchical -> "hierarchical addresses"

type addr = A_data of Tid.t | A_root of Tid.t | A_hier of OS.hier

type t = {
  strategy : strategy;
  path : Schema.path;
  tree : addr Bptree.t;
  store : OS.t;
  schema : Schema.t;
}

let addr_of_hier store strategy (h : OS.hier) =
  match strategy with
  | Hierarchical -> A_hier h
  | Root_tid -> A_root h.OS.root
  | Data_tid -> (
      match List.rev h.OS.path with
      | [] -> A_root h.OS.root (* root-level attribute: data subtuple is the root's own *)
      | last :: _ -> A_data (OS.resolve_mini store h.OS.root last))

let insert_object t (root : Tid.t) =
  let entries = OS.index_entries t.store t.schema root t.path in
  List.iter
    (fun (atom, hier) ->
      let addr = addr_of_hier t.store t.strategy hier in
      (* Root_tid strategy dedups per object per key, as the paper notes *)
      let skip =
        match t.strategy with
        | Root_tid ->
            List.exists
              (function A_root r -> Tid.equal r root | _ -> false)
              (Bptree.find t.tree (Atom.to_key atom))
        | Data_tid | Hierarchical -> false
      in
      if not skip then Bptree.insert t.tree ~key:(Atom.to_key atom) addr)
    entries

let remove_object t (root : Tid.t) =
  let entries = OS.index_entries t.store t.schema root t.path in
  List.iter
    (fun (atom, _) ->
      Bptree.remove t.tree ~key:(Atom.to_key atom) (function
        | A_root r -> Tid.equal r root
        | A_hier h -> Tid.equal h.OS.root root
        | A_data _ -> false))
    entries;
  (* Data_tid postings do not identify their object (the paper's
     complaint!) — removal must rebuild by filtering every key. *)
  match t.strategy with
  | Data_tid ->
      let keys = Bptree.keys t.tree in
      List.iter
        (fun _k -> ())
        keys (* data TIDs become dangling; lookups re-validate instead *)
  | Root_tid | Hierarchical -> ()

let create store schema strategy path =
  (match Schema.resolve_path schema.Schema.table path with
  | Schema.Atomic _ -> ()
  | Schema.Table _ -> invalid_arg "Value_index.create: path must end at an atomic attribute");
  let t = { strategy; path; tree = Bptree.create (); store; schema } in
  List.iter (insert_object t) (OS.roots store);
  t

let freeze t = { t with tree = Bptree.freeze t.tree }

let lookup t atom = Bptree.find t.tree (Atom.to_key atom)

let lookup_range t ~lo ~hi =
  List.concat_map snd (Bptree.range t.tree ~lo:(Atom.to_key lo) ~hi:(Atom.to_key hi) ())

(* Root TIDs of objects containing [atom] under the indexed path.
   Possible directly for Root_tid and Hierarchical; for Data_tid the
   index alone cannot answer it — the whole table must be scanned and
   each candidate object searched (the paper's first strawman).  The
   scan cost shows up in the store/pool counters. *)
let roots_for t atom : Tid.t list =
  match t.strategy with
  | Root_tid ->
      List.sort_uniq Tid.compare
        (List.filter_map (function A_root r -> Some r | _ -> None) (lookup t atom))
  | Hierarchical ->
      List.sort_uniq Tid.compare
        (List.filter_map (function A_hier h -> Some h.OS.root | _ -> None) (lookup t atom))
  | Data_tid ->
      let hits = lookup t atom in
      let data_tids = List.filter_map (function A_data d -> Some d | A_root r -> Some r | _ -> None) hits in
      if data_tids = [] then []
      else
        (* scan every object, re-deriving its data-subtuple TIDs *)
        List.filter
          (fun root ->
            let entries = OS.index_entries t.store t.schema root t.path in
            List.exists
              (fun (a, h) ->
                Atom.equal a atom
                &&
                match List.rev h.OS.path with
                | [] -> List.exists (Tid.equal root) data_tids
                | last :: _ -> List.exists (Tid.equal (OS.resolve_mini t.store root last)) data_tids)
              entries)
          (OS.roots t.store)
        |> List.sort_uniq Tid.compare

(* Root TIDs of objects with any indexed value in the (possibly
   one-sided, inclusive) range — used by the planner for inequality
   predicates.  Candidate supersets are fine: the evaluator re-checks
   the full predicate. *)
let roots_in_range t ?lo ?hi () : Tid.t list =
  match t.strategy with
  | Data_tid -> invalid_arg "roots_in_range: data-TID indexes cannot produce roots"
  | Root_tid | Hierarchical ->
      Bptree.range t.tree ?lo:(Option.map Atom.to_key lo) ?hi:(Option.map Atom.to_key hi) ()
      |> List.concat_map snd
      |> List.filter_map (function
           | A_root r -> Some r
           | A_hier h -> Some h.OS.root
           | A_data _ -> None)
      |> List.sort_uniq Tid.compare

(* Hierarchical addresses for [atom]; only for the Hierarchical strategy. *)
let hiers_for t atom : OS.hier list =
  List.filter_map (function A_hier h -> Some h | _ -> None) (lookup t atom)

(* The Fig 7b conjunctive evaluation: objects having a subobject where
   *both* indexed predicates hold, decided purely on index addresses by
   prefix compatibility.  Returns the matching root TIDs. *)
let prefix_join (a : t) atom_a (b : t) atom_b : Tid.t list =
  match a.strategy, b.strategy with
  | Hierarchical, Hierarchical ->
      let ha = hiers_for a atom_a and hb = hiers_for b atom_b in
      List.filter_map
        (fun x ->
          if List.exists (fun y -> OS.hier_prefix_compatible x y) hb then Some x.OS.root else None)
        ha
      |> List.sort_uniq Tid.compare
  | _ -> invalid_arg "prefix_join requires hierarchical indexes"

let strategy t = t.strategy
let path t = t.path

(* Planner statistics: distinct key count — the index is its own
   cardinality estimate (no separate histogram to keep fresh). *)
let key_count t = Bptree.entry_count t.tree
let height t = Bptree.height t.tree

