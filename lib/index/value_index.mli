(** Value indexes over NF² tables (Section 4.2 of the paper).

    An index is built on an attribute path (e.g.
    [DEPARTMENTS.PROJECTS.MEMBERS.FUNCTION]) and maps each key to a
    list of addresses.  Three address implementations are provided —
    the paper's two strawmen and its solution:

    - {!Data_tid}: global TIDs of the data subtuples containing the
      key.  Cannot reach the enclosing object without a table scan.
    - {!Root_tid}: TIDs of root MD subtuples.  Reaches the object and
      dedups multiple hits per object, but cannot tell {e which}
      subobject matched — conjunctive queries must scan candidates.
    - {!Hierarchical}: root TID + Mini-TIDs of the data subtuples along
      the path (Fig 7b).  Conjunctive predicates combine by address
      prefix comparison (P2 = F2) without touching data. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module OS = Nf2_storage.Object_store
module Tid = Nf2_storage.Tid

type strategy = Data_tid | Root_tid | Hierarchical

val strategy_name : strategy -> string

type addr = A_data of Tid.t | A_root of Tid.t | A_hier of OS.hier

type t

(** Build an index over every object currently in the store.  The path
    must end at an atomic attribute.  @raise Invalid_argument. *)
val create : OS.t -> Schema.t -> strategy -> Schema.path -> t

(** Maintenance: (de)register one object.  Call {!remove_object}
    {e before} mutating the object, and {!insert_object} after. *)
val insert_object : t -> Tid.t -> unit

val remove_object : t -> Tid.t -> unit

(** The index as it is now, in O(1): a handle sharing every B+-tree
    node with [t] that later maintenance of [t] leaves unchanged
    ({!Bptree.freeze}).  A frozen [Root_tid] or [Hierarchical] index
    answers lookups from its own nodes alone, so any domain may probe
    it without a lock; {!roots_for} on a [Data_tid] index still scans
    the live store. *)
val freeze : t -> t

(** [t] over [store], which must hold the objects [t] indexes (a
    rollback's restored store: the same pages as when [t] was frozen). *)
val rebind : t -> OS.t -> t

(** Raw postings for a key. *)
val lookup : t -> Atom.t -> addr list

(** Postings for an inclusive key range. *)
val lookup_range : t -> lo:Atom.t -> hi:Atom.t -> addr list

(** Root TIDs of objects containing the key under the indexed path.
    Direct for [Root_tid]/[Hierarchical]; for [Data_tid] this performs
    the full table scan the paper's first strawman is forced into (the
    cost shows in the store/pool counters).

    This and the other root-set functions below return TID-sorted
    lists without duplicates, so candidate sets intersect by merge. *)
val roots_for : t -> Atom.t -> Tid.t list

(** Root TIDs of objects with an indexed value in the (possibly
    one-sided, inclusive) range.  @raise Invalid_argument for
    [Data_tid] indexes. *)
val roots_in_range : t -> ?lo:Atom.t -> ?hi:Atom.t -> unit -> Tid.t list

(** Hierarchical addresses for a key ([Hierarchical] strategy only;
    empty otherwise). *)
val hiers_for : t -> Atom.t -> OS.hier list

(** The Fig 7b conjunctive evaluation: objects having a subobject where
    {e both} indexed predicates hold, decided purely on index addresses
    by prefix compatibility.  @raise Invalid_argument unless both
    indexes are [Hierarchical]. *)
val prefix_join : t -> Atom.t -> t -> Atom.t -> Tid.t list

val strategy : t -> strategy
val path : t -> Schema.path

(** Number of distinct indexed keys — the planner's cardinality
    estimate for equality selectivity. *)
val key_count : t -> int

(** Height of the underlying B+-tree (probe cost). *)
val height : t -> int

