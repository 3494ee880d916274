(** The complex-object store: AIM-II's integrated implementation of
    extended NF² objects (Section 4.1 of the paper).

    Each complex object owns a {e local address space} — a page list
    kept in its root MD subtuple — and is addressed globally by the TID
    of that root MD subtuple.  All data and MD subtuples of the object
    live in pages of the list and are addressed by Mini-TIDs, which are
    stable under updates (page-list gaps) and object relocation
    (position-preserving page replacement).  Structural information
    (Mini Directory trees) is kept strictly separate from data (data
    subtuples); all three Fig 6 layout alternatives are supported. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value

(** Per-store counters of logical subtuple reads/writes, exposed for
    the experiments.  {!stats} returns an immutable snapshot; the live
    counters are Atomics, so concurrent readers count exactly. *)
type stats = {
  md_reads : int;  (** MD subtuple fetches *)
  data_reads : int;  (** data subtuple fetches *)
  subtuple_writes : int;
}

type t

exception Store_error of string

(** [create ?layout ?clustering pool] makes an empty store.
    [layout] picks the Mini Directory structure (default {!Mini_directory.SS3},
    AIM-II's production choice).  With [clustering:false] subtuples are
    placed on pages shared by all objects (the ablation baseline);
    the default scans the object's own page list first, as the paper
    prescribes. *)
val create : ?layout:Mini_directory.layout -> ?clustering:bool -> Buffer_pool.t -> t

val layout : t -> Mini_directory.layout
val stats : t -> stats
val reset_stats : t -> unit

(** {1 Whole objects} *)

(** Store a complex object; returns its root TID (its identity).
    @raise Value.Value_error if the tuple does not conform. *)
val insert : t -> Schema.t -> Value.tuple -> Tid.t

(** Reconstruct a whole object. @raise Store_error on unknown TID. *)
val fetch : t -> Schema.t -> Tid.t -> Value.tuple

(** Delete an object and release its pages. *)
val delete : t -> Schema.t -> Tid.t -> unit

(** All live root TIDs, in insertion order. *)
val roots : t -> Tid.t list

(** A root's place in {!roots} order: (rank of its directory page, slot).
    Valid for deleted roots too — the directory's pages are never
    released — so a commit can key what it removed. *)
val root_position : t -> Tid.t -> int * int

(** Is an object rooted at this TID? *)
val is_root : t -> Tid.t -> bool

(** {1 Partial access}

    Paths address arbitrary parts of a complex object:
    [\[Attr "PROJECTS"; Elem 0; Attr "MEMBERS"\]] is the MEMBERS
    subtable of the first project.  Element indexes are 0-based and
    follow the storage order (= list order for ordered tables). *)

type step = Attr of string | Elem of int

(** Retrieve a part of an object without materialising the rest:
    an atomic attribute yields its atom; a subtable yields a table
    value; an element yields a one-tuple table. *)
val fetch_path : t -> Schema.t -> Tid.t -> step list -> Value.v

(** Rewrite the first-level atoms of the (sub)object at the path
    (which must end at an element, or be [\[\]] for the root). *)
val update_atoms : t -> Schema.t -> Tid.t -> step list -> Atom.t list -> unit

(** Append an element tuple to the subtable at the path (the last step
    must be [Attr] of a table attribute). *)
val append_element : t -> Schema.t -> Tid.t -> step list -> Value.tuple -> unit

(** Remove element [idx] of the subtable at the path, freeing its
    subtuples. *)
val delete_element : t -> Schema.t -> Tid.t -> step list -> idx:int -> unit

(** {1 Relocation (check-out)}

    Move the object onto fresh pages by copying page images and
    updating only the page list — Mini-TIDs stay valid because their
    positions in the list are preserved (Section 4.1).  Requires
    clustered storage.  @raise Store_error otherwise. *)
val relocate : t -> Tid.t -> unit

(** {1 Storage statistics (experiments)} *)

type md_stat = {
  md_subtuples : int;
  md_bytes : int;
  data_subtuples : int;
  data_bytes : int;
  pages : int;  (** live pages in the object's page list *)
  pointer_entries : int;  (** D/C pointers across all MD subtuples *)
}

val md_stats : t -> Schema.t -> Tid.t -> md_stat

(** Printable logical view of the object's MD tree (Fig 6). *)
val md_view : t -> Schema.t -> Tid.t -> Mini_directory.view

(** {1 Hierarchical addresses (Section 4.2, Fig 7b)}

    The address of an atomic value is the object's root TID followed by
    the Mini-TIDs of the data subtuples of every subobject on the way
    down.  Prefix compatibility of two addresses decides "same
    subobject" purely on index information. *)

type hier = { root : Tid.t; path : Mini_tid.t list }

(** True iff one address is a prefix of the other (same root and the
    shorter path is an initial segment of the longer): the P2 = F2 test
    of Fig 7b. *)
val hier_prefix_compatible : hier -> hier -> bool

(** Every (atom, address) pair stored under the attribute path in the
    given object — the index-build walk. *)
val index_entries : t -> Schema.t -> Tid.t -> Schema.path -> (Atom.t * hier) list

(** Fig 7a's naive addresses (SS3 only): MD-subtuple pointers instead
    of data-subtuple paths.  Sharing a subtable-MD component does not
    identify a common subobject — the defect the experiments measure.
    @raise Store_error for other layouts. *)
val index_entries_fig7a : t -> Schema.t -> Tid.t -> Schema.path -> (Atom.t * hier) list

(** Atoms of the data subtuple an address points at (last component),
    touching nothing else. *)
val fetch_hier_atoms : t -> hier -> Atom.t list

(** Translate a Mini-TID of an object into the equivalent global TID
    via the page list. *)
val resolve_mini : t -> Tid.t -> Mini_tid.t -> Tid.t

(** {1 Check-out / check-in (workstation transfer)}

    An object ships as one opaque byte string: its local pages plus
    root MD structure.  Mini-TIDs (and therefore subobject t-name
    paths) stay valid because page-list positions are reproduced
    exactly — transfer happens "at the page level" (Section 4.1). *)

(** @raise Store_error on unclustered stores. *)
val checkout : t -> Tid.t -> string

(** Install into this (possibly different) store; returns the new root
    TID.  @raise Store_error on page-size mismatch. *)
val checkin : t -> string -> Tid.t

(** {1 Persistence} *)

(** Page-ownership metadata: (root-directory pages, data pages, free
    pages) — everything besides the disk image needed by {!restore}. *)
val export_meta : t -> int list * int list * int list

(** Re-attach a store to a persisted disk.  All TIDs remain valid. *)
val restore :
  ?layout:Mini_directory.layout ->
  ?clustering:bool ->
  Buffer_pool.t ->
  dir_pages:int list ->
  data_pages:int list ->
  free_pages:int list ->
  t
