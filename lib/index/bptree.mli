(** In-memory B+-tree mapping binary (order-preserving) string keys to
    postings lists — index entries are [<key, address list>] pairs as
    in Section 4.2 of the paper.

    Deletion removes postings from leaves (dropping empty keys) without
    structural rebalancing — standard lazy deletion.

    The tree is persistent: nodes never change once built, and
    {!insert}/{!remove} copy the root-to-leaf path they touch, sharing
    every other node.  A handle ['a t] is a mutable pointer to a root;
    {!freeze} takes a second pointer to the same root, which later
    updates through the first handle never affect.  A frozen tree is
    therefore safe to read from any domain without a lock. *)

type 'a t

val create : unit -> 'a t

(** A handle on the tree as it is now, in O(1).  It shares every node
    with [t]; updates to either handle copy paths and leave the other
    unchanged. *)
val freeze : 'a t -> 'a t

(** Number of distinct keys. *)
val entry_count : 'a t -> int

val height : 'a t -> int

(** Append a posting under a key (newest first). *)
val insert : 'a t -> key:string -> 'a -> unit

(** Remove postings matching the predicate under a key. *)
val remove : 'a t -> key:string -> ('a -> bool) -> unit

(** Postings for a key (empty when absent). *)
val find : 'a t -> string -> 'a list

val mem : 'a t -> string -> bool

(** Inclusive range scan in key order; omitted bounds are open. *)
val range : 'a t -> ?lo:string -> ?hi:string -> unit -> (string * 'a list) list

val iter : 'a t -> (string -> 'a list -> unit) -> unit
val keys : 'a t -> string list

(** All entries whose key starts with the prefix (bounded scan). *)
val prefix_range : 'a t -> string -> (string * 'a list) list

(** Structural invariant check (sortedness, keys within their
    separators, fanout, balance).
    @raise Failure when violated — used by property tests. *)
val check : 'a t -> unit
