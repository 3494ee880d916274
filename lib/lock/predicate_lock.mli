(** Predicate-oriented locking (/DPS82, DPS83/ in the paper's
    references; Section 5 names it as the concurrency-control approach
    under investigation for the multi-user prototype).

    A lock names a set of (sub)tuples by a predicate — table plus a
    conjunction of per-attribute-path restrictions — rather than by
    physical identity, which gives phantom protection on the NF² data
    model.  Conflicts are decided by exact interval intersection (the
    property test checks the decision against a witness search). *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema

exception Lock_error of string

type mode = Shared | Exclusive

val mode_name : mode -> string

type restriction =
  | Eq of Atom.t
  | Between of Atom.t * Atom.t  (** inclusive *)
  | Ge of Atom.t
  | Le of Atom.t

type predicate = { table : string; restrictions : (Schema.path * restriction) list }

(** Table-level lock: restricts nothing. *)
val whole_table : string -> predicate

val predicate_to_string : predicate -> string

(** Could some tuple satisfy both predicates?  Exact for this class. *)
val predicates_overlap : predicate -> predicate -> bool

val modes_conflict : mode -> mode -> bool

(** {1 Lock table} *)

type txn = int
type t

(** Cumulative counters for the observability layer; [wait_ns] is
    accumulated by the caller owning the wait loop via
    {!add_wait_ns} (the lock table itself never blocks). *)
type stats = {
  mutable acquires : int;
  mutable blocks : int;
  mutable deadlocks : int;
  mutable wait_ns : int;
  mutable shared_grants : int;
  mutable exclusive_grants : int;
  mutable upgrades : int;
}

val create : unit -> t
val stats : t -> stats
val reset_stats : t -> unit

(** The lock table's counter source, [lock.*] names. *)
val counters : t -> (string * int) list
val add_wait_ns : t -> int -> unit
val begin_txn : t -> txn

type outcome =
  | Granted
  | Blocked of txn list  (** current holders to wait for *)
  | Deadlock of txn list  (** granting the wait would close this cycle *)

(** Request a lock.  Granted locks are recorded; a blocked request is
    registered as a waiter with its waits-for edges (caller retries or
    aborts — re-polling replaces, never accumulates); a request that
    would deadlock registers nothing new.

    Fairness: a Shared request queues behind any waiting Exclusive
    request on an overlapping predicate, unless the requester already
    holds a lock blocking that writer (granting then cannot extend the
    writer's wait).  Upgrade: an Exclusive grant replaces the owner's
    Shared lock on the same predicate. *)
val acquire : t -> txn -> mode -> predicate -> outcome

(** Two-phase release: drop all locks and waits of a transaction. *)
val release_all : t -> txn -> unit

val held_by : t -> txn -> (txn * mode * predicate) list

val lock_count : t -> int

val dump : t -> (txn * mode * predicate) list * (txn * mode * predicate) list * (txn * txn) list
(** One consistent cut of the lock table for introspection
    ([SYS_LOCKS]): granted locks, queued waiters, and the waits-for
    edges [(waiter, holder)].  Call under the mutex that serialises
    {!acquire}/{!release_all}. *)
