(* Predicate-oriented locking, after the approach the AIM project
   published for integrated information systems (/DPS82, DPS83/ in the
   paper's references) and names in Section 5 as the concurrency-
   control technique under investigation for the multi-user version of
   the prototype ("we are still investigating advanced concurrency
   control ... /DLPS85/").

   A lock names a *set of (sub)tuples by a predicate* rather than by
   physical identity: the table, an attribute path, and a conjunctive
   restriction per atomic attribute (equality or a closed interval;
   absent attributes are unrestricted).  Two locks conflict when their
   modes conflict and their predicates are *satisfiable together* —
   decided syntactically by interval intersection, which is exact for
   this restricted predicate class.  Predicate locks subsume tuple
   locks (all attributes bound) and table locks (no restriction), and
   avoid the phantom problem that physical locking has with the NF2
   model's set-valued attributes.

   This module is the single-user prototype's groundwork: a lock table
   with conflict detection, shared/exclusive modes, deadlock detection
   by waits-for cycle search, and two-phase release.  Wiring it into a
   multi-threaded engine is exactly the future work the paper scopes
   out. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema

exception Lock_error of string


type mode = Shared | Exclusive

let mode_name = function Shared -> "S" | Exclusive -> "X"

(* Restriction of one atomic attribute. *)
type restriction =
  | Eq of Atom.t
  | Between of Atom.t * Atom.t (* inclusive *)
  | Ge of Atom.t
  | Le of Atom.t

(* A lockable predicate: conjunction of per-attribute restrictions on
   one table (empty list = the whole table). *)
type predicate = { table : string; restrictions : (Schema.path * restriction) list }

let whole_table table = { table; restrictions = [] }

let predicate_to_string p =
  let r_to_s = function
    | Eq a -> "= " ^ Atom.to_string a
    | Between (a, b) -> "in [" ^ Atom.to_string a ^ ", " ^ Atom.to_string b ^ "]"
    | Ge a -> ">= " ^ Atom.to_string a
    | Le a -> "<= " ^ Atom.to_string a
  in
  if p.restrictions = [] then p.table
  else
    p.table ^ "("
    ^ String.concat " AND "
        (List.map (fun (path, r) -> Schema.path_to_string path ^ " " ^ r_to_s r) p.restrictions)
    ^ ")"

(* --- satisfiability of a conjunction of two restrictions ------------- *)

(* Interval view: (lower bound option, upper bound option), inclusive. *)
let bounds = function
  | Eq a -> (Some a, Some a)
  | Between (a, b) -> (Some a, Some b)
  | Ge a -> (Some a, None)
  | Le a -> (None, Some a)

(* Intersect a list of interval restrictions; None = empty. *)
let intersect_all (rs : restriction list) : (Atom.t option * Atom.t option) option =
  let meet (lo, hi) r =
    let lo', hi' = bounds r in
    let lo =
      match lo, lo' with
      | None, x | x, None -> x
      | Some a, Some b -> Some (if Atom.compare a b >= 0 then a else b)
    in
    let hi =
      match hi, hi' with
      | None, x | x, None -> x
      | Some a, Some b -> Some (if Atom.compare a b <= 0 then a else b)
    in
    (lo, hi)
  in
  let lo, hi = List.fold_left meet (None, None) rs in
  match lo, hi with
  | Some l, Some h when Atom.compare l h > 0 -> None
  | _ -> Some (lo, hi)

(* Could some tuple satisfy both predicates?  Exact for this predicate
   class: per attribute, intersect every restriction from either
   predicate (an attribute may be restricted several times within one
   predicate). *)
let predicates_overlap (p1 : predicate) (p2 : predicate) : bool =
  String.uppercase_ascii p1.table = String.uppercase_ascii p2.table
  &&
  let key path = List.map String.uppercase_ascii path in
  let attrs =
    List.sort_uniq compare (List.map (fun (p, _) -> key p) (p1.restrictions @ p2.restrictions))
  in
  List.for_all
    (fun attr ->
      let rs =
        List.filter_map
          (fun (p, r) -> if key p = attr then Some r else None)
          (p1.restrictions @ p2.restrictions)
      in
      intersect_all rs <> None)
    attrs

let modes_conflict m1 m2 = match m1, m2 with Shared, Shared -> false | _ -> true

(* --- lock table --------------------------------------------------------- *)

type txn = int

type granted = { owner : txn; mode : mode; predicate : predicate }

(* Cumulative counters, in the style of the storage tier's stats
   records, so the observability layer can delta-snapshot lock work per
   statement.  [wait_ns] is accumulated by the caller that owns the
   wait loop (the lock table itself never blocks). *)
type stats = {
  mutable acquires : int;  (* requests, including re-entrant no-ops *)
  mutable blocks : int;  (* requests answered Blocked *)
  mutable deadlocks : int;  (* requests answered Deadlock *)
  mutable wait_ns : int;  (* caller-reported time spent blocked *)
  mutable shared_grants : int;  (* Shared locks actually granted *)
  mutable exclusive_grants : int;  (* Exclusive locks actually granted *)
  mutable upgrades : int;  (* own S replaced by X on the same predicate *)
}

(* A registered-but-not-granted request.  Waiters matter for fairness:
   a queued Exclusive request blocks later Shared requests on an
   overlapping predicate, so a stream of readers cannot starve a
   writer. *)
type waiter = { wtxn : txn; wmode : mode; wpredicate : predicate }

type t = {
  mutable granted : granted list;
  mutable waiters : waiter list;
  mutable next_txn : int;
  mutable waits_for : (txn * txn) list; (* waiter, holder *)
  lstats : stats;
}

let create () =
  {
    granted = [];
    waiters = [];
    next_txn = 0;
    waits_for = [];
    lstats =
      {
        acquires = 0;
        blocks = 0;
        deadlocks = 0;
        wait_ns = 0;
        shared_grants = 0;
        exclusive_grants = 0;
        upgrades = 0;
      };
  }

let stats t = t.lstats

let counters t =
  let s = t.lstats in
  [
    ("lock.acquires", s.acquires);
    ("lock.blocks", s.blocks);
    ("lock.deadlocks", s.deadlocks);
    ("lock.wait_ns", s.wait_ns);
    ("lock.shared_acquired", s.shared_grants);
    ("lock.exclusive_acquired", s.exclusive_grants);
    ("lock.upgrades", s.upgrades);
  ]

let reset_stats t =
  t.lstats.acquires <- 0;
  t.lstats.blocks <- 0;
  t.lstats.deadlocks <- 0;
  t.lstats.wait_ns <- 0;
  t.lstats.shared_grants <- 0;
  t.lstats.exclusive_grants <- 0;
  t.lstats.upgrades <- 0

let add_wait_ns t ns = t.lstats.wait_ns <- t.lstats.wait_ns + ns

let begin_txn t : txn =
  t.next_txn <- t.next_txn + 1;
  t.next_txn

(* Locks of other transactions conflicting with the request. *)
let conflicts t ~owner ~mode ~predicate =
  List.filter
    (fun g ->
      g.owner <> owner && modes_conflict g.mode mode && predicates_overlap g.predicate predicate)
    t.granted

type outcome = Granted | Blocked of txn list (* holders *) | Deadlock of txn list (* cycle *)

(* Would adding waiter->holders edges close a waits-for cycle? *)
let would_deadlock t ~waiter ~holders =
  (* the waiter's own outgoing edges are superseded by this request *)
  let edges =
    List.map (fun h -> (waiter, h)) holders
    @ List.filter (fun (a, _) -> a <> waiter) t.waits_for
  in
  let rec reachable from target seen =
    if from = target then true
    else if List.mem from seen then false
    else
      List.exists
        (fun (a, b) -> a = from && reachable b target (from :: seen))
        edges
  in
  List.exists (fun h -> reachable h waiter []) holders

(* Queued Exclusive requests from other transactions that a new Shared
   request must queue behind (writer-starvation fairness).  Exception:
   if this transaction already holds a lock that blocks the queued
   writer, granting it another Shared lock cannot extend the writer's
   wait — and refusing would manufacture a spurious deadlock between
   the two. *)
let fairness_barriers t ~owner ~mode ~predicate =
  if mode <> Shared then []
  else
    List.filter
      (fun w ->
        w.wtxn <> owner && w.wmode = Exclusive
        && predicates_overlap w.wpredicate predicate
        && not
             (List.exists
                (fun g ->
                  g.owner = owner
                  && modes_conflict g.mode w.wmode
                  && predicates_overlap g.predicate w.wpredicate)
                t.granted))
      t.waiters

(* Drop a transaction's queued request and its outgoing waits-for
   edges (a transaction has at most one request in flight). *)
let clear_request t txn =
  t.waiters <- List.filter (fun w -> w.wtxn <> txn) t.waiters;
  t.waits_for <- List.filter (fun (a, _) -> a <> txn) t.waits_for

(* Request a predicate lock.  Granted locks are recorded; a blocked
   request is registered as a waiter together with its waits-for edges
   (the caller decides to retry or abort); a request that would close
   a waits-for cycle reports deadlock and registers nothing new.
   Re-polling a blocked request is idempotent: the waiter entry and
   edge set are replaced, not accumulated. *)
let acquire t (txn : txn) (mode : mode) (predicate : predicate) : outcome =
  t.lstats.acquires <- t.lstats.acquires + 1;
  (* re-entrant: an identical or stronger own lock is a no-op *)
  let own_covers =
    List.exists
      (fun g ->
        g.owner = txn
        && (g.mode = Exclusive || g.mode = mode)
        && predicates_overlap g.predicate predicate
        && g.predicate.restrictions = [] (* own table lock covers everything *)
        || (g.owner = txn && g.predicate = predicate && (g.mode = Exclusive || g.mode = mode)))
      t.granted
  in
  if own_covers then begin
    clear_request t txn;
    Granted
  end
  else
    let cs = conflicts t ~owner:txn ~mode ~predicate in
    let barriers = fairness_barriers t ~owner:txn ~mode ~predicate in
    match cs, barriers with
    | [], [] ->
        (* upgrade: an X grant subsumes the owner's S lock on the same
           predicate — replace rather than stack both modes *)
        (if mode = Exclusive then
           let subsumed, kept =
             List.partition
               (fun g -> g.owner = txn && g.mode = Shared && g.predicate = predicate)
               t.granted
           in
           if subsumed <> [] then begin
             t.lstats.upgrades <- t.lstats.upgrades + 1;
             t.granted <- kept
           end);
        t.granted <- { owner = txn; mode; predicate } :: t.granted;
        (match mode with
        | Shared -> t.lstats.shared_grants <- t.lstats.shared_grants + 1
        | Exclusive -> t.lstats.exclusive_grants <- t.lstats.exclusive_grants + 1);
        clear_request t txn;
        Granted
    | _ ->
        let holders =
          List.sort_uniq Int.compare
            (List.map (fun g -> g.owner) cs @ List.map (fun w -> w.wtxn) barriers)
        in
        if would_deadlock t ~waiter:txn ~holders then begin
          t.lstats.deadlocks <- t.lstats.deadlocks + 1;
          Deadlock holders
        end
        else begin
          t.lstats.blocks <- t.lstats.blocks + 1;
          t.waiters <-
            { wtxn = txn; wmode = mode; wpredicate = predicate }
            :: List.filter (fun w -> w.wtxn <> txn) t.waiters;
          t.waits_for <-
            List.map (fun h -> (txn, h)) holders
            @ List.filter (fun (a, _) -> a <> txn) t.waits_for;
          Blocked holders
        end

(* Two-phase release: a transaction drops all its locks, queued
   requests, and waits at once (commit or abort). *)
let release_all t (txn : txn) =
  t.granted <- List.filter (fun g -> g.owner <> txn) t.granted;
  t.waiters <- List.filter (fun w -> w.wtxn <> txn) t.waiters;
  t.waits_for <- List.filter (fun (a, b) -> a <> txn && b <> txn) t.waits_for

let held_by t (txn : txn) =
  List.filter_map
    (fun g -> if g.owner = txn then Some (g.owner, g.mode, g.predicate) else None)
    t.granted

let lock_count t = List.length t.granted

(* Full state dump for the SYS introspection layer: the caller holds
   the manager mutex, so the three lists are one consistent cut. *)
let dump t =
  ( List.map (fun g -> (g.owner, g.mode, g.predicate)) t.granted,
    List.map (fun w -> (w.wtxn, w.wmode, w.wpredicate)) t.waiters,
    t.waits_for )
