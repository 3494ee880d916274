(* Physical plan trees.

   A node is one operator of the chosen plan with the planner's
   estimates attached.  The tree is built by {!Planner}, rendered by
   EXPLAIN, and returned alongside the result by {!Driver} so EXPLAIN
   ANALYZE can show estimates next to actuals.  Operator names:

     seq-scan         full scan of a stored table
     index-scan       candidate objects from one value/text index
     index-intersect  candidate intersection across several indexes,
                      including the paper's Fig 7b address-prefix join
     asof-scan        versioned / MVCC time-travel scan
     unnest           iteration over a subtable of a bound variable
     nl-join          naive nested-loop (re-materialize inner per outer)
     bnl-join         block nested-loop (inner materialized once)
     hash-join        inner hashed on the equi-join attribute
     index-nl-join    inner probed through its value index per outer row
     filter           residual predicate re-check
     project          SELECT list evaluation
     sort             ORDER BY
     distinct         set semantics / DISTINCT (sort + dedup)
     hash-agg         hash-join build side: the inner grouped by join key
     shard-scan       one shard's partition of a scattered statement
                      (coordinator only; children are the shard's own plan)
     shard-gather     fan-in over all shard-scan children: union, dedup,
                      or ORDER BY k-way merge (coordinator only) *)

type node = {
  op : string;
  detail : string; (* table, predicate, index description; "" if none *)
  est_rows : int; (* estimated output rows *)
  cost : float; (* estimated cumulative cost, arbitrary units *)
  children : node list;
}

let node ?(children = []) ?(detail = "") ~est_rows ~cost op =
  { op; detail; est_rows = max 0 est_rows; cost; children }

(* The coordinator's driver nodes (lib/shard): one shard-scan per
   scatter leg, one shard-gather fanning them in.  est_rows on the
   gather is the sum of the per-shard estimates the shards' own
   planners reported. *)
let shard_scan ~shard ~addr ~est_rows =
  node ~est_rows ~cost:0. ~detail:(Printf.sprintf "shard=%d %s" shard addr) "shard-scan"

let shard_gather ?(children = []) ~merge ~est_rows () =
  node ~children ~est_rows ~cost:0.
    ~detail:(Printf.sprintf "%d shard(s) merge=%s" (List.length children) merge)
    "shard-gather"

let describe n = if n.detail = "" then n.op else n.op ^ " " ^ n.detail
let annot n = Printf.sprintf "est_rows=%d cost=%.1f" n.est_rows n.cost

let render ?(indent = 0) (t : node) : string =
  let b = Buffer.create 128 in
  let rec go depth n =
    Buffer.add_string b (String.make (indent + (2 * depth)) ' ');
    Buffer.add_string b (Printf.sprintf "%s  (%s)\n" (describe n) (annot n));
    List.iter (go (depth + 1)) n.children
  in
  go 0 t;
  Buffer.contents b

(* Any node in the tree satisfying [p] — used by tests and by Db to
   summarise the access path. *)
let rec exists p n = p n || List.exists (exists p) n.children

let uses_op op_name t = exists (fun n -> n.op = op_name) t
