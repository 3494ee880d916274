(* Execution tracing: a tree of spans with counter attribution.

   A trace owns a tree of nodes (one per operator / statement) and a
   list of *counter sources* — thunks reading the current value of the
   storage tier's cumulative stats (buffer-pool hits, WAL bytes, lock
   waits, ...).  Timing a node snapshots every source before and after
   the timed section and accumulates the deltas on the node, so each
   node reports exactly the storage work done while it was open
   (inclusive of its children, like its elapsed time).

   Nodes are found-or-created by (parent, label): an operator that runs
   once per outer tuple (the inner side of a nested-loop join, a
   quantifier range) accumulates all its activations into one node,
   with [calls] recording how many there were.

   The clock is CLOCK_MONOTONIC via bechamel's monotonic_clock stub
   (nanoseconds as int64). *)

type node = {
  label : string;
  mutable detail : string;  (* free-form annotation (planner estimates), "" when unset *)
  mutable rows : int;  (* tuples produced by this operator *)
  mutable calls : int;  (* timed activations *)
  mutable ns : int;  (* elapsed nanoseconds, inclusive *)
  mutable counters : (string * int) list;  (* accumulated deltas, source order *)
  mutable children : node list;  (* newest first; render reverses *)
}

type t = {
  root : node;
  mutable sources : (unit -> (string * int) list) list;  (* registration order *)
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let make_node label = { label; detail = ""; rows = 0; calls = 0; ns = 0; counters = []; children = [] }

let create ?(label = "statement") () = { root = make_node label; sources = [] }
let root t = t.root
let add_source t f = t.sources <- t.sources @ [ f ]

let child parent label =
  match List.find_opt (fun n -> n.label = label) parent.children with
  | Some n -> n
  | None ->
      let n = make_node label in
      parent.children <- n :: parent.children;
      n

let add_rows n k = n.rows <- n.rows + k
let set_detail n d = n.detail <- d

(* Merge a named delta into the node, preserving first-seen order so
   rendering is deterministic. *)
let add_counter n name d =
  if List.mem_assoc name n.counters then
    n.counters <- List.map (fun (k, v) -> if k = name then (k, v + d) else (k, v)) n.counters
  else n.counters <- n.counters @ [ (name, d) ]

let snapshot t : (string * int) list = List.concat_map (fun f -> f ()) t.sources

(* [f] over two lists whose names line up pairwise; [None] as soon as
   they do not. *)
let pairwise f xs ys =
  let rec go acc = function
    | [], [] -> Some (List.rev acc)
    | (k, x) :: xs, (k', y) :: ys when String.equal k k' -> go ((k, f x y) :: acc) (xs, ys)
    | _ -> None
  in
  go [] (xs, ys)

(* Both snapshots come from the same sources in the same order, and a
   node's counters are the names of its first activation, so the usual
   case is one pairwise walk; lookup by name covers a source whose list
   changed shape in between. *)
let accumulate node before after =
  let deltas =
    match pairwise (fun b a -> a - b) before after with
    | Some ds -> ds
    | None ->
        List.map (fun (name, a) -> (name, a - Option.value ~default:0 (List.assoc_opt name before))) after
  in
  match pairwise ( + ) node.counters deltas with
  | Some cs -> node.counters <- cs
  | None -> List.iter (fun (name, d) -> add_counter node name d) deltas

let timed t node f =
  let before = snapshot t in
  let t0 = now_ns () in
  let finish () =
    node.ns <- node.ns + (now_ns () - t0);
    node.calls <- node.calls + 1;
    accumulate node before (snapshot t)
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

(* --- lookup (tests, assertions) ----------------------------------------- *)

let rec find_in n label =
  if n.label = label then Some n else List.find_map (fun c -> find_in c label) n.children

let find t label = find_in t.root label

let elapsed_s n = Float.of_int n.ns /. 1e9

(* --- rendering ----------------------------------------------------------- *)

let fmt_ns ns =
  let s = Float.of_int ns /. 1e9 in
  if s < 1e-3 then Printf.sprintf "%dus" (ns / 1000)
  else if s < 1. then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.3fs" s

(* The root line shows every counter (so a reader always sees the
   pool / WAL numbers, zero or not); child lines elide zero deltas. *)
let node_line ~all_counters n =
  let counters =
    if all_counters then n.counters else List.filter (fun (_, v) -> v <> 0) n.counters
  in
  let cs =
    match counters with
    | [] -> ""
    | cs -> "  " ^ String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%+d" k v) cs)
  in
  let detail = if n.detail = "" then "" else "  [" ^ n.detail ^ "]" in
  Printf.sprintf "%-44s rows=%-6d calls=%-4d time=%-8s%s%s" n.label n.rows n.calls (fmt_ns n.ns) cs
    detail

let render t : string =
  let b = Buffer.create 256 in
  let rec go depth n =
    let pad = String.make (2 * depth) ' ' in
    Buffer.add_string b (pad ^ node_line ~all_counters:(depth = 0) n ^ "\n");
    List.iter (go (depth + 1)) (List.rev n.children)
  in
  go 0 t.root;
  Buffer.contents b

(* Single-line form for log records: nodes separated by " | ",
   nesting shown by ">" markers. *)
let render_compact t : string =
  let b = Buffer.create 128 in
  let rec go depth n =
    if Buffer.length b > 0 then Buffer.add_string b " | ";
    if depth > 0 then Buffer.add_string b (String.make depth '>' ^ " ");
    let counters = List.filter (fun (_, v) -> v <> 0) n.counters in
    Buffer.add_string b
      (Printf.sprintf "%s rows=%d calls=%d time=%s%s" n.label n.rows n.calls (fmt_ns n.ns)
         (String.concat ""
            (List.map (fun (k, v) -> Printf.sprintf " %s=%+d" k v) counters)));
    List.iter (go (depth + 1)) (List.rev n.children)
  in
  go 0 t.root;
  Buffer.contents b
