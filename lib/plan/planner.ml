(* Cost-based access-path selection over the Section 4.2 index
   repertoire, for every SELECT block (nested blocks included).

   The planner alone decides what is sargable: equality / inequality on
   an indexed path, quantifier chains ending in an indexed equality,
   CONTAINS with a text index, and the Fig 7b same-subobject
   conjunction answered by hierarchical-address prefix join.  Instead
   of executing the probes it prices them against a sequential scan
   using the table's row count and the index's distinct-key count (see
   {!Cost}).  Probes are deferred behind closures, so building a plan —
   including for EXPLAIN — touches no storage.

   Multi-index conjunctions become an intersection of candidate sets;
   the prefix-join set is itself a per-subobject intersection decided
   on index addresses alone (the paper's P2 = F2 evaluation).  The
   strawman Data_tid strategy is priced at the full table scan its
   root-resolution requires, so the cost comparison rules it out —
   exactly the paper's argument, made by the optimizer instead of by
   fiat. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module VI = Nf2_index.Value_index
module TI = Nf2_index.Text_index
module Tid = Nf2_storage.Tid
module Eval = Nf2_lang.Eval
open Nf2_lang.Ast

let up = String.uppercase_ascii
let abbrev s = if String.length s > 48 then String.sub s 0 45 ^ "..." else s
let dotted sp = String.concat "." sp

(* --- sargable shapes ------------------------------------------------- *)

let rec conjuncts = function And (a, b) -> conjuncts a @ conjuncts b | p -> [ p ]

(* [e] as a subscript-free attribute path of variable [v]: its fields. *)
let field_path v = function
  | Path { var = Some h; steps } when up h = up v ->
      let rec fields acc = function
        | [] -> Some (List.rev acc)
        | Field f :: rest -> fields (f :: acc) rest
        | Subscript _ :: _ -> None
      in
      fields [] steps
  | _ -> None

(* [p] seen as [v.path = const]. *)
let eq_on_var v (p : pred) : (string list * Atom.t) option =
  match p with
  | Cmp (Eq, a, Const c) | Cmp (Eq, Const c, a) -> Option.map (fun sp -> (sp, c)) (field_path v a)
  | _ -> None

(* [p] seen as an inequality on an attribute path of [v]: (path, lower,
   upper), inclusive; the strict comparisons widen to inclusive bounds
   (the residual filter re-checks, so a superset is safe). *)
let range_on_var v (p : pred) : (string list * Atom.t option * Atom.t option) option =
  match p with
  | Cmp ((Lt | Le), a, Const c) | Cmp ((Gt | Ge), Const c, a) ->
      Option.map (fun sp -> (sp, None, Some c)) (field_path v a)
  | Cmp ((Gt | Ge), a, Const c) | Cmp ((Lt | Le), Const c, a) ->
      Option.map (fun sp -> (sp, Some c, None)) (field_path v a)
  | _ -> None

(* [p] seen as a quantifier chain from [v] ending in an equality:
   EXISTS y IN v.A: EXISTS z IN y.B: z.C = const  ->  ([A;B;C], const).
   Also detects the Fig 7b same-subobject conjunction:
   EXISTS y IN v.A: (y.P = c1 AND EXISTS z IN y.B: z.C = c2)
   -> `Conj (([A;P], c1), ([A;B;C], c2)). *)
let indexable_shapes v (p : pred) :
    [ `Single of string list * Atom.t | `Conj of (string list * Atom.t) * (string list * Atom.t) ]
    list =
  let rec chain outer_var prefix (p : pred) =
    match eq_on_var outer_var p with
    | Some (sp, c) -> [ `Single (prefix @ sp, c) ]
    | None -> (
        match p with
        | Exists ({ rvar; source = Path_src { var = Some h; steps = [ Field a ] }; asof = None }, body)
          when up h = up outer_var -> (
            let deeper = chain rvar (prefix @ [ a ]) body in
            if deeper <> [] then deeper
            else
              match body with
              | And (l, r) -> (
                  let shapes side = chain rvar (prefix @ [ a ]) side in
                  match shapes l, shapes r with
                  | [ `Single s1 ], [ `Single s2 ] -> [ `Conj (s1, s2) ]
                  | [ `Single s1 ], [] -> [ `Single s1 ]
                  | [], [ `Single s2 ] -> [ `Single s2 ]
                  | _ -> [])
              | _ -> [])
        | _ -> [])
  in
  match p with Exists _ | Cmp _ -> chain v [] p | _ -> []

(* [p] seen as [CONTAINS (v.path, pattern)]. *)
let contains_shape v (p : pred) : (string list * string) option =
  match p with
  | Contains (e, pat) -> Option.map (fun sp -> (sp, pat)) (field_path v e)
  | _ -> None

(* The index on exactly this attribute path (case-insensitive). *)
let find_path sp l =
  let norm p = List.map up p in
  List.find_opt (fun (ip, _) -> norm ip = norm sp) l |> Option.map snd

let find_index (st : Eval.source_table) sp =
  Option.bind st.Eval.index (fun ix -> find_path sp ix.Eval.indexes)

let find_text_index (st : Eval.source_table) sp =
  Option.bind st.Eval.index (fun ix -> find_path sp ix.Eval.text_indexes)

(* One sargable conjunct with a deferred probe: planning prices the
   probe without running it. *)
type cand_set = {
  cs_desc : string; (* access-path note fragment, e.g. "index(DNO=5)" *)
  cs_probe : unit -> Tid.t list;
  cs_cost : float; (* cost of collecting the candidate roots *)
  cs_sel : float; (* estimated selectivity of this conjunct *)
}

(* Intersection of candidate-root sets.  Every set is TID-sorted
   without duplicates (the index probes sort-uniq their output), so one
   linear merge gives exactly the elements of [a] found in [b], in
   order. *)
let intersect_sorted (a : Tid.t list) (b : Tid.t list) : Tid.t list =
  let rec go acc a b =
    match a, b with
    | [], _ | _, [] -> List.rev acc
    | x :: xs, y :: ys ->
        let c = Tid.compare x y in
        if c = 0 then go (x :: acc) xs ys else if c < 0 then go acc xs b else go acc a ys
  in
  go [] a b

(* Run a plan's candidate-set probes and intersect their answers. *)
let probe_sets (sets : cand_set list) : Tid.t list =
  match sets with
  | [] -> assert false
  | s0 :: rest -> List.fold_left (fun acc cs -> intersect_sorted acc (cs.cs_probe ())) (s0.cs_probe ()) rest

(* Access decision for the first FROM range. *)
type first =
  | F_index of {
      name : string;
      sets : cand_set list;
      est : int;
      intersect : bool;
      fetch : Tid.t -> Value.tuple;
    }
  | F_range of { scan_note : string option; seq : bool }
      (* the range's own source: a stored-table scan ([seq]), an ASOF
         scan, or an unnest of a subtable *)

(* Access decision for a non-first FROM range. *)
type inner =
  | I_inl of {
      name : string;
      probe : expr;
      vi : VI.t;
      fetch : Tid.t -> Value.tuple;
      join_note : string;
    }
  | I_hash of { name : string; ai : int; probe : expr; join_note : string }
  | I_bnl of { name : string }
  | I_range of { seq : bool }

(* Where the block compiler checks a WHERE conjunct: right after the
   range at this index binds, or after the last range. *)
type placement = At of int | After_all

type t = {
  first : first option; (* [None] iff the query has no FROM ranges *)
  inners : inner list; (* one per non-first range, in range order *)
  labels : string list; (* trace span label per range *)
  access_nodes : Plan.node list; (* per-range access operator, for trace detail *)
  tree : Plan.node;
}

let unnest_fanout = 4 (* subtable cardinality guess: no statistics on nesting *)

let eq_set sp c idx ~rows =
  {
    cs_desc = Printf.sprintf "index(%s=%s)" (dotted sp) (Atom.to_string c);
    cs_probe = (fun () -> VI.roots_for idx c);
    cs_cost = Cost.probe_cost idx ~rows;
    cs_sel = Cost.sel_eq idx;
  }

(* Candidate sets for the first range's WHERE, one per sargable
   conjunct, with the probes deferred and each set priced. *)
let enumerate (st : Eval.source_table) (r : range) (w : pred) ~rows : cand_set list =
  List.filter_map
    (fun conj ->
      match indexable_shapes r.rvar conj with
      | [ `Conj ((sp1, c1), (sp2, c2)) ] -> (
          match find_index st sp1, find_index st sp2 with
          | Some i1, Some i2
            when VI.strategy i1 = VI.Hierarchical && VI.strategy i2 = VI.Hierarchical ->
              Some
                {
                  cs_desc =
                    Printf.sprintf "prefix-join(%s=%s, %s=%s)" (dotted sp1) (Atom.to_string c1)
                      (dotted sp2) (Atom.to_string c2);
                  cs_probe = (fun () -> VI.prefix_join i1 c1 i2 c2);
                  cs_cost = Cost.descend i1 +. Cost.descend i2;
                  cs_sel = Cost.sel_eq i1 *. Cost.sel_eq i2;
                }
          | Some i1, _ -> Some (eq_set sp1 c1 i1 ~rows)
          | _, Some i2 -> Some (eq_set sp2 c2 i2 ~rows)
          | None, None -> None)
      | [ `Single (sp, c) ] -> (
          match find_index st sp with
          | Some idx -> Some (eq_set sp c idx ~rows)
          | None -> None)
      | _ -> (
          match range_on_var r.rvar conj with
          | Some (sp, lo, hi) -> (
              match find_index st sp with
              | Some idx when VI.strategy idx <> VI.Data_tid ->
                  let bound = function None -> "·" | Some a -> Atom.to_string a in
                  Some
                    {
                      cs_desc =
                        Printf.sprintf "index-range(%s in [%s, %s])" (dotted sp) (bound lo)
                          (bound hi);
                      cs_probe = (fun () -> VI.roots_in_range idx ?lo ?hi ());
                      cs_cost = Cost.descend idx;
                      cs_sel = Cost.sel_range;
                    }
              | _ -> None)
          | None -> (
              match contains_shape r.rvar conj with
              | Some (sp, pat) -> (
                  match find_text_index st sp with
                  | Some ti ->
                      Some
                        {
                          cs_desc =
                            Printf.sprintf "text-index(%s CONTAINS '%s')" (dotted sp) pat;
                          cs_probe = (fun () -> TI.roots_matching ti pat);
                          cs_cost = Cost.c_text_probe;
                          cs_sel = Cost.sel_text;
                        }
                  | None -> None)
              | None -> None)))
    (conjuncts w)

let rec expr_mentions v = function
  | Path { var = Some h; _ } -> up h = up v
  | Path { var = None; _ } | Const _ | Param _ -> false
  | Neg e -> expr_mentions v e
  | Binop (_, a, b) -> expr_mentions v a || expr_mentions v b
  | Agg (_, Some e) -> expr_mentions v e
  | Agg (_, None) -> false
  | Subquery _ -> true (* conservative: do not hash-join through subqueries *)

(* Equality conjunct joining range [r] to variables bound before it:
   the probe side of a hash or index-nested-loop join.  The probe may
   mention neither [r] nor a range after it ([later]): an enclosing
   block can bind the same name, and the probe would read that binding
   instead of failing over to a scan. *)
let equi_for_range conjs (r : range) ~later =
  let bound_before e = not (List.exists (fun (l : range) -> expr_mentions l.rvar e) (r :: later)) in
  List.find_map
    (fun c ->
      match c with
      | Cmp (Eq, Path { var = Some v; steps = [ Field a ] }, other)
        when up v = up r.rvar && bound_before other ->
          Some (a, other)
      | Cmp (Eq, other, Path { var = Some v; steps = [ Field a ] })
        when up v = up r.rvar && bound_before other ->
          Some (a, other)
      | _ -> None)
    conjs

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* [filters]: each WHERE conjunct with where it is checked, as the
   block compiler placed it (the tree shows one filter per place). *)
let plan ?(force_seq = false) ~filters ~(stats : Stats.provider) (catalog : Eval.catalog) (q : query) :
    t =
  let rows_of name = Option.map (fun (s : Stats.t) -> s.Stats.rows) (stats name) in
  let conjs = match q.where with Some w -> conjuncts w | None -> [] in
  (* the conjuncts checked at [at], as one filter node over [n]; a
     filter inside the join tree keeps its input's estimate *)
  let filter_node ?est at label n =
    match List.filter_map (fun (c, a) -> if a = at then Some c else None) filters with
    | [] -> n
    | c :: cs ->
        let w = List.fold_left (fun a b -> And (a, b)) c cs in
        Plan.node ~children:[ n ]
          ~detail:(label ^ ": " ^ abbrev (pred_to_string w))
          ~est_rows:(Option.value est ~default:n.Plan.est_rows)
          ~cost:n.Plan.cost "filter"
  in
  let lookup (r : range) =
    match r.source with
    | Table_src name -> Option.map (fun st -> (name, st)) (catalog name)
    | Path_src _ -> None
  in
  let label i (r : range) stored =
    match r.source, stored with
    | Path_src p, _ -> Printf.sprintf "unnest %s IN %s" r.rvar (path_to_string p)
    | Table_src name, None -> Printf.sprintf "unnest %s IN %s" r.rvar name
    | Table_src name, Some _ ->
        if i = 0 then Printf.sprintf "scan %s" (up name)
        else Printf.sprintf "join %s IN %s" r.rvar (up name)
  in
  let scan_node ?(op = "seq-scan") name rows =
    let est = Option.value rows ~default:1 in
    Plan.node ~detail:(up name) ~est_rows:est ~cost:(Cost.seq_scan ~rows:(max 0 est)) op
  in
  let unnest_node (r : range) =
    let src =
      match r.source with Path_src p -> path_to_string p | Table_src name -> name
    in
    Plan.node
      ~detail:(Printf.sprintf "%s IN %s" r.rvar src)
      ~est_rows:unnest_fanout
      ~cost:(float_of_int unnest_fanout *. Cost.c_row)
      "unnest"
  in
  (* --- the first range: where the index choice happens --------------- *)
  let first_of (r : range) stored : first * Plan.node =
    match stored with
    | None -> (F_range { scan_note = None; seq = false }, unnest_node r)
    | Some (name, st) -> (
        let rows = rows_of name in
        if r.asof <> None then (F_range { scan_note = None; seq = true }, scan_node ~op:"asof-scan" name rows)
        else
          match q.where with
          | None -> (F_range { scan_note = None; seq = true }, scan_node name rows)
          | Some w -> (
              let seq_fallback () =
                ( F_range { scan_note = Some (Printf.sprintf "full scan of %s" name); seq = true },
                  scan_node name rows )
              in
              match st.Eval.index with
              | Some ix when not force_seq -> (
                  match enumerate st r w ~rows with
                  | [] -> seq_fallback ()
                  | sets ->
                      let probes = List.fold_left (fun a c -> a +. c.cs_cost) 0.0 sets in
                      let sel = List.fold_left (fun a c -> a *. c.cs_sel) 1.0 sets in
                      let est =
                        match rows with Some n -> Cost.est_rows ~rows:n sel | None -> 1
                      in
                      let cost_index = Cost.index_access ~probes ~est in
                      let cost_seq =
                        match rows with Some n -> Cost.seq_scan ~rows:n | None -> infinity
                      in
                      if cost_index < cost_seq then
                        let intersect =
                          List.length sets > 1
                          || List.exists (fun c -> starts_with ~prefix:"prefix-join" c.cs_desc) sets
                        in
                        let op = if intersect then "index-intersect" else "index-scan" in
                        let detail =
                          Printf.sprintf "%s via %s" (up name)
                            (String.concat " & " (List.map (fun c -> c.cs_desc) sets))
                        in
                        ( F_index { name; sets; est; intersect; fetch = ix.Eval.fetch },
                          Plan.node ~detail ~est_rows:est ~cost:cost_index op )
                      else seq_fallback ())
              | _ -> seq_fallback ()))
  in
  (* --- non-first ranges: join strategy ------------------------------- *)
  let inner_of (r : range) stored ~later ~outer_est : inner * Plan.node * string * int * float =
    (* returns (decision, inner access node, join op+detail, join est, join cost delta) *)
    let plain ~seq node op =
      let rows_each = node.Plan.est_rows in
      let est = max 1 outer_est * max 1 rows_each in
      (I_range { seq }, node, op, est, (float_of_int (max 1 outer_est) *. node.Plan.cost) +. (float_of_int est *. Cost.c_emit))
    in
    match stored, r.asof with
    | None, _ -> plain ~seq:false (unnest_node r) "nl-join"
    | Some (name, _), Some _ -> plain ~seq:true (scan_node ~op:"asof-scan" name (rows_of name)) "nl-join"
    | Some (name, st), None -> (
        let rows = rows_of name in
        let rows_i = max 1 (Option.value rows ~default:1) in
        if force_seq then plain ~seq:true (scan_node name rows) "nl-join"
        else
          match equi_for_range conjs r ~later with
          | None ->
              (* no equi-join conjunct: materialize the inner once *)
              let node = scan_node name rows in
              let est = max 1 outer_est * rows_i in
              ( I_bnl { name },
                node,
                "bnl-join",
                est,
                node.Plan.cost +. (float_of_int est *. Cost.c_emit) )
          | Some (attr, probe) -> (
              match Schema.find_field st.Eval.schema.Schema.table attr with
              | Some (ai, { Schema.attr = Schema.Atomic _; _ }) -> (
                  let vi_opt =
                    (* index-nested-loop is only order-safe when the final
                       dedup sort normalizes row order (no ORDER BY) *)
                    match find_index st [ attr ], st.Eval.index with
                    | Some vi, Some ix when q.order_by = [] && VI.strategy vi <> VI.Data_tid ->
                        Some (vi, ix.Eval.fetch)
                    | _ -> None
                  in
                  let hash_case () =
                    let distinct =
                      match find_index st [ attr ] with
                      | Some vi -> max 1 (VI.key_count vi)
                      | None -> min rows_i 10
                    in
                    let m = max 1 (rows_i / max 1 distinct) in
                    let est = max 1 outer_est * m in
                    let build =
                      Plan.node
                        ~detail:(Printf.sprintf "build %s on %s" (up name) (up attr))
                        ~est_rows:rows_i
                        ~cost:(Cost.seq_scan ~rows:rows_i +. (float_of_int rows_i *. Cost.c_emit))
                        "hash-agg"
                    in
                    ( I_hash
                        { name; ai; probe; join_note = Printf.sprintf "hash join %s on %s" name attr },
                      build,
                      "hash-join",
                      est,
                      build.Plan.cost
                      +. (float_of_int (max 1 outer_est) *. Cost.c_probe)
                      +. (float_of_int est *. Cost.c_emit) )
                  in
                  match vi_opt with
                  | Some (vi, fetch) ->
                      let m = max 1 (rows_i / max 1 (VI.key_count vi)) in
                      let per_probe =
                        Cost.descend vi +. (float_of_int m *. (Cost.c_post +. Cost.c_fetch))
                      in
                      let cost_inl = float_of_int (max 1 outer_est) *. per_probe in
                      let _, _, _, _, cost_hash = hash_case () in
                      if cost_inl < cost_hash then
                        let est = max 1 outer_est * m in
                        let node =
                          Plan.node
                            ~detail:(Printf.sprintf "%s via index(%s=?)" (up name) (up attr))
                            ~est_rows:m ~cost:per_probe "index-scan"
                        in
                        ( I_inl
                            {
                              name;
                              probe;
                              vi;
                              fetch;
                              join_note = Printf.sprintf "index join %s on %s" name attr;
                            },
                          node,
                          "index-nl-join",
                          est,
                          cost_inl +. (float_of_int est *. Cost.c_emit) )
                      else hash_case ()
                  | None -> hash_case ())
              | _ -> plain ~seq:true (scan_node name rows) "nl-join"))
  in
  (* --- assemble the tree --------------------------------------------- *)
  match q.from with
  | [] ->
      let base = Plan.node ~est_rows:1 ~cost:Cost.c_emit "values" in
      let tree =
        let n, est = (base, 1) in
        let n = filter_node After_all "after all ranges" n in
        let n =
          Plan.node ~children:[ n ] ~detail:"*" ~est_rows:est
            ~cost:(n.Plan.cost +. (float_of_int est *. Cost.c_emit))
            "project"
        in
        n
      in
      { first = None; inners = []; labels = []; access_nodes = []; tree }
  | r0 :: rest ->
      let stored0 = lookup r0 in
      let f, fnode = first_of r0 stored0 in
      let labels = ref [ label 0 r0 stored0 ] in
      let access_nodes = ref [ fnode ] in
      let inners = ref [] in
      let acc = ref (filter_node (At 0) ("at " ^ r0.rvar) fnode) and acc_est = ref fnode.Plan.est_rows in
      List.iteri
        (fun i r ->
          let stored = lookup r in
          labels := label (i + 1) r stored :: !labels;
          let later = List.filteri (fun j _ -> j > i) rest in
          let inner, child, join_op, est, cost_delta = inner_of r stored ~later ~outer_est:!acc_est in
          access_nodes := child :: !access_nodes;
          inners := inner :: !inners;
          let detail =
            match r.source with
            | Table_src name when stored <> None -> Printf.sprintf "%s IN %s" r.rvar (up name)
            | Table_src name -> Printf.sprintf "%s IN %s" r.rvar name
            | Path_src p -> Printf.sprintf "%s IN %s" r.rvar (path_to_string p)
          in
          let node =
            Plan.node
              ~children:[ !acc; child ]
              ~detail ~est_rows:est
              ~cost:(!acc.Plan.cost +. cost_delta)
              join_op
          in
          acc := filter_node (At (i + 1)) ("at " ^ r.rvar) node;
          acc_est := est)
        rest;
      (* filter / project / sort / distinct, in the driver's emission
         order *)
      let est =
        match q.where with
        | None -> !acc_est
        | Some _ ->
            if rest = [] && (match f with F_index _ -> true | _ -> false) then !acc_est
            else if !acc_est = 0 then 0
            else max 1 (!acc_est / 3)
      in
      let n = filter_node ~est After_all "after all ranges" !acc in
      let select_detail =
        match q.select with
        | Star -> "*"
        | Items items ->
            abbrev (String.concat ", " (List.map (fun { expr; _ } -> expr_to_string expr) items))
      in
      let n =
        Plan.node ~children:[ n ] ~detail:select_detail ~est_rows:est
          ~cost:(n.Plan.cost +. (float_of_int est *. Cost.c_emit))
          "project"
      in
      let n =
        if q.order_by = [] then n
        else
          let detail =
            abbrev
              (String.concat ", "
                 (List.map
                    (fun (oi : order_item) ->
                      expr_to_string oi.key ^ if oi.descending then " DESC" else "")
                    q.order_by))
          in
          Plan.node ~children:[ n ] ~detail ~est_rows:est
            ~cost:(n.Plan.cost +. Cost.sort ~rows:est)
            "sort"
      in
      let n =
        if q.distinct || q.order_by = [] then
          Plan.node ~children:[ n ] ~est_rows:est ~cost:(n.Plan.cost +. Cost.sort ~rows:est) "distinct"
        else n
      in
      {
        first = Some f;
        inners = List.rev !inners;
        labels = List.rev !labels;
        access_nodes = List.rev !access_nodes;
        tree = n;
      }
