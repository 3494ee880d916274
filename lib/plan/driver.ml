(* Execution driver: the one executor of SELECT blocks.  A top-level
   query and every nested SELECT run a {!Planner} plan through the
   volcano operators, with predicate / expression / range evaluation
   delegated to {!Eval}.  A block runs in the environment of its
   enclosing blocks, so a correlated nested block sees the outer tuple.

   Each statement installs an {!Eval.context} whose block runner plans
   a nested block on its first activation and reuses that plan for the
   rest of the statement — the plan depends only on the AST, the catalog
   and the statistics, never on the outer tuple.  Access state (hash
   builds, probes) stays per activation.

   Plan notes come from the top-level block only.  Trace spans: "query"
   for the top-level block, "subquery (<text>)" for a nested one, and
   under each its range spans ("scan T", "join v IN T", "unnest v IN
   p"); quantifier and nested-block spans open under the block's node
   through the context cursor.  The differential test in [test_plan.ml]
   holds results byte-equal across plan shapes, forced-seq included. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module Rel = Nf2_algebra.Rel
module VI = Nf2_index.Value_index
module Tid = Nf2_storage.Tid
module Tr = Nf2_obs.Trace
module Eval = Nf2_lang.Eval
module Rewrite = Nf2_lang.Rewrite
open Nf2_lang.Ast

type access_kind = [ `Seq | `Index | `Intersect ]

let eval_err fmt = Printf.ksprintf (fun s -> raise (Eval.Eval_error s)) fmt

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

(* Execute one planned block.  [outer] binds the enclosing blocks'
   variables ([] at top level); [span] is the trace node this block's
   spans hang from. *)
let execute ?plan_note ?on_access ?span ~(pl : Planner.t) (catalog : Eval.catalog)
    (outer : Eval.env) (q : query) : Rel.t =
  let note s = match plan_note with Some f -> f s | None -> () in
  (* access callbacks carry the range's source table so the sink can
     attribute (or deliberately ignore, for SYS sources) the access *)
  let fire name k = match on_access with Some f -> f name k | None -> () in
  let range_name (r : range) =
    match r.source with Table_src t -> t | Path_src _ -> ""
  in
  (* typing pass first: result schema, and type errors surface before
     any plan note is emitted *)
  let result_schema =
    Eval.type_query catalog (List.map (fun (v, (tbl, _)) -> (v, tbl)) outer) q
  in
  let order_modes =
    List.map
      (fun (oi : order_item) ->
        match oi.key with
        | Path { var = Some name; steps = [] } -> (
            match Schema.find_field result_schema name with
            | Some (i, _) -> `Column i
            | None -> `Env oi.key)
        | e -> `Env e)
      q.order_by
  in
  let body () =
    (* one access function per FROM range *)
    let mk (r : range) kind : Eval.env -> Schema.table * Value.tuple list =
      match kind with
      | `First (Planner.F_index { name; sets; intersect; _ }) ->
          let st = match catalog name with Some st -> st | None -> assert false in
          let fetch =
            match st.Eval.fetch_root with Some f -> f | None -> assert false
          in
          let table = st.Eval.schema.Schema.table in
          fun _env ->
            let cands =
              match sets with
              | [] -> assert false
              | s0 :: rest ->
                  List.fold_left
                    (fun acc (cs : Planner.cand_set) -> intersect_sorted acc (cs.Planner.cs_probe ()))
                    (s0.Planner.cs_probe ()) rest
            in
            let desc =
              String.concat " & " (List.map (fun cs -> cs.Planner.cs_desc) sets)
            in
            note
              (Printf.sprintf "scan %s via %s -> %d candidate object(s)" name desc
                 (List.length cands));
            fire name (if intersect then `Intersect else `Index);
            (table, Exec.to_list (Exec.index_scan ~fetch cands))
      | `First (Planner.F_range { scan_note; seq }) ->
          fun env ->
            (match scan_note with Some s -> note s | None -> ());
            if seq then fire (range_name r) `Seq;
            Eval.range_tuples catalog env r
      | `Inner (Planner.I_hash { name; ai; probe; join_note }) ->
          let st = match catalog name with Some st -> st | None -> assert false in
          let table = st.Eval.schema.Schema.table in
          let hash =
            lazy
              (Exec.hash_build
                 ~key:(fun tup ->
                   match List.nth tup ai with
                   | Value.Atom a -> Some (Atom.to_key a)
                   | Value.Table _ -> None)
                 (st.Eval.scan ()))
          in
          note join_note;
          fun env -> (
            match try Some (Eval.eval_expr catalog env probe) with Eval.Eval_error _ -> None with
            | Some v -> (
                match Eval.coerce_atom v with
                | Some a -> (table, Lazy.force hash (Atom.to_key a))
                | None -> Eval.range_tuples catalog env r)
            | None ->
                (* probe references a later variable: full scan *)
                Eval.range_tuples catalog env r)
      | `Inner (Planner.I_inl { name; probe; vi; join_note }) ->
          let st = match catalog name with Some st -> st | None -> assert false in
          let table = st.Eval.schema.Schema.table in
          let fetch =
            match st.Eval.fetch_root with Some f -> f | None -> assert false
          in
          note join_note;
          fun env -> (
            match try Some (Eval.eval_expr catalog env probe) with Eval.Eval_error _ -> None with
            | Some v -> (
                match Eval.coerce_atom v with
                | Some a ->
                    fire name `Index;
                    (table, Exec.to_list (Exec.index_scan ~fetch (VI.roots_for vi a)))
                | None -> Eval.range_tuples catalog env r)
            | None -> Eval.range_tuples catalog env r)
      | `Inner (Planner.I_bnl _) ->
          let block =
            lazy
              (fire (range_name r) `Seq;
               Eval.range_tuples catalog [] r)
          in
          fun _env -> Lazy.force block
      | `Inner (Planner.I_range { seq }) ->
          fun env ->
            if seq then fire (range_name r) `Seq;
            Eval.range_tuples catalog env r
    in
    let traced lbl anode access =
      match span with
      | None -> access
      | Some (tr, qn) ->
          let node = Tr.child qn lbl in
          Tr.set_detail node (Plan.annot anode);
          fun env ->
            Tr.timed tr node (fun () ->
                let tbl, tuples = access env in
                Tr.add_rows node (List.length tuples);
                (tbl, tuples))
    in
    let kinds =
      match q.from, pl.Planner.first with
      | [], _ -> []
      | _ :: _, None -> assert false
      | _ :: _, Some f -> `First f :: List.map (fun i -> `Inner i) pl.Planner.inners
    in
    let rec zip4 ranges kinds labels anodes =
      match ranges, kinds, labels, anodes with
      | [], [], [], [] -> []
      | r :: rs, k :: ks, l :: ls, a :: als ->
          (r, traced l a (mk r k)) :: zip4 rs ks ls als
      | _ -> assert false
    in
    let accesses = zip4 q.from kinds pl.Planner.labels pl.Planner.access_nodes in
    let step it (r, access) =
      Exec.flat_map
        (fun env ->
          let tbl, tuples = access env in
          List.map (fun tup -> (r.rvar, (tbl, tup)) :: env) tuples)
        it
    in
    let it = List.fold_left step (Exec.singleton outer) accesses in
    let it =
      match q.where with
      | None -> it
      | Some w -> Exec.filter (fun env -> Eval.eval_pred catalog env w) it
    in
    let emit env =
      let row =
        match q.select with
        | Star ->
            List.concat_map
              (fun r ->
                match Eval.lookup_var env r.rvar with
                | Some (_, tup) -> tup
                | None -> eval_err "unbound range %s" r.rvar)
              q.from
        | Items items -> List.map (fun { expr; _ } -> Eval.eval_expr catalog env expr) items
      in
      let okeys =
        List.map
          (fun mode -> match mode with `Column _ -> Value.null | `Env e -> Eval.eval_expr catalog env e)
          order_modes
      in
      (row, okeys)
    in
    let keyed_rows = Exec.to_list (Exec.map emit it) in
    let rows = List.map fst keyed_rows in
    let rows =
      if q.order_by <> [] then begin
        let key_of (row, _okeys) mode okey : Value.v =
          match mode with
          | `Column i -> (
              match List.nth_opt row i with
              | Some v -> v
              | None -> eval_err "ORDER BY column out of range")
          | `Env _ -> okey
        in
        List.stable_sort
          (fun a b ->
            let rec cmp modes okeys_a okeys_b obs =
              match modes, okeys_a, okeys_b, obs with
              | [], _, _, _ -> 0
              | m :: ms, ka :: kas, kb :: kbs, (oi : order_item) :: ois ->
                  let c = Eval.compare_values (key_of a m ka) (key_of b m kb) in
                  let c = if oi.descending then -c else c in
                  if c <> 0 then c else cmp ms kas kbs ois
              | _ -> 0
            in
            cmp order_modes (snd a) (snd b) q.order_by)
          keyed_rows
        |> List.map fst
      end
      else rows
    in
    let kind = result_schema.Schema.kind in
    let rows =
      if q.distinct || (kind = Schema.Set && q.order_by = []) then Value.dedup rows else rows
    in
    Rel.trusted result_schema { Value.kind; tuples = rows }
  in
  match span with
  | None -> body ()
  | Some (tr, qn) ->
      Eval.with_context
        { (Eval.context ()) with Eval.cursor = Some (tr, qn) }
        (fun () ->
          Tr.timed tr qn (fun () ->
              let rel = body () in
              Tr.add_rows qn (Rel.cardinality rel);
              rel))

(* Run [f] as one statement: a nested SELECT evaluated inside it runs
   through {!execute}, planned once per statement with this statement's
   [stats] and [force_seq], and reporting its accesses to [on_access]. *)
let with_statement ?on_access ?(force_seq = false) ~stats f =
  let plans = ref [] in
  let run_block catalog outer q =
    let pl =
      match List.assq_opt q !plans with
      | Some pl -> pl
      | None ->
          let pl = Planner.plan ~force_seq ~stats catalog q in
          plans := (q, pl) :: !plans;
          pl
    in
    let span =
      match (Eval.context ()).Eval.cursor with
      | None -> None
      | Some (tr, parent) ->
          Some (tr, Tr.child parent ("subquery (" ^ Planner.abbrev (query_to_string q) ^ ")"))
    in
    execute ?on_access ?span ~pl catalog outer q
  in
  Eval.with_context { run_block; Eval.cursor = None } f

(* Plan and execute a top-level query.  Returns the result and the
   chosen plan tree (estimates only — EXPLAIN ANALYZE pairs it with the
   trace's actuals). *)
let run ?plan_note ?trace ?(force_seq = false) ?on_access ?(rewrite = true) ~stats
    (catalog : Eval.catalog) (q : query) : Rel.t * Plan.node =
  let q = if rewrite then Rewrite.rewrite_query q else q in
  let pl = Planner.plan ~force_seq ~stats catalog q in
  let span = Option.map (fun tr -> (tr, Tr.child (Tr.root tr) "query")) trace in
  let rel =
    with_statement ?on_access ~force_seq ~stats (fun () ->
        execute ?plan_note ?on_access ?span ~pl catalog [] q)
  in
  (rel, pl.Planner.tree)

(* Plan without executing: EXPLAIN.  The typing pass still runs (errors
   surface), but no probe and no scan is performed. *)
let explain ?(force_seq = false) ?(rewrite = true) ~stats (catalog : Eval.catalog) (q : query) :
    Plan.node =
  let q = if rewrite then Rewrite.rewrite_query q else q in
  ignore (Eval.type_query catalog [] q);
  (Planner.plan ~force_seq ~stats catalog q).Planner.tree
