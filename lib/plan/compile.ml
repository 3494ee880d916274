(* Compiled query blocks: the one evaluator of the query language.

   A statement is compiled once, before anything executes.  Every tuple
   variable it binds — the FROM ranges of every block, quantifier
   variables, a DML statement's row and elements — gets a slot in one
   frame, an array of tuples.  Every path is resolved against the
   static scope to a slot and field offsets: implicit projection across
   a subtable, list subscripts, and an unqualified attribute bound to
   the innermost variable owning it.  Expressions, predicates,
   quantifiers and ASOF become closures over the frame.  A nested
   SELECT is a sub-block compiled in the same pass: typed and planned
   once per statement, with its access state (hash builds, index
   probes) fresh per activation.  Static errors (an unknown attribute,
   a subscript on a set) compile to code that raises when it runs, so a
   statement fails exactly when the failing code is reached.

   A block's WHERE clause is split into conjuncts.  A conjunct that
   cannot raise — no arithmetic, aggregate, subscript, subquery,
   parameter, boolean-valued expression or ASOF, and every path
   resolved — is checked right after the earliest range that binds all
   the variables it reads.  Any other conjunct is checked after the last
   range.  A pushed conjunct only prunes bindings the whole clause
   would reject, and cannot raise where a check after the last range
   would have answered.

   Trace spans: "query" for the top-level block, "subquery (<text>)"
   for a nested one, under each its range spans ("scan T", "join v IN
   T", "unnest v IN p", each counting "filter.evals", the bindings its
   conjuncts were checked on) and "quantifier ..." spans; subscripts
   count "subscript.evals" on their block's span.  Nested spans open at
   first activation, as the blocks run. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module Rel = Nf2_algebra.Rel
module VI = Nf2_index.Value_index
module Tr = Nf2_obs.Trace
module Eval = Nf2_lang.Eval
open Nf2_lang.Ast

let eval_err fmt = Printf.ksprintf (fun s -> raise (Eval.Eval_error s)) fmt

type frame = Value.tuple array
type access_kind = [ `Seq | `Index | `Intersect ]

(* What a statement's blocks are planned with, and where their accesses
   are reported. *)
type statement = {
  catalog : Eval.catalog;
  stats : Stats.provider;
  force_seq : bool;
  on_access : string -> access_kind -> unit;
}

let statement ?(force_seq = false) ?(on_access = fun _ _ -> ()) ~stats catalog =
  { catalog; stats; force_seq; on_access }

(* A variable in the static scope. *)
type var = { name : string; slot : int; table : Schema.table }

(* What compiling a piece of code learns: the slots it reads, in
   order, and whether it may raise. *)
type track = { mutable reads : int list; mutable risky : bool }

let new_track () = { reads = []; risky = false }

type ctx = {
  st : statement;
  nslots : int ref; (* slots allocated so far in this frame *)
  scope : var list; (* innermost first *)
  cursor : (Tr.t * Tr.node Lazy.t) option; (* span of the enclosing block *)
  track : track;
}

let new_var ctx name table =
  let slot = !(ctx.nslots) in
  incr ctx.nslots;
  { name; slot; table }

let bind ctx v = { ctx with scope = v :: ctx.scope }
let empty_table = { Schema.kind = Schema.Set; fields = [] }

(* --- paths --------------------------------------------------------------- *)

(* A compiled path: a positioned tuple, a value with its schema attr,
   or a static error raised after the path's prefix runs. *)
type cpath =
  | Tup of Schema.table * (frame -> Value.tuple)
  | Val of Schema.attr * (frame -> Value.v)
  | Fail of (frame -> unit) * exn

let fail ctx pre exn =
  ctx.track.risky <- true;
  Fail (pre, exn)

let error fmt = Printf.ksprintf (fun s -> Eval.Eval_error s) fmt
let unknown_attr f = Schema.Schema_error ("unknown attribute " ^ f)

(* A variable by name wins; otherwise the innermost variable owning the
   attribute. *)
let head ctx h : cpath =
  let reads (v : var) = ctx.track.reads <- v.slot :: ctx.track.reads in
  match List.find_opt (fun v -> Schema.same_name v.name h) ctx.scope with
  | Some v ->
      reads v;
      let s = v.slot in
      Tup (v.table, fun fr -> fr.(s))
  | None ->
      let rec search = function
        | [] -> fail ctx ignore (error "unknown variable or attribute %s" h)
        | v :: rest -> (
            match Schema.find_field v.table h with
            | Some (i, fd) ->
                reads v;
                let s = v.slot in
                Val (fd.Schema.attr, fun fr -> List.nth fr.(s) i)
            | None -> search rest)
      in
      search ctx.scope

let rec steps ctx (cur : cpath) (ss : path_step list) : cpath =
  match ss, cur with
  | [], _ | _, Fail _ -> cur
  | Field f :: rest, Tup (tbl, get) -> (
      match Schema.find_field tbl f with
      | Some (i, fd) -> steps ctx (Val (fd.Schema.attr, fun fr -> List.nth (get fr) i)) rest
      | None -> fail ctx (fun fr -> ignore (get fr)) (unknown_attr f))
  | Field f :: rest, Val (Schema.Table sub, get) -> (
      (* implicit projection across the subtable's tuples *)
      match Schema.find_field sub f with
      | Some (i, fd) ->
          let attr =
            Schema.Table { sub with Schema.fields = [ { Schema.name = f; attr = fd.Schema.attr } ] }
          in
          let project fr =
            match get fr with
            | Value.Table inner ->
                Value.Table
                  { inner with Value.tuples = List.map (fun t -> [ List.nth t i ]) inner.Value.tuples }
            | Value.Atom _ -> eval_err "schema mismatch at %s" f
          in
          steps ctx (Val (attr, project)) rest
      | None -> fail ctx (fun fr -> ignore (get fr)) (unknown_attr f))
  | Field f :: _, Val (Schema.Atomic _, get) ->
      fail ctx (fun fr -> ignore (get fr)) (error "cannot select attribute %s of an atomic value" f)
  | Subscript i :: rest, _ -> (
      ctx.track.risky <- true;
      let count =
        match ctx.cursor with
        | None -> ignore
        | Some (_, node) -> fun () -> Tr.add_counter (Lazy.force node) "subscript.evals" 1
      in
      match cur with
      | Val (Schema.Table ({ Schema.kind = Schema.List; _ } as sub), get) ->
          let element fr =
            count ();
            match get fr with
            | Value.Table inner -> (
                match List.nth_opt inner.Value.tuples (i - 1) with
                | Some tup -> tup
                | None -> eval_err "subscript [%d] out of range" i)
            | Value.Atom _ -> eval_err "subscript on a non-table value"
          in
          steps ctx (Tup (sub, element)) rest
      | Val (attr, get) ->
          let msg =
            match attr with
            | Schema.Table _ -> "subscript on an unordered table"
            | Schema.Atomic _ -> "subscript on a non-table value"
          in
          fail ctx (fun fr -> ignore (get fr); count ()) (Eval.Eval_error msg)
      | Tup (_, get) ->
          fail ctx (fun fr -> ignore (get fr); count ()) (error "subscript on a non-table value")
      | Fail _ -> cur)

let path ctx (p : path) : cpath =
  match p.var with
  | None -> fail ctx ignore (error "path without head")
  | Some h -> steps ctx (head ctx h) p.steps

(* A positioned tuple reads as a one-tuple table (so Example 8's
   x.AUTHORS[1] can be compared). *)
let value_of : cpath -> frame -> Value.v = function
  | Val (_, get) -> get
  | Tup (tbl, get) ->
      let kind = tbl.Schema.kind in
      fun fr -> Value.Table { Value.kind; tuples = [ get fr ] }
  | Fail (pre, exn) ->
      fun fr ->
        pre fr;
        raise exn

(* --- expressions, predicates, ranges, blocks ------------------------------ *)

let rec expr ctx (e : expr) : frame -> Value.v =
  match e with
  | Const a ->
      let v = Value.Atom a in
      fun _ -> v
  | Path p -> value_of (path ctx p)
  | Param i ->
      ctx.track.risky <- true;
      fun _ -> eval_err "unbound parameter ?%d (use Db.prepare/execute)" i
  | Neg e -> (
      ctx.track.risky <- true;
      let f = expr ctx e in
      fun fr ->
        match f fr with
        | Value.Atom (Atom.Int v) -> Value.Atom (Atom.Int (-v))
        | Value.Atom (Atom.Float v) -> Value.Atom (Atom.Float (-.v))
        | _ -> eval_err "negation of a non-number")
  | Binop (op, a, b) -> (
      ctx.track.risky <- true;
      let fa = expr ctx a in
      let fb = expr ctx b in
      fun fr ->
        match fa fr, fb fr with
        | Value.Atom x, Value.Atom y -> Value.Atom (Eval.atom_arith op x y)
        | _ -> eval_err "arithmetic on table values")
  | Agg (_, None) ->
      ctx.track.risky <- true;
      fun _ -> eval_err "COUNT(*) is only meaningful applied to a table expression"
  | Agg (agg, Some arg) -> (
      ctx.track.risky <- true;
      let f = expr ctx arg in
      fun fr ->
        match f fr with
        | Value.Table tb -> Value.Atom (Eval.eval_agg agg tb)
        | Value.Atom _ -> eval_err "aggregate applied to an atomic value")
  | Subquery q ->
      ctx.track.risky <- true;
      let run = nested_block ctx q in
      fun fr -> Value.Table (run fr).Rel.data

and pred ctx (p : pred) : frame -> bool =
  match p with
  | Cmp (c, a, b) -> (
      let fa = expr ctx a in
      let fb = expr ctx b in
      let cmp fr = Eval.compare_values (fa fr) (fb fr) in
      match c with
      | Eq -> fun fr -> cmp fr = 0
      | Ne -> fun fr -> cmp fr <> 0
      | Lt -> fun fr -> cmp fr < 0
      | Le -> fun fr -> cmp fr <= 0
      | Gt -> fun fr -> cmp fr > 0
      | Ge -> fun fr -> cmp fr >= 0)
  | And (a, b) ->
      let fa = pred ctx a in
      let fb = pred ctx b in
      fun fr -> fa fr && fb fr
  | Or (a, b) ->
      let fa = pred ctx a in
      let fb = pred ctx b in
      fun fr -> fa fr || fb fr
  | Not a ->
      let f = pred ctx a in
      fun fr -> not (f fr)
  | Exists (r, body) ->
      let slot, tuples, body = quantifier ctx "EXISTS" r body in
      fun fr ->
        List.exists
          (fun tup ->
            fr.(slot) <- tup;
            body fr)
          (tuples fr)
  | Forall (r, body) ->
      let slot, tuples, body = quantifier ctx "ALL" r body in
      fun fr ->
        List.for_all
          (fun tup ->
            fr.(slot) <- tup;
            body fr)
          (tuples fr)
  | Contains (e, pat) -> (
      let mask = lazy (Masked.compile pat) in
      let f = expr ctx e in
      let word s = Masked.matches_word (Lazy.force mask) s in
      fun fr ->
        match f fr with
        | Value.Atom (Atom.Str s) -> word s
        | Value.Atom _ -> false
        | Value.Table tb ->
            List.exists
              (List.exists (function Value.Atom (Atom.Str s) -> word s | _ -> false))
              tb.Value.tuples)
  | Bool_expr e -> (
      ctx.track.risky <- true;
      let f = expr ctx e in
      fun fr ->
        match f fr with
        | Value.Atom (Atom.Bool b) -> b
        | _ -> eval_err "predicate expression is not boolean")

(* A quantifier's slot, range and body.  Materializing the range is
   where its storage work happens; one span accumulates every
   activation. *)
and quantifier ctx kind (r : range) body =
  let table, tuples = range_source ctx r in
  let v = new_var ctx r.rvar table in
  let body = pred (bind ctx v) body in
  let tuples =
    match ctx.cursor with
    | None -> tuples
    | Some (tr, block) ->
        let src = match r.source with Table_src n -> n | Path_src p -> path_to_string p in
        let label = Printf.sprintf "quantifier %s %s IN %s" kind r.rvar src in
        let node = lazy (Tr.child (Lazy.force block) label) in
        fun fr ->
          let node = Lazy.force node in
          Tr.timed tr node (fun () ->
              let ts = tuples fr in
              Tr.add_rows node (List.length ts);
              ts)
  in
  (v.slot, tuples, body)

(* A range's element schema and its tuples: a stored table (at its ASOF
   state), or a subtable of a variable in scope. *)
and range_source ctx (r : range) : Schema.table * (frame -> Value.tuple list) =
  let asof = Option.map (expr ctx) r.asof in
  if Option.is_some asof then ctx.track.risky <- true;
  let state fr =
    match asof with
    | None -> Eval.Current
    | Some f -> (
        match f fr with
        | Value.Atom (Atom.Date d) -> Eval.Asof_date d
        | Value.Atom (Atom.Int i) -> Eval.Asof_int i
        | _ -> eval_err "ASOF expression must be a date or integer timestamp")
  in
  let subtable (p : path) ~mismatch ~not_table =
    if Option.is_some asof then
      ( empty_table,
        fun fr ->
          ignore (state fr);
          eval_err "ASOF applies to stored tables only" )
    else
      match path ctx p with
      | Val (Schema.Table sub, get) ->
          ( sub,
            fun fr ->
              match get fr with
              | Value.Table inner -> inner.Value.tuples
              | Value.Atom _ -> eval_err "%s" mismatch )
      | cp ->
          ctx.track.risky <- true;
          let v = value_of cp and msg = not_table cp in
          ( empty_table,
            fun fr ->
              ignore (v fr);
              eval_err "%s" msg )
  in
  match r.source with
  | Table_src name -> (
      match ctx.st.catalog name with
      | Some st ->
          let table = st.Eval.schema.Schema.table in
          if Option.is_none asof then (table, fun _ -> st.Eval.scan Eval.Current)
          else (table, fun fr -> st.Eval.scan (state fr))
      | None ->
          (* an unqualified subtable attribute of a variable in scope *)
          let unknown = Printf.sprintf "unknown table or subtable %s" name in
          subtable { var = Some name; steps = [] } ~mismatch:unknown ~not_table:(fun _ -> unknown))
  | Path_src p ->
      let src = path_to_string p in
      subtable p ~mismatch:"schema mismatch in range source" ~not_table:(function
        | Tup _ -> Printf.sprintf "range source %s is a tuple, not a table" src
        | _ -> Printf.sprintf "range source %s is atomic" src)

(* A nested SELECT: its own span under the enclosing block's, opened
   at first activation.  A block that does not type raises when it
   runs, as an unreachable one must not fail the statement. *)
and nested_block ctx (q : query) : frame -> Rel.t =
  let span =
    Option.map
      (fun (tr, parent) ->
        let label = "subquery (" ^ Planner.abbrev (query_to_string q) ^ ")" in
        (tr, lazy (Tr.child (Lazy.force parent) label)))
      ctx.cursor
  in
  match block ctx ~span ~note:None q with
  | _, run -> run
  | exception ((Eval.Eval_error _ | Schema.Schema_error _ | Value.Value_error _) as exn) ->
      fun _ -> raise exn

(* One SELECT block: typed, planned and compiled in the scope of its
   enclosing blocks.  Returns the plan tree and the code of one
   activation. *)
and block ctx ~span ~note (q : query) : Plan.node * (frame -> Rel.t) =
  let st = ctx.st in
  let result_schema = Eval.type_query st.catalog (List.map (fun v -> (v.name, v.table)) ctx.scope) q in
  let ctx = { ctx with cursor = span } in
  (* ranges in order, each source compiled in the scope of the ranges
     before it *)
  let ranges, full =
    List.fold_left
      (fun (acc, c) (r : range) ->
        let table, tuples = range_source c r in
        let v = new_var c r.rvar table in
        ((r, v, c, tuples) :: acc, bind c v))
      ([], ctx) q.from
  in
  let ranges = Array.of_list (List.rev ranges) in
  let n = Array.length ranges in
  let range_of_slot s =
    let rec go i =
      if i = n then None
      else
        let _, v, _, _ = ranges.(i) in
        if v.slot = s then Some i else go (i + 1)
    in
    go 0
  in
  (* WHERE conjuncts, each placed at the earliest range binding what it
     reads *)
  let conjuncts =
    List.map
      (fun c ->
        let track = new_track () in
        let code = pred { full with track } c in
        ctx.track.reads <- track.reads @ ctx.track.reads;
        if track.risky then ctx.track.risky <- true;
        let at =
          if track.risky || n = 0 then Planner.After_all
          else
            Planner.At
              (List.fold_left
                 (fun a s -> match range_of_slot s with Some i -> max a i | None -> a)
                 0 track.reads)
        in
        (c, at, code))
      (match q.where with Some w -> Planner.conjuncts w | None -> [])
  in
  let checks at =
    match List.filter_map (fun (_, a, code) -> if a = at then Some code else None) conjuncts with
    | [] -> None
    | [ c ] -> Some c
    | cs -> Some (fun fr -> List.for_all (fun c -> c fr) cs)
  in
  let pl =
    Planner.plan ~force_seq:st.force_seq
      ~filters:(List.map (fun (c, at, _) -> (c, at)) conjuncts)
      ~stats:st.stats st.catalog q
  in
  let note s = match note with Some f -> f s | None -> () in
  let fire name kind = st.on_access name kind in
  (* a join probe, when its value is the one the conjunct compares:
     it may not raise, and resolves in the range's scope exactly as in
     the block's *)
  let probe_in c e =
    let t1 = new_track () and t2 = new_track () in
    let code = expr { c with track = t1 } e in
    let (_ : frame -> Value.v) = expr { full with track = t2 } e in
    if t1.risky || t1.reads <> t2.reads then None else Some code
  in
  let stored name = match st.catalog name with Some s -> s | None -> assert false in
  (* per range: the access of one activation, made fresh per activation *)
  let access i kind : unit -> frame -> Value.tuple list =
    let r, _, c, tuples = ranges.(i) in
    let table_name = match r.source with Table_src t -> t | Path_src _ -> "" in
    match kind with
    | `First (Planner.F_index { name; sets; intersect; fetch; _ }) ->
        fun () _ ->
          let cands = Planner.probe_sets sets in
          let desc = String.concat " & " (List.map (fun cs -> cs.Planner.cs_desc) sets) in
          note (Printf.sprintf "scan %s via %s -> %d candidate object(s)" name desc (List.length cands));
          fire name (if intersect then `Intersect else `Index);
          List.map fetch cands
    | `First (Planner.F_range { scan_note; seq }) ->
        fun () fr ->
          Option.iter note scan_note;
          if seq then fire table_name `Seq;
          tuples fr
    | `Inner (Planner.I_hash { name; ai; probe; join_note }) -> (
        let scan () = (stored name).Eval.scan Eval.Current in
        match probe_in c probe with
        | None ->
            fun () ->
              note join_note;
              tuples
        | Some probe ->
            fun () ->
              note join_note;
              let hash =
                lazy
                  (Exec.hash_build
                     ~key:(fun tup ->
                       match List.nth tup ai with
                       | Value.Atom a -> Some (Atom.to_key a)
                       | Value.Table _ -> None)
                     (scan ()))
              in
              fun fr ->
                match Eval.coerce_atom (probe fr) with
                | Some a -> Lazy.force hash (Atom.to_key a)
                | None -> tuples fr)
    | `Inner (Planner.I_inl { name; probe; vi; fetch; join_note }) -> (
        match probe_in c probe with
        | None ->
            fun () ->
              note join_note;
              tuples
        | Some probe ->
            fun () ->
              note join_note;
              fun fr ->
                match Eval.coerce_atom (probe fr) with
                | Some a ->
                    fire name `Index;
                    List.map fetch (VI.roots_for vi a)
                | None -> tuples fr)
    | `Inner (Planner.I_bnl _) -> (
        (* the inner materialized once per activation *)
        fun () ->
          let block = ref None in
          fun fr ->
            match !block with
            | Some ts -> ts
            | None ->
                fire table_name `Seq;
                let ts = tuples fr in
                block := Some ts;
                ts)
    | `Inner (Planner.I_range { seq }) ->
        fun () fr ->
          if seq then fire table_name `Seq;
          tuples fr
  in
  let kinds =
    match q.from, pl.Planner.first with
    | [], _ -> []
    | _ :: _, None -> assert false
    | _ :: _, Some f -> `First f :: List.map (fun i -> `Inner i) pl.Planner.inners
  in
  let makers = Array.of_list (List.mapi access kinds) in
  let labels = Array.of_list pl.Planner.labels and anodes = Array.of_list pl.Planner.access_nodes in
  let slots = Array.map (fun (_, v, _, _) -> v.slot) ranges in
  let filters = Array.init n (fun i -> checks (Planner.At i)) in
  let final = checks Planner.After_all in
  (* the select list and ORDER BY keys, in the scope of every range *)
  let row : frame -> Value.tuple =
    match q.select with
    | Star ->
        let parts =
          List.map
            (fun (r : range) ->
              match List.find_opt (fun v -> Schema.same_name v.name r.rvar) full.scope with
              | Some v ->
                  let s = v.slot in
                  fun fr -> fr.(s)
              | None -> fun _ -> eval_err "unbound range %s" r.rvar)
            q.from
        in
        fun fr -> List.concat_map (fun part -> part fr) parts
    | Items items ->
        let items = List.map (fun { expr = e; _ } -> expr full e) items in
        fun fr -> List.map (fun f -> f fr) items
  in
  let order_modes =
    List.map
      (fun (oi : order_item) ->
        match oi.key with
        | Path { var = Some name; steps = [] } -> (
            match Schema.find_field result_schema name with
            | Some (i, _) -> `Column i
            | None -> `Key (expr full oi.key))
        | e -> `Key (expr full e))
      q.order_by
  in
  let okeys fr = List.map (function `Column _ -> Value.null | `Key f -> f fr) order_modes in
  let sorted keyed =
    if q.order_by = [] then List.map fst keyed
    else
      let key (row, _) mode okey =
        match mode with
        | `Column i -> (
            match List.nth_opt row i with Some v -> v | None -> eval_err "ORDER BY column out of range")
        | `Key _ -> okey
      in
      let rec cmp a b modes ka kb (obs : order_item list) =
        match modes, ka, kb, obs with
        | m :: ms, x :: ka, y :: kb, oi :: obs ->
            let c = Eval.compare_values (key a m x) (key b m y) in
            let c = if oi.descending then -c else c in
            if c <> 0 then c else cmp a b ms ka kb obs
        | _ -> 0
      in
      List.stable_sort (fun a b -> cmp a b order_modes (snd a) (snd b) q.order_by) keyed |> List.map fst
  in
  let kind = result_schema.Schema.kind in
  let dedup = q.distinct || (kind = Schema.Set && q.order_by = []) in
  let activation fr =
    let accesses = Array.map (fun mk -> mk ()) makers in
    let evals = Array.make (n + 1) 0 in
    let accesses =
      match span with
      | None -> accesses
      | Some (tr, qn) ->
          let qn = Lazy.force qn in
          Array.mapi
            (fun i access ->
              let node = Tr.child qn labels.(i) in
              Tr.set_detail node (Plan.annot anodes.(i));
              fun fr ->
                Tr.timed tr node (fun () ->
                    let ts = access fr in
                    Tr.add_rows node (List.length ts);
                    ts))
            accesses
    in
    let out = ref [] in
    let emit () =
      let r = row fr in
      out := (r, okeys fr) :: !out
    in
    let rec loop i =
      if i = n then (
        match final with
        | None -> emit ()
        | Some f ->
            evals.(n) <- evals.(n) + 1;
            if f fr then emit ())
      else
        let slot = slots.(i) and next = i + 1 in
        match filters.(i) with
        | None ->
            List.iter
              (fun tup ->
                fr.(slot) <- tup;
                loop next)
              (accesses.(i) fr)
        | Some f ->
            List.iter
              (fun tup ->
                fr.(slot) <- tup;
                evals.(i) <- evals.(i) + 1;
                if f fr then loop next)
              (accesses.(i) fr)
    in
    loop 0;
    (match span with
    | None -> ()
    | Some (_, qn) ->
        let qn = Lazy.force qn in
        Array.iteri
          (fun i f -> if Option.is_some f then Tr.add_counter (Tr.child qn labels.(i)) "filter.evals" evals.(i))
          filters;
        if Option.is_some final then Tr.add_counter qn "filter.evals" evals.(n));
    let rows = sorted (List.rev !out) in
    let rows = if dedup then Value.dedup rows else rows in
    Rel.trusted result_schema { Value.kind; tuples = rows }
  in
  let run =
    match span with
    | None -> activation
    | Some (tr, qn) ->
        fun fr ->
          let qn = Lazy.force qn in
          Tr.timed tr qn (fun () ->
              let rel = activation fr in
              Tr.add_rows qn (Rel.cardinality rel);
              rel)
  in
  (pl.Planner.tree, run)

(* --- entry points ------------------------------------------------------------ *)

let fresh_ctx st = { st; nslots = ref 0; scope = []; cursor = None; track = new_track () }

(* A top-level query: its plan tree, and its code.  [span] is the node
   its spans hang from; [note] receives the top-level plan notes. *)
let query st ?span ?note (q : query) : Plan.node * (unit -> Rel.t) =
  let ctx = fresh_ctx st in
  let span = Option.map (fun (tr, node) -> (tr, Lazy.from_val node)) span in
  let tree, run = block ctx ~span ~note q in
  let frame = Array.make !(ctx.nslots) [] in
  (tree, fun () -> run frame)

(* Code in a DML statement's scope: [scope] names its variables (the
   row, the elements around it), innermost first; the compiled code
   takes their tuples in the same order. *)
let in_scope st (scope : (string * Schema.table) list) compile : Value.tuple list -> 'a =
  let ctx = fresh_ctx st in
  let vars = List.map (fun (name, table) -> new_var ctx name table) scope in
  let code = compile { ctx with scope = vars } in
  let frame = Array.make !(ctx.nslots) [] in
  fun tuples ->
    List.iter2 (fun (v : var) tup -> frame.(v.slot) <- tup) vars tuples;
    code frame

let pred_in st scope (p : pred) = in_scope st scope (fun ctx -> pred ctx p)
let expr_in st scope (e : expr) = in_scope st scope (fun ctx -> expr ctx e)
