(* Recursive-descent parser for the AIM-II query language. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
open Lexer
open Ast

exception Parse_error of string

let parse_error fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

type state = { toks : token array; mutable pos : int; mutable nparams : int }

let peek st = if st.pos < Array.length st.toks then Some st.toks.(st.pos) else None
let peek2 st = if st.pos + 1 < Array.length st.toks then Some st.toks.(st.pos + 1) else None

let advance st = st.pos <- st.pos + 1

let next st =
  match peek st with
  | Some t ->
      advance st;
      t
  | None -> parse_error "unexpected end of input"

let expect st t =
  let got = next st in
  if got <> t then parse_error "expected %s, got %s" (token_to_string t) (token_to_string got)

let expect_kw st k =
  match next st with
  | KW k' when k' = k -> ()
  | got -> parse_error "expected %s, got %s" k (token_to_string got)

let accept st t = match peek st with Some t' when t' = t -> advance st; true | _ -> false

let accept_kw st k =
  match peek st with
  | Some (KW k') when k' = k ->
      advance st;
      true
  | _ -> false

let ident st =
  match next st with
  | IDENT s -> s
  (* allow non-reserved-looking keywords as identifiers where harmless *)
  | KW ("DATE" | "TEXT" | "COUNT" | "MIN" | "MAX" | "ROOT" | "DATA" | "ALL") ->
      parse_error "reserved word used as identifier"
  | got -> parse_error "expected identifier, got %s" (token_to_string got)

(* --- paths ------------------------------------------------------------ *)

(* IDENT (('.' IDENT) | ('[' INT ']'))* — the leading ident may be a
   tuple variable or an attribute; the binder decides. *)
let parse_path st =
  let head = ident st in
  let steps = ref [] in
  let continue = ref true in
  while !continue do
    match peek st with
    | Some DOT ->
        advance st;
        steps := Field (ident st) :: !steps
    | Some LBRACKET ->
        advance st;
        (match next st with
        | INT i -> steps := Subscript i :: !steps
        | got -> parse_error "expected integer subscript, got %s" (token_to_string got));
        expect st RBRACKET
    | _ -> continue := false
  done;
  { var = Some head; steps = List.rev !steps }

(* --- expressions ------------------------------------------------------- *)

let rec parse_expr st = parse_additive st

and parse_additive st =
  let lhs = ref (parse_multiplicative st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | Some PLUS ->
        advance st;
        lhs := Binop (Add, !lhs, parse_multiplicative st)
    | Some MINUS ->
        advance st;
        lhs := Binop (Sub, !lhs, parse_multiplicative st)
    | _ -> continue := false
  done;
  !lhs

and parse_multiplicative st =
  let lhs = ref (parse_primary st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | Some STAR ->
        advance st;
        lhs := Binop (Mul, !lhs, parse_primary st)
    | Some SLASH ->
        advance st;
        lhs := Binop (Div, !lhs, parse_primary st)
    | _ -> continue := false
  done;
  !lhs

and parse_primary st =
  match peek st with
  | Some (INT v) ->
      advance st;
      Const (Atom.Int v)
  | Some (FLOAT v) ->
      advance st;
      Const (Atom.Float v)
  | Some (STRING s) ->
      advance st;
      Const (Atom.Str s)
  | Some MINUS ->
      advance st;
      Neg (parse_primary st)
  | Some (KW "TRUE") ->
      advance st;
      Const (Atom.Bool true)
  | Some (KW "FALSE") ->
      advance st;
      Const (Atom.Bool false)
  | Some (KW "NULL") ->
      advance st;
      Const Atom.Null
  | Some (KW "DATE") -> (
      advance st;
      match next st with
      | STRING s -> (
          match Atom.date_of_string s with
          | Some d -> Const d
          | None -> parse_error "invalid date literal '%s'" s)
      | got -> parse_error "expected date string, got %s" (token_to_string got))
  | Some (KW (("COUNT" | "SUM" | "MIN" | "MAX" | "AVG") as k)) ->
      advance st;
      expect st LPAREN;
      let arg = if accept st STAR then None else Some (parse_expr st) in
      expect st RPAREN;
      let agg =
        match k with
        | "COUNT" -> Count
        | "SUM" -> Sum
        | "MIN" -> Min
        | "MAX" -> Max
        | _ -> Avg
      in
      Agg (agg, arg)
  | Some LPAREN -> (
      advance st;
      match peek st with
      | Some (KW "SELECT") ->
          let q = parse_query st in
          expect st RPAREN;
          Subquery q
      | _ ->
          let e = parse_expr st in
          expect st RPAREN;
          e)
  | Some QMARK ->
      advance st;
      st.nparams <- st.nparams + 1;
      Param st.nparams
  | Some (IDENT _) -> Path (parse_path st)
  | Some got -> parse_error "unexpected token %s in expression" (token_to_string got)
  | None -> parse_error "unexpected end of input in expression"

(* --- predicates --------------------------------------------------------- *)

and parse_pred st = parse_or st

and parse_or st =
  let lhs = ref (parse_and st) in
  while accept_kw st "OR" do
    lhs := Or (!lhs, parse_and st)
  done;
  !lhs

and parse_and st =
  let lhs = ref (parse_pred_unary st) in
  while accept_kw st "AND" do
    lhs := And (!lhs, parse_pred_unary st)
  done;
  !lhs

and parse_pred_unary st =
  match peek st with
  | Some (KW "NOT") ->
      advance st;
      Not (parse_pred_unary st)
  | Some (KW "EXISTS") ->
      advance st;
      let r = parse_range st in
      ignore (accept st COLON);
      Exists (r, parse_pred_unary st)
  | Some (KW "ALL") ->
      advance st;
      let r = parse_range st in
      ignore (accept st COLON);
      Forall (r, parse_pred_unary st)
  | Some LPAREN when (match peek2 st with Some (KW "SELECT") -> false | _ -> true) -> (
      (* could be a parenthesised predicate or a parenthesised expr
         followed by a comparison; try predicate first *)
      let save = st.pos in
      advance st;
      try
        let p = parse_pred st in
        expect st RPAREN;
        (* if a comparison operator follows, re-parse as expression *)
        match peek st with
        | Some (EQ | NE | LT | LE | GT | GE) ->
            st.pos <- save;
            parse_comparison st
        | _ -> p
      with Parse_error _ ->
        st.pos <- save;
        parse_comparison st)
  | _ -> parse_comparison st

and parse_comparison st =
  let lhs = parse_expr st in
  match peek st with
  | Some EQ ->
      advance st;
      Cmp (Eq, lhs, parse_expr st)
  | Some NE ->
      advance st;
      Cmp (Ne, lhs, parse_expr st)
  | Some LT ->
      advance st;
      Cmp (Lt, lhs, parse_expr st)
  | Some LE ->
      advance st;
      Cmp (Le, lhs, parse_expr st)
  | Some GT ->
      advance st;
      Cmp (Gt, lhs, parse_expr st)
  | Some GE ->
      advance st;
      Cmp (Ge, lhs, parse_expr st)
  | Some (KW "CONTAINS") -> (
      advance st;
      match next st with
      | STRING pat -> Contains (lhs, pat)
      | got -> parse_error "expected pattern string after CONTAINS, got %s" (token_to_string got))
  | _ -> Bool_expr lhs

(* --- ranges and queries --------------------------------------------------- *)

and parse_range st =
  let rvar = ident st in
  if accept_kw st "IN" then begin
    let p = parse_path st in
    let source =
      match p with
      | { var = Some v; steps = [] } -> Table_src v
      | _ -> Path_src p
    in
    let asof = if accept_kw st "ASOF" then Some (parse_expr st) else None in
    { rvar; source; asof }
  end
  else begin
    (* the paper's shorthand `FROM DEPARTMENTS`: the table name doubles
       as the tuple variable *)
    let asof = if accept_kw st "ASOF" then Some (parse_expr st) else None in
    { rvar; source = Table_src rvar; asof }
  end

and parse_query st : query =
  expect_kw st "SELECT";
  let distinct = accept_kw st "DISTINCT" in
  let select =
    if accept st STAR then Star
    else
      let rec items acc =
        let e = parse_expr st in
        let alias =
          if accept_kw st "AS" then Some (ident st)
          else
            (* the paper's postfix naming:  (SELECT ...) = NAME *)
            match e, peek st with
            | Subquery _, Some EQ -> (
                advance st;
                Some (ident st))
            | _ -> None
        in
        let acc = { expr = e; alias } :: acc in
        if accept st COMMA then items acc else List.rev acc
      in
      Items (items [])
  in
  expect_kw st "FROM";
  let rec ranges acc =
    let r = parse_range st in
    let acc = r :: acc in
    if accept st COMMA then ranges acc else List.rev acc
  in
  let from = ranges [] in
  let where = if accept_kw st "WHERE" then Some (parse_pred st) else None in
  let order_by =
    if accept_kw st "ORDER" then begin
      expect_kw st "BY";
      let rec items acc =
        let key = parse_expr st in
        let descending = if accept_kw st "DESC" then true else (ignore (accept_kw st "ASC"); false) in
        let acc = { key; descending } :: acc in
        if accept st COMMA then items acc else List.rev acc
      in
      items []
    end
    else []
  in
  { distinct; select; from; where; order_by }

(* --- DDL -------------------------------------------------------------------- *)

let rec parse_field_defs st =
  let rec fields acc =
    let fname = ident st in
    let ftype = parse_type st in
    let acc = { fname; ftype } :: acc in
    if accept st COMMA then fields acc else List.rev acc
  in
  fields []

and parse_type st =
  match next st with
  | KW "INT" -> T_atom Atom.Tint
  | KW "FLOAT" -> T_atom Atom.Tfloat
  | KW "TEXT" -> T_atom Atom.Tstring
  | KW "BOOL" -> T_atom Atom.Tbool
  | KW "DATE" -> T_atom Atom.Tdate
  | KW "TABLE" ->
      expect st LPAREN;
      let fs = parse_field_defs st in
      expect st RPAREN;
      T_table (Schema.Set, fs)
  | KW "LIST" ->
      expect st LPAREN;
      let fs = parse_field_defs st in
      expect st RPAREN;
      T_table (Schema.List, fs)
  | got -> parse_error "expected a type, got %s" (token_to_string got)

(* --- literal values (INSERT) -------------------------------------------------- *)

(* value := atom | '{' row* '}' | '<' row* '>' ; row := '(' value,* ')' *)
let rec parse_literal_value st : literal_value =
  match peek st with
  | Some QMARK ->
      advance st;
      st.nparams <- st.nparams + 1;
      L_param st.nparams
  | Some (INT v) ->
      advance st;
      L_atom (Atom.Int v)
  | Some (FLOAT v) ->
      advance st;
      L_atom (Atom.Float v)
  | Some (STRING s) ->
      advance st;
      L_atom (Atom.Str s)
  | Some MINUS -> (
      advance st;
      match next st with
      | INT v -> L_atom (Atom.Int (-v))
      | FLOAT v -> L_atom (Atom.Float (-.v))
      | got -> parse_error "expected number after '-', got %s" (token_to_string got))
  | Some (KW "TRUE") ->
      advance st;
      L_atom (Atom.Bool true)
  | Some (KW "FALSE") ->
      advance st;
      L_atom (Atom.Bool false)
  | Some (KW "NULL") ->
      advance st;
      L_atom Atom.Null
  | Some (KW "DATE") -> (
      advance st;
      match next st with
      | STRING s -> (
          match Atom.date_of_string s with
          | Some d -> L_atom d
          | None -> parse_error "invalid date literal '%s'" s)
      | got -> parse_error "expected date string, got %s" (token_to_string got))
  | Some LBRACE ->
      advance st;
      let rows = parse_literal_rows st RBRACE in
      L_table (Schema.Set, rows)
  | Some LT ->
      advance st;
      let rows = parse_literal_rows st GT in
      L_table (Schema.List, rows)
  | Some NE ->
      (* the empty list as [Value.render_v] prints it, lexed as one token *)
      advance st;
      L_table (Schema.List, [])
  | Some got -> parse_error "unexpected token %s in literal" (token_to_string got)
  | None -> parse_error "unexpected end of input in literal"

and parse_literal_rows st close : literal_value list list =
  if accept st close then []
  else
    let rec rows acc =
      expect st LPAREN;
      let rec vals acc =
        let v = parse_literal_value st in
        let acc = v :: acc in
        if accept st COMMA then vals acc else List.rev acc
      in
      let row = vals [] in
      expect st RPAREN;
      let acc = row :: acc in
      if accept st COMMA then rows acc
      else begin
        expect st close;
        List.rev acc
      end
    in
    rows []

(* --- statements ------------------------------------------------------------------- *)

let parse_dotted_name st =
  let head = ident st in
  let rec go acc = if accept st DOT then go (ident st :: acc) else List.rev acc in
  (head, go [])

let parse_stmt st : stmt =
  match peek st with
  | Some (KW "SELECT") -> Select (parse_query st)
  | Some (KW "SHOW") ->
      advance st;
      expect_kw st "TABLES";
      Show_tables
  | Some (KW "DESCRIBE") ->
      advance st;
      Describe (ident st)
  | Some (KW "CREATE") -> (
      advance st;
      match next st with
      | KW "TABLE" ->
          let name = ident st in
          expect st LPAREN;
          let fields = parse_field_defs st in
          expect st RPAREN;
          let versioned =
            if accept_kw st "WITH" then begin
              expect_kw st "VERSIONS";
              true
            end
            else false
          in
          Create_table { name; fields; versioned }
      | KW "INDEX" ->
          expect_kw st "ON";
          let table = ident st in
          expect st LPAREN;
          let rec path acc =
            let p = ident st in
            if accept st DOT then path (p :: acc) else List.rev (p :: acc)
          in
          let path = path [] in
          expect st RPAREN;
          let strategy =
            if accept_kw st "USING" then
              match next st with
              | KW "DATA" -> S_data
              | KW "ROOT" -> S_root
              | KW "HIERARCHICAL" -> S_hier
              | got -> parse_error "expected DATA|ROOT|HIERARCHICAL, got %s" (token_to_string got)
            else S_hier
          in
          Create_index { table; path; strategy }
      | KW "TEXT" ->
          expect_kw st "INDEX";
          expect_kw st "ON";
          let table = ident st in
          expect st LPAREN;
          let rec path acc =
            let p = ident st in
            if accept st DOT then path (p :: acc) else List.rev (p :: acc)
          in
          let path = path [] in
          expect st RPAREN;
          Create_text_index { table; path }
      | got -> parse_error "expected TABLE, INDEX or TEXT INDEX, got %s" (token_to_string got))
  | Some (KW "DROP") ->
      advance st;
      expect_kw st "TABLE";
      Drop_table (ident st)
  | Some (KW "INSERT") ->
      advance st;
      expect_kw st "INTO";
      let table, sub_path = parse_dotted_name st in
      let where = if accept_kw st "WHERE" then Some (parse_pred st) else None in
      expect_kw st "VALUES";
      let rec rows acc =
        expect st LPAREN;
        let rec vals acc =
          let v = parse_literal_value st in
          let acc = v :: acc in
          if accept st COMMA then vals acc else List.rev acc
        in
        let row = vals [] in
        expect st RPAREN;
        let acc = row :: acc in
        if accept st COMMA then rows acc else List.rev acc
      in
      Insert { table; sub_path; where; rows = rows [] }
  | Some (KW "UPDATE") ->
      advance st;
      let table, sub_path = parse_dotted_name st in
      expect_kw st "SET";
      let rec sets acc =
        let a = ident st in
        expect st EQ;
        let e = parse_expr st in
        let acc = (a, e) :: acc in
        if accept st COMMA then sets acc else List.rev acc
      in
      let sets = sets [] in
      let where = if accept_kw st "WHERE" then Some (parse_pred st) else None in
      let at = if accept_kw st "AT" then Some (parse_expr st) else None in
      Update { table; sub_path; sets; where; at }
  | Some (KW "DELETE") ->
      advance st;
      expect_kw st "FROM";
      let table, sub_path = parse_dotted_name st in
      let where = if accept_kw st "WHERE" then Some (parse_pred st) else None in
      let at = if accept_kw st "AT" then Some (parse_expr st) else None in
      Delete { table; sub_path; where; at }
  | Some (KW "ALTER") ->
      advance st;
      expect_kw st "TABLE";
      let table = ident st in
      (match next st with
      | KW "ADD" ->
          let fname = ident st in
          let ftype = parse_type st in
          Alter_add { table; field = { fname; ftype } }
      | KW "DROP" ->
          let attr = ident st in
          Alter_drop { table; attr }
      | got -> parse_error "expected ADD or DROP, got %s" (token_to_string got))
  | Some (KW "EXPLAIN") ->
      advance st;
      if accept_kw st "ANALYZE" then Explain_analyze (parse_query st)
      else Explain (parse_query st)
  | Some (KW "BEGIN") ->
      advance st;
      Begin_txn
  | Some (KW "COMMIT") ->
      advance st;
      Commit
  | Some (KW "ROLLBACK") ->
      advance st;
      Rollback
  | Some got -> parse_error "unexpected token %s at statement start" (token_to_string got)
  | None -> parse_error "empty statement"

let parse_script (input : string) : stmt list =
  let st = { toks = Array.of_list (Lexer.tokenize input); pos = 0; nparams = 0 } in
  let stmts = ref [] in
  while peek st <> None do
    if accept st SEMI then ()
    else begin
      stmts := parse_stmt st :: !stmts;
      match peek st with
      | None -> ()
      | Some SEMI -> advance st
      | Some got -> parse_error "expected ';' between statements, got %s" (token_to_string got)
    end
  done;
  List.rev !stmts

let parse_one (input : string) : stmt =
  match parse_script input with
  | [ s ] -> s
  | [] -> parse_error "empty input"
  | _ -> parse_error "expected a single statement"

(* Parse one statement and report how many '?' parameters it holds. *)
let parse_prepared (input : string) : stmt * int =
  let st = { toks = Array.of_list (Lexer.tokenize input); pos = 0; nparams = 0 } in
  let s = parse_stmt st in
  (match peek st with
  | None -> ()
  | Some SEMI when st.pos = Array.length st.toks - 1 -> ()
  | Some got -> parse_error "trailing input: %s" (token_to_string got));
  (s, st.nparams)

let parse_query_string (input : string) : query =
  match parse_one input with
  | Select q -> q
  | _ -> parse_error "expected a SELECT statement"
