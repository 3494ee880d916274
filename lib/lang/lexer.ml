(* Hand-written lexer for the AIM-II query language. *)

module Atom = Nf2_model.Atom

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | KW of string (* uppercased keyword *)
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | LANGLE (* '<' opening a list literal; the parser decides vs LT by context *)
  | COMMA
  | DOT
  | SEMI
  | COLON
  | STAR
  | PLUS
  | MINUS
  | SLASH
  | EQ
  | NE
  | LT
  | LE
  | GT
  | GE
  | QMARK

exception Lex_error of string

let lex_error fmt = Fmt.kstr (fun s -> raise (Lex_error s)) fmt

let keywords =
  [
    "SELECT"; "FROM"; "WHERE"; "IN"; "EXISTS"; "ALL"; "AND"; "OR"; "NOT"; "AS";
    "CONTAINS"; "ASOF"; "CREATE"; "TABLE"; "LIST"; "INDEX"; "TEXT"; "ON"; "USING";
    "INSERT"; "INTO"; "VALUES"; "UPDATE"; "SET"; "DELETE"; "DROP"; "WITH"; "VERSIONS";
    "ORDER"; "BY"; "ASC"; "DESC"; "DISTINCT"; "TRUE"; "FALSE"; "NULL"; "DATE";
    "COUNT"; "SUM"; "MIN"; "MAX"; "AVG"; "INT"; "FLOAT"; "BOOL"; "AT";
    "SHOW"; "TABLES"; "DESCRIBE"; "HIERARCHICAL"; "ROOT"; "DATA"; "ALTER"; "ADD"; "EXPLAIN"; "ANALYZE";
    "BEGIN"; "COMMIT"; "ROLLBACK";
  ]

let keyword_set =
  let h = Hashtbl.create 128 in
  List.iter (fun k -> Hashtbl.replace h k ()) keywords;
  h

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize (input : string) : token list =
  let n = String.length input in
  let toks = ref [] in
  let push t = toks := t :: !toks in
  let i = ref 0 in
  while !i < n do
    let c = input.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '-' && !i + 1 < n && input.[!i + 1] = '-' then begin
      (* line comment *)
      while !i < n && input.[!i] <> '\n' do
        incr i
      done
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char input.[!i] do
        incr i
      done;
      let word = String.sub input start (!i - start) in
      let up = String.uppercase_ascii word in
      if Hashtbl.mem keyword_set up then push (KW up) else push (IDENT word)
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit input.[!i] do
        incr i
      done;
      (* underscores in numbers like 320_000 *)
      while
        !i < n
        && (is_digit input.[!i] || (input.[!i] = '_' && !i + 1 < n && is_digit input.[!i + 1]))
      do
        incr i
      done;
      if !i < n && input.[!i] = '.' && !i + 1 < n && is_digit input.[!i + 1] then begin
        incr i;
        while !i < n && is_digit input.[!i] do
          incr i
        done;
        let s = String.sub input start (!i - start) in
        let s = String.concat "" (String.split_on_char '_' s) in
        push (FLOAT (float_of_string s))
      end
      else
        let s = String.sub input start (!i - start) in
        let s = String.concat "" (String.split_on_char '_' s) in
        push (INT (int_of_string s))
    end
    else if c = '\'' then begin
      (* string literal; '' escapes a quote *)
      let buf = Buffer.create 16 in
      incr i;
      let closed = ref false in
      while not !closed do
        if !i >= n then lex_error "unterminated string literal";
        if input.[!i] = '\'' then
          if !i + 1 < n && input.[!i + 1] = '\'' then begin
            Buffer.add_char buf '\'';
            i := !i + 2
          end
          else begin
            closed := true;
            incr i
          end
        else begin
          Buffer.add_char buf input.[!i];
          incr i
        end
      done;
      push (STRING (Buffer.contents buf))
    end
    else begin
      let two = if !i + 1 < n then String.sub input !i 2 else "" in
      match two with
      | "<=" ->
          push LE;
          i := !i + 2
      | ">=" ->
          push GE;
          i := !i + 2
      | "<>" ->
          push NE;
          i := !i + 2
      | "!=" ->
          push NE;
          i := !i + 2
      | _ -> (
          incr i;
          match c with
          | '(' -> push LPAREN
          | ')' -> push RPAREN
          | '{' -> push LBRACE
          | '}' -> push RBRACE
          | '[' -> push LBRACKET
          | ']' -> push RBRACKET
          | ',' -> push COMMA
          | '.' -> push DOT
          | ';' -> push SEMI
          | ':' -> push COLON
          | '*' -> push STAR
          | '+' -> push PLUS
          | '-' -> push MINUS
          | '/' -> push SLASH
          | '=' -> push EQ
          | '<' -> push LT
          | '>' -> push GT
          | '?' -> push QMARK
          | c -> lex_error "unexpected character %c" c)
    end
  done;
  List.rev !toks

let token_to_string = function
  | IDENT s -> s
  | INT v -> string_of_int v
  | FLOAT v -> string_of_float v
  | STRING s -> "'" ^ s ^ "'"
  | KW k -> k
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | LANGLE -> "<"
  | COMMA -> ","
  | DOT -> "."
  | SEMI -> ";"
  | COLON -> ":"
  | STAR -> "*"
  | PLUS -> "+"
  | MINUS -> "-"
  | SLASH -> "/"
  | EQ -> "="
  | NE -> "<>"
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | QMARK -> "?"
