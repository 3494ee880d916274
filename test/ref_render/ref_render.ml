(* Reference rendering of result cells and the reference Result_table
   payload, written the plain way: [string_of_int], a [Buffer] per
   quoted string, [^] and [String.concat] at every nesting level, and a
   growing [Codec] sink.  [Value.render_v] and
   [Protocol.encode_response] must produce exactly these bytes. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value

let to_string : Atom.t -> string = function
  | Int v -> string_of_int v
  | Float v ->
      let s = Printf.sprintf "%.12g" v in
      if String.contains s '.' || String.contains s 'e' || String.contains s 'n' then s
      else s ^ "."
  | Str v -> v
  | Bool v -> if v then "TRUE" else "FALSE"
  | Date v ->
      let y, m, d = Atom.ymd_of_days v in
      Printf.sprintf "%04d-%02d-%02d" y m d
  | Null -> "NULL"

let to_literal : Atom.t -> string = function
  | Str v ->
      let b = Buffer.create (String.length v + 2) in
      Buffer.add_char b '\'';
      String.iter (fun c -> if c = '\'' then Buffer.add_string b "''" else Buffer.add_char b c) v;
      Buffer.add_char b '\'';
      Buffer.contents b
  | Date _ as a -> "DATE '" ^ to_string a ^ "'"
  | a -> to_string a

let rec render_v = function
  | Value.Atom a -> to_literal a
  | Value.Table t -> render_table t

and render_table (t : Value.table) =
  let o, c = match t.kind with Schema.Set -> ("{", "}") | Schema.List -> ("<", ">") in
  o ^ String.concat ", " (List.map render_tuple t.tuples) ^ c

and render_tuple (tup : Value.tuple) = "(" ^ String.concat ", " (List.map render_v tup) ^ ")"

(* The payload of [Protocol.Result_table { columns; rows }]. *)
let encode_result_table (columns : string list) (rows : string list list) : string =
  let b = Codec.create_sink () in
  Codec.put_u8 b 1;
  Codec.put_uvarint b (List.length columns);
  List.iter (Codec.put_string b) columns;
  Codec.put_uvarint b (List.length rows);
  List.iter
    (fun row ->
      Codec.put_uvarint b (List.length row);
      List.iter (Codec.put_string b) row)
    rows;
  Codec.contents b
