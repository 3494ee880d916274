(* Schemas of the extended NF2 data model.

   A table is either unordered (a relation, rendered with curly braces
   in the paper) or ordered (a list, rendered with angle brackets).
   Attributes are atomic or again tables, nested to arbitrary depth.
   A 1NF table is the special case where every attribute is atomic. *)

type kind = Set | List

type attr = Atomic of Atom.ty | Table of table

and field = { name : string; attr : attr }

and table = { kind : kind; fields : field list }

type t = { name : string; table : table }

exception Schema_error of string

let schema_error fmt = Fmt.kstr (fun s -> raise (Schema_error s)) fmt

let flat { fields; _ } =
  List.for_all (fun f -> match f.attr with Atomic _ -> true | Table _ -> false) fields

let field_names (t : table) = List.map (fun (f : field) -> f.name) t.fields

let same_name a b =
  let n = String.length a in
  n = String.length b
  &&
  let rec go i =
    i = n
    || Char.uppercase_ascii (String.unsafe_get a i) = Char.uppercase_ascii (String.unsafe_get b i)
       && go (i + 1)
  in
  go 0

let find_field (table : table) name =
  let rec go i = function
    | [] -> None
    | (f : field) :: _ when same_name f.name name ->
        Some (i, f)
    | _ :: rest -> go (i + 1) rest
  in
  go 0 table.fields

let field_exn table name =
  match find_field table name with
  | Some x -> x
  | None -> schema_error "unknown attribute %s" name

let validate t =
  let rec check_table path (tbl : table) =
    if tbl.fields = [] then schema_error "%s: table with no attributes" path;
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (f : field) ->
        let key = String.uppercase_ascii f.name in
        if f.name = "" then schema_error "%s: empty attribute name" path;
        if Hashtbl.mem seen key then schema_error "%s: duplicate attribute %s" path f.name;
        Hashtbl.add seen key ();
        match f.attr with
        | Atomic _ -> ()
        | Table sub -> check_table (path ^ "." ^ f.name) sub)
      tbl.fields
  in
  check_table t.name t.table;
  t

(* Structural statistics used in the storage experiments. *)
let rec count_table_attrs (tbl : table) =
  List.fold_left
    (fun acc f ->
      match f.attr with Atomic _ -> acc | Table sub -> acc + 1 + count_table_attrs sub)
    0 tbl.fields

let rec depth (tbl : table) =
  List.fold_left
    (fun acc f -> match f.attr with Atomic _ -> acc | Table sub -> max acc (1 + depth sub))
    0 tbl.fields

(* ------------------------------------------------------------------ *)
(* Paths: address a (possibly nested) attribute, e.g.
   DEPARTMENTS.PROJECTS.MEMBERS.FUNCTION is [PROJECTS; MEMBERS; FUNCTION]. *)

type path = string list

let rec path_attr (tbl : table) (p : path) : attr =
  match p with
  | [] -> schema_error "empty path"
  | [ name ] ->
      let _, f = field_exn tbl name in
      f.attr
  | name :: rest -> (
      let _, f = field_exn tbl name in
      match f.attr with
      | Table sub -> path_attr sub rest
      | Atomic _ -> schema_error "path step %s is atomic, cannot descend" name)

let path_to_string p = String.concat "." p

(* ------------------------------------------------------------------ *)
(* Rendering *)

let rec pp_attr fmt = function
  | Atomic ty -> Format.pp_print_string fmt (Atom.type_name ty)
  | Table tbl -> pp_table fmt tbl

and pp_table fmt tbl =
  let o, c = match tbl.kind with Set -> ("{", "}") | List -> ("<", ">") in
  Format.fprintf fmt "%s " o;
  List.iteri
    (fun i (f : field) ->
      if i > 0 then Format.fprintf fmt ", ";
      Format.fprintf fmt "%s: %a" f.name pp_attr f.attr)
    tbl.fields;
  Format.fprintf fmt " %s" c

let to_string t = Format.asprintf "%s %a" t.name pp_table t.table

(* IMS-style segment-tree rendering (Fig 1 of the paper): every
   nesting level becomes a "segment" whose fields are the first-level
   atomic attributes. *)
let render_segment_tree t =
  let buf = Buffer.create 256 in
  let rec go indent name (tbl : table) =
    let atoms =
      List.filter_map
        (fun (f : field) -> match f.attr with Atomic _ -> Some f.name | Table _ -> None)
        tbl.fields
    in
    let kind = match tbl.kind with Set -> "{}" | List -> "<>" in
    Buffer.add_string buf
      (Printf.sprintf "%s%s %s [%s]\n" (String.make indent ' ') name kind (String.concat " | " atoms));
    List.iter
      (fun (f : field) ->
        match f.attr with Table sub -> go (indent + 4) f.name sub | Atomic _ -> ())
      tbl.fields
  in
  go 0 t.name t.table;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Binary codec (stored in the catalog). *)

let rec encode_table b (tbl : table) =
  Codec.put_u8 b (match tbl.kind with Set -> 0 | List -> 1);
  Codec.put_uvarint b (List.length tbl.fields);
  List.iter
    (fun (f : field) ->
      Codec.put_string b f.name;
      match f.attr with
      | Atomic ty ->
          Codec.put_u8 b 0;
          Codec.put_u8 b
            (match ty with Atom.Tint -> 0 | Tfloat -> 1 | Tstring -> 2 | Tbool -> 3 | Tdate -> 4)
      | Table sub ->
          Codec.put_u8 b 1;
          encode_table b sub)
    tbl.fields

let rec decode_table src : table =
  let kind = match Codec.get_u8 src with 0 -> Set | 1 -> List | n -> Codec.decode_error "kind %d" n in
  let n = Codec.get_uvarint src in
  let fields =
    Stdlib.List.init n (fun _ ->
        let name = Codec.get_string src in
        match Codec.get_u8 src with
        | 0 ->
            let ty =
              match Codec.get_u8 src with
              | 0 -> Atom.Tint
              | 1 -> Tfloat
              | 2 -> Tstring
              | 3 -> Tbool
              | 4 -> Tdate
              | n -> Codec.decode_error "atom ty %d" n
            in
            { name; attr = Atomic ty }
        | 1 -> { name; attr = Table (decode_table src) }
        | n -> Codec.decode_error "attr tag %d" n)
  in
  { kind; fields }

let encode b t =
  Codec.put_string b t.name;
  encode_table b t.table

let decode src =
  let name = Codec.get_string src in
  { name; table = decode_table src }

(* ------------------------------------------------------------------ *)
(* Convenience constructors *)

let atom name ty = { name; attr = Atomic ty }
let int_ name = atom name Atom.Tint
let str_ name = atom name Atom.Tstring
let float_ name = atom name Atom.Tfloat
let bool_ name = atom name Atom.Tbool
let set_ name fields = { name; attr = Table { kind = Set; fields } }
let list_ name fields = { name; attr = Table { kind = List; fields } }
let relation name fields = validate { name; table = { kind = Set; fields } }
let ordered name fields = validate { name; table = { kind = List; fields } }
