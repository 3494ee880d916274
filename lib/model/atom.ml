(* Atomic attribute values of the extended NF2 data model.

   Dates are stored as days since 1970-01-01 (proleptic Gregorian);
   the paper's ASOF examples ("January 15th, 1984") only need day
   granularity, but timestamps in the temporal subsystem use a finer
   logical clock anyway. *)

type ty = Tint | Tfloat | Tstring | Tbool | Tdate

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Date of int (* days since epoch *)
  | Null

let type_name = function
  | Tint -> "INT"
  | Tfloat -> "FLOAT"
  | Tstring -> "TEXT"
  | Tbool -> "BOOL"
  | Tdate -> "DATE"

let ty_of_atom = function
  | Int _ -> Some Tint
  | Float _ -> Some Tfloat
  | Str _ -> Some Tstring
  | Bool _ -> Some Tbool
  | Date _ -> Some Tdate
  | Null -> None

let conforms ty atom =
  match atom, ty with
  | Null, _ -> true
  | Int _, Tint | Float _, Tfloat | Str _, Tstring | Bool _, Tbool | Date _, Tdate -> true
  | (Int _ | Float _ | Str _ | Bool _ | Date _), _ -> false

(* Total order: Null sorts first; across-type comparison follows the
   constructor order (only meaningful inside homogeneous columns). *)
let compare a b =
  let rank = function
    | Null -> 0
    | Int _ -> 1
    | Float _ -> 2
    | Str _ -> 3
    | Bool _ -> 4
    | Date _ -> 5
  in
  match a, b with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Date x, Date y -> Int.compare x y
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* --- Gregorian calendar conversion ------------------------------- *)

let is_leap y = (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0

let days_in_month y m =
  match m with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if is_leap y then 29 else 28
  | _ -> invalid_arg "days_in_month"

(* days since 1970-01-01 for y-m-d *)
let days_of_ymd y m d =
  if m < 1 || m > 12 then invalid_arg "days_of_ymd: month";
  if d < 1 || d > days_in_month y m then invalid_arg "days_of_ymd: day";
  (* count days from 1970 *)
  let days = ref 0 in
  if y >= 1970 then
    for yy = 1970 to y - 1 do
      days := !days + if is_leap yy then 366 else 365
    done
  else
    for yy = y to 1969 do
      days := !days - (if is_leap yy then 366 else 365)
    done;
  for mm = 1 to m - 1 do
    days := !days + days_in_month y mm
  done;
  !days + d - 1

let ymd_of_days days =
  let y = ref 1970 and d = ref days in
  if days >= 0 then begin
    let continue = ref true in
    while !continue do
      let len = if is_leap !y then 366 else 365 in
      if !d >= len then begin
        d := !d - len;
        incr y
      end
      else continue := false
    done
  end
  else begin
    while !d < 0 do
      decr y;
      d := !d + if is_leap !y then 366 else 365
    done
  end;
  let m = ref 1 in
  while !d >= days_in_month !y !m do
    d := !d - days_in_month !y !m;
    incr m
  done;
  (!y, !m, !d + 1)

let date_of_ymd y m d = Date (days_of_ymd y m d)

(* Parses 'YYYY-MM-DD'. *)
let date_of_string s =
  match String.split_on_char '-' s with
  | [ y; m; d ] -> (
      try Some (date_of_ymd (int_of_string y) (int_of_string m) (int_of_string d))
      with _ -> None)
  | _ -> None

(* Decimal text of an INT at its exact length.  Digits are taken from
   the non-positive magnitude, so [min_int] needs no special case. *)
let int_literal v =
  let m = if v < 0 then v else -v in
  let rec ndigits n m = if m <= -10 then ndigits (n + 1) (m / 10) else n in
  let sign = if v < 0 then 1 else 0 in
  let len = sign + ndigits 1 m in
  let b = Bytes.create len in
  if v < 0 then Bytes.unsafe_set b 0 '-';
  let m = ref m in
  for i = len - 1 downto sign do
    Bytes.unsafe_set b i (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  Bytes.unsafe_to_string b

let add_int b v =
  if v < 0 then Buffer.add_char b '-';
  let rec go m =
    if m <= -10 then go (m / 10);
    Buffer.add_char b (Char.unsafe_chr (48 - (m mod 10)))
  in
  go (if v < 0 then v else -v)

let add_quoted b v =
  Buffer.add_char b '\'';
  if String.contains v '\'' then
    String.iter (fun c -> if c = '\'' then Buffer.add_string b "''" else Buffer.add_char b c) v
  else Buffer.add_string b v;
  Buffer.add_char b '\''

(* A string without quotes to double is one blit into its exact size. *)
let str_literal v =
  let n = String.length v in
  if String.contains v '\'' then begin
    let b = Buffer.create (n + 4) in
    add_quoted b v;
    Buffer.contents b
  end
  else begin
    let b = Bytes.create (n + 2) in
    Bytes.unsafe_set b 0 '\'';
    Bytes.unsafe_blit_string v 0 b 1 n;
    Bytes.unsafe_set b (n + 1) '\'';
    Bytes.unsafe_to_string b
  end

let to_string = function
  | Int v -> int_literal v
  | Float v ->
      let s = Printf.sprintf "%.12g" v in
      if String.contains s '.' || String.contains s 'e' || String.contains s 'n' then s
      else s ^ "."
  | Str v -> v
  | Bool v -> if v then "TRUE" else "FALSE"
  | Date v ->
      let y, m, d = ymd_of_days v in
      Printf.sprintf "%04d-%02d-%02d" y m d
  | Null -> "NULL"

(* SQL-ish literal form: strings quoted. *)
let to_literal = function
  | Int v -> int_literal v
  | Str v -> str_literal v
  | Date _ as a -> "DATE '" ^ to_string a ^ "'"
  | a -> to_string a

let add_literal b = function
  | Int v -> add_int b v
  | Str v -> add_quoted b v
  | a -> Buffer.add_string b (to_literal a)

let pp fmt a = Format.pp_print_string fmt (to_string a)

(* --- binary codec ------------------------------------------------- *)

let encode b = function
  | Null -> Codec.put_u8 b 0
  | Int v ->
      Codec.put_u8 b 1;
      Codec.put_varint b v
  | Float v ->
      Codec.put_u8 b 2;
      Codec.put_float b v
  | Str v ->
      Codec.put_u8 b 3;
      Codec.put_string b v
  | Bool v ->
      Codec.put_u8 b 4;
      Codec.put_bool b v
  | Date v ->
      Codec.put_u8 b 5;
      Codec.put_varint b v

let decode src =
  match Codec.get_u8 src with
  | 0 -> Null
  | 1 -> Int (Codec.get_varint src)
  | 2 -> Float (Codec.get_float src)
  | 3 -> Str (Codec.get_string src)
  | 4 -> Bool (Codec.get_bool src)
  | 5 -> Date (Codec.get_varint src)
  | n -> Codec.decode_error "Atom.decode: bad tag %d" n

(* Order-preserving index key. *)
let to_key = function
  | Null -> "\x00"
  | Int v -> "\x01" ^ Codec.key_of_int v
  | Float v -> "\x02" ^ Codec.key_of_float v
  | Str v -> "\x03" ^ Codec.key_of_string v
  | Bool v -> "\x04" ^ if v then "\x01" else "\x00"
  | Date v -> "\x05" ^ Codec.key_of_int v
