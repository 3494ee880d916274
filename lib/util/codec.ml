(* Binary encoding helpers used by the subtuple codecs and the index
   key encoders.  All encodings are deterministic; integers use a
   zig-zag varint so short values stay short (Mini Directories are
   meant to be compact). *)

type sink = Buffer.t

let create_sink () = Buffer.create 64
let contents (b : sink) = Buffer.contents b

type source = { data : string; mutable pos : int }

let source_of_string data = { data; pos = 0 }
let remaining src = String.length src.data - src.pos
let at_end src = remaining src = 0

exception Decode_error of string

let decode_error fmt = Fmt.kstr (fun s -> raise (Decode_error s)) fmt

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let get_u8 src =
  if src.pos >= String.length src.data then decode_error "get_u8: end of input";
  let c = Char.code src.data.[src.pos] in
  src.pos <- src.pos + 1;
  c

(* Unsigned LEB128 varint over the full 63-bit pattern (a negative int
   is encoded as its unsigned bit pattern; 9 bytes max). *)
let put_uvarint b v =
  let rec go v =
    if v >= 0 && v < 0x80 then put_u8 b v
    else begin
      put_u8 b ((v land 0x7f) lor 0x80);
      go (v lsr 7)
    end
  in
  go v

(* Bytes [put_uvarint] writes for [v]. *)
let uvarint_size v =
  let rec go n v = if v >= 0 && v < 0x80 then n else go (n + 1) (v lsr 7) in
  go 1 v

(* [put_uvarint] into [bytes] at [off]; the offset after it. *)
let rec blit_uvarint bytes off v =
  if v >= 0 && v < 0x80 then begin
    Bytes.set bytes off (Char.unsafe_chr v);
    off + 1
  end
  else begin
    Bytes.set bytes off (Char.unsafe_chr ((v land 0x7f) lor 0x80));
    blit_uvarint bytes (off + 1) (v lsr 7)
  end

let get_uvarint src =
  let rec go shift acc =
    if shift > 62 then decode_error "get_uvarint: overflow";
    let byte = get_u8 src in
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

(* Zig-zag for signed ints. *)
let put_varint b v =
  let z = (v lsl 1) lxor (v asr 62) in
  put_uvarint b z

let get_varint src =
  let z = get_uvarint src in
  (z lsr 1) lxor (-(z land 1))

let put_string b s =
  put_uvarint b (String.length s);
  Buffer.add_string b s

let get_string src =
  let n = get_uvarint src in
  if remaining src < n then decode_error "get_string: truncated";
  let s = String.sub src.data src.pos n in
  src.pos <- src.pos + n;
  s

(* Fixed-length raw bytes (no length prefix). *)
let get_fixed src n =
  if remaining src < n then decode_error "get_fixed: truncated";
  let s = String.sub src.data src.pos n in
  src.pos <- src.pos + n;
  s

let put_bool b v = put_u8 b (if v then 1 else 0)

let get_bool src =
  match get_u8 src with
  | 0 -> false
  | 1 -> true
  | n -> decode_error "get_bool: invalid byte %d" n

let put_float b v =
  let bits = Int64.bits_of_float v in
  for i = 0 to 7 do
    put_u8 b (Int64.to_int (Int64.shift_right_logical bits (i * 8)) land 0xff)
  done

let get_float src =
  let bits = ref 0L in
  for i = 0 to 7 do
    let byte = Int64.of_int (get_u8 src) in
    bits := Int64.logor !bits (Int64.shift_left byte (i * 8))
  done;
  Int64.float_of_bits !bits

(* Fixed-width big-endian u16/u32, used inside slotted pages where the
   layout must be position-stable. *)
let blit_u16 bytes off v =
  Bytes.set_uint8 bytes off ((v lsr 8) land 0xff);
  Bytes.set_uint8 bytes (off + 1) (v land 0xff)

let read_u16 bytes off = (Bytes.get_uint8 bytes off lsl 8) lor Bytes.get_uint8 bytes (off + 1)

let blit_u32 bytes off v =
  Bytes.set_uint8 bytes off ((v lsr 24) land 0xff);
  Bytes.set_uint8 bytes (off + 1) ((v lsr 16) land 0xff);
  Bytes.set_uint8 bytes (off + 2) ((v lsr 8) land 0xff);
  Bytes.set_uint8 bytes (off + 3) (v land 0xff)

let read_u32 bytes off =
  (Bytes.get_uint8 bytes off lsl 24)
  lor (Bytes.get_uint8 bytes (off + 1) lsl 16)
  lor (Bytes.get_uint8 bytes (off + 2) lsl 8)
  lor Bytes.get_uint8 bytes (off + 3)

(* Order-preserving key encoding: encoded keys compare bytewise in the
   same order as the source values.  Used by the B+-tree. *)
let key_of_int v =
  let b = Bytes.create 8 in
  (* flip sign bit so that negative < positive bytewise *)
  let u = Int64.logxor (Int64.of_int v) Int64.min_int in
  for i = 0 to 7 do
    Bytes.set_uint8 b i (Int64.to_int (Int64.shift_right_logical u ((7 - i) * 8)) land 0xff)
  done;
  Bytes.to_string b

let key_of_string s = s

let key_of_float v =
  let bits = Int64.bits_of_float v in
  (* standard order-preserving float transform *)
  let u =
    if Int64.compare bits 0L >= 0 then Int64.logxor bits Int64.min_int else Int64.lognot bits
  in
  let b = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.set_uint8 b i (Int64.to_int (Int64.shift_right_logical u ((7 - i) * 8)) land 0xff)
  done;
  Bytes.to_string b
