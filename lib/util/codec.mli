(** Binary encoding helpers used by the subtuple codecs and the index
    key encoders.  All encodings are deterministic. *)

type sink = Buffer.t

val create_sink : unit -> sink
val contents : sink -> string

type source

val source_of_string : string -> source
val remaining : source -> int
val at_end : source -> bool

exception Decode_error of string

val decode_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

val put_u8 : sink -> int -> unit
val get_u8 : source -> int

(** Unsigned LEB128 varint over the full 63-bit pattern. *)
val put_uvarint : sink -> int -> unit

val get_uvarint : source -> int

(** [uvarint_size v] is the number of bytes {!put_uvarint} writes for [v]. *)
val uvarint_size : int -> int

(** [blit_uvarint bytes off v] writes [v] as {!put_uvarint} would, at
    [off], and returns the offset just past it.
    @raise Invalid_argument if it does not fit. *)
val blit_uvarint : Bytes.t -> int -> int -> int

(** Zig-zag signed varint: small magnitudes stay short. *)
val put_varint : sink -> int -> unit

val get_varint : source -> int

(** Length-prefixed string. *)
val put_string : sink -> string -> unit

val get_string : source -> string

(** Fixed-length raw bytes (no length prefix). *)
val get_fixed : source -> int -> string

val put_bool : sink -> bool -> unit
val get_bool : source -> bool
val put_float : sink -> float -> unit
val get_float : source -> float

(** {1 Fixed-width big-endian fields} (position-stable page layouts) *)

val blit_u16 : Bytes.t -> int -> int -> unit
val read_u16 : Bytes.t -> int -> int
val blit_u32 : Bytes.t -> int -> int -> unit
val read_u32 : Bytes.t -> int -> int

(** {1 Order-preserving key encodings}

    Encoded keys compare bytewise in the same order as their source
    values (within one type). *)

val key_of_int : int -> string
val key_of_string : string -> string
val key_of_float : float -> string
