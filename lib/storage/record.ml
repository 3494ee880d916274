type t =
  | Plain of string
  | Forward of Tid.t
  | Spilled of string
  | Chunk of { part : string; next : Tid.t option; scan_root : bool }

(* Large enough for tag + length + a varint TID of any database below
   ~2^21 pages; asserted in [encode]. *)
let min_size = 16

(* Per-chunk envelope overhead bound: tag(1) + scan_root(1) +
   has_next(1) + tid(<=12) + len varint(<=5). *)
let chunk_overhead = 20

let encode t =
  let b = Codec.create_sink () in
  (match t with
  | Plain payload ->
      Codec.put_u8 b 0;
      Codec.put_string b payload
  | Forward tid ->
      Codec.put_u8 b 1;
      Tid.encode b tid
  | Spilled payload ->
      Codec.put_u8 b 2;
      Codec.put_string b payload
  | Chunk { part; next; scan_root } ->
      Codec.put_u8 b 3;
      Codec.put_bool b scan_root;
      (match next with
      | None -> Codec.put_u8 b 0
      | Some tid ->
          Codec.put_u8 b 1;
          Tid.encode b tid);
      Codec.put_string b part);
  let body = Codec.contents b in
  (match t with
  | Forward _ ->
      if String.length body > min_size then
        failwith "Record.encode: forward pointer exceeds min_size (database too large)"
  | Plain _ | Spilled _ | Chunk _ -> ());
  if String.length body >= min_size then body
  else body ^ String.make (min_size - String.length body) '\000'

let decode s =
  if String.length s = 0 then Codec.decode_error "Record.decode: empty";
  let src = Codec.source_of_string s in
  match Codec.get_u8 src with
  | 0 -> Plain (Codec.get_string src)
  | 1 -> Forward (Tid.decode src)
  | 2 -> Spilled (Codec.get_string src)
  | 3 ->
      let scan_root = Codec.get_bool src in
      let next = match Codec.get_u8 src with 0 -> None | _ -> Some (Tid.decode src) in
      Chunk { part = Codec.get_string src; next; scan_root }
  | n -> Codec.decode_error "Record.decode: tag %d" n

(* ------------------------------------------------------------------ *)
(* The record protocol.  Addresses are (page, slot) pairs whose page
   component [page_of] maps to a database page: a heap's global TIDs
   map to themselves, an object's Mini-TIDs through its page list.
   Pointers stored inside records (forward targets, chunk links) are
   addresses of the same space, so an object's stay valid when it is
   relocated. *)

exception Broken of string

let broken fmt = Printf.ksprintf (fun s -> raise (Broken s)) fmt

type space = { pages : Free_space.t; page_of : int -> int; place : string -> Tid.t }

let pool sp = Free_space.pool sp.pages

(* Byte budgets: one whole record on an empty page; the largest payload
   that still encodes into one Plain/Spilled record (tag + length
   varint, padded to min_size); the payload of one chunk. *)
let record_budget sp = Disk.page_size (Buffer_pool.disk (pool sp)) - Page.header_size - Page.slot_size
let max_single_payload sp = record_budget sp - 8
let max_chunk_part sp = record_budget sp - chunk_overhead

let raw sp (at : Tid.t) =
  Option.map decode (Buffer_pool.read (pool sp) (sp.page_of at.page) (fun buf -> Page.read buf at.slot))

(* Run [f] on the page image holding [at], then refresh its free bytes. *)
let write sp (at : Tid.t) f =
  let page = sp.page_of at.page in
  Buffer_pool.write (pool sp) page (fun buf ->
      let r = f buf in
      Free_space.note sp.pages page buf;
      r)

let kill sp (at : Tid.t) = write sp at (fun buf -> ignore (Page.delete buf at.slot))

let split_parts sp payload =
  let part = max_chunk_part sp in
  let n = String.length payload in
  let rec go off acc =
    if off >= n then List.rev acc
    else
      let len = min part (n - off) in
      go (off + len) (String.sub payload off len :: acc)
  in
  if n = 0 then [ "" ] else go 0 []

(* Store a logical record, chunking it when it exceeds a page.  [head]
   picks the envelope of a single-record payload and the [scan_root]
   bit of a chain's head chunk; continuation chunks are placed back to
   front so each can point at the next. *)
let insert sp ~(head : [ `Plain | `Spilled ]) payload =
  let place r = sp.place (encode r) in
  if String.length payload <= max_single_payload sp then
    place (match head with `Plain -> Plain payload | `Spilled -> Spilled payload)
  else
    match split_parts sp payload with
    | [] -> assert false
    | first :: rest ->
        let rec write_tail = function
          | [] -> None
          | part :: rest ->
              let next = write_tail rest in
              Some (place (Chunk { part; next; scan_root = false }))
        in
        let next = write_tail rest in
        place (Chunk { part = first; next; scan_root = head = `Plain })

let rec assemble_chain sp part = function
  | None -> part
  | Some at -> (
      match raw sp at with
      | Some (Chunk { part = p2; next; _ }) -> part ^ assemble_chain sp p2 next
      | Some _ -> broken "chunk chain corrupted at %s" (Tid.to_string at)
      | None -> broken "dangling chunk pointer %s" (Tid.to_string at))

(* The logical payload of a record that holds one (not a forward). *)
let payload sp = function
  | Plain p | Spilled p -> p
  | Chunk { part; next; _ } -> assemble_chain sp part next
  | Forward at -> broken "chained forward to %s" (Tid.to_string at)

(* The payload of the record at [at], following at most one forward
   hop (forwards never chain); [None] when there is no record or its
   forward target is gone. *)
let read sp at =
  match raw sp at with
  | None -> None
  | Some (Forward target) -> Option.map (payload sp) (raw sp target)
  | Some r -> Some (payload sp r)

(* What a scan surfaces for a record found in a slot: the record that
   carries its payload (its own or its forward target's), or [None]
   for spilled copies, continuation chunks and broken forwards, which
   are only reached through their home. *)
let scan_home sp = function
  | (Plain _ | Chunk { scan_root = true; _ }) as r -> Some r
  | Chunk _ | Spilled _ -> None
  | Forward target -> ( match raw sp target with Some (Forward _) | None -> None | r -> r)

(* Free the continuation chunks reachable from a decoded record. *)
let rec free_tail sp = function
  | None -> ()
  | Some at ->
      (match raw sp at with Some (Chunk { next; _ }) -> free_tail sp next | _ -> ());
      kill sp at

let delete sp at =
  match raw sp at with
  | None -> ()
  | Some r ->
      (match r with
      | Plain _ | Spilled _ -> ()
      | Chunk { next; _ } -> free_tail sp next
      | Forward target ->
          (match raw sp target with Some (Chunk { next; _ }) -> free_tail sp next | _ -> ());
          kill sp target);
      kill sp at

(* Update in place when the payload fits; otherwise spill it (chunked
   if need be) to a new place and leave a forward pointer at [at], so
   the address never changes. *)
let update sp (at : Tid.t) payload =
  let target, target_rec =
    match raw sp at with
    | None -> broken "update: no record at %s" (Tid.to_string at)
    | Some (Forward target) -> (
        match raw sp target with
        | Some r -> (target, r)
        | None -> broken "update: dangling forward at %s" (Tid.to_string at))
    | Some r -> (at, r)
  in
  (* the new contents replace any old continuation chunks *)
  (match target_rec with Chunk { next; _ } -> free_tail sp next | _ -> ());
  let spilled = not (Tid.equal target at) in
  let in_place =
    String.length payload <= max_single_payload sp
    &&
    let encoded = encode (if spilled then Spilled payload else Plain payload) in
    write sp target (fun buf -> Page.update buf target.slot encoded)
  in
  if not in_place then begin
    (* the old spilled copy goes; the home slot becomes the forward *)
    if spilled then kill sp target;
    let fwd = encode (Forward (insert sp ~head:`Spilled payload)) in
    if not (write sp at (fun buf -> Page.update buf at.slot fwd)) then
      broken "update: forward pointer does not fit at %s" (Tid.to_string at)
  end
