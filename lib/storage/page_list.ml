(* Page lists: the local address space of a complex object.

   The page list is stored in the object's root MD subtuple and maps
   local page numbers (positions in the list) to database page numbers.
   Removal leaves a gap rather than shifting entries, and additions
   reuse gaps before extending at the end — this keeps every existing
   Mini-TID stable (Section 4.1). *)

type t = { mutable entries : int array; mutable len : int }

let gap = -1

let create () = { entries = Array.make 4 gap; len = 0 }

let length t = t.len

let grow t =
  if t.len = Array.length t.entries then begin
    let bigger = Array.make (max 8 (2 * Array.length t.entries)) gap in
    Array.blit t.entries 0 bigger 0 t.len;
    t.entries <- bigger
  end

(* Register a database page; returns its local page number. *)
let add t page =
  let rec find_gap i = if i >= t.len then None else if t.entries.(i) = gap then Some i else find_gap (i + 1) in
  match find_gap 0 with
  | Some i ->
      t.entries.(i) <- page;
      i
  | None ->
      grow t;
      t.entries.(t.len) <- page;
      t.len <- t.len + 1;
      t.len - 1

let remove t ~lpage =
  if lpage < 0 || lpage >= t.len || t.entries.(lpage) = gap then
    invalid_arg "Page_list.remove: no such entry";
  t.entries.(lpage) <- gap

let resolve t lpage =
  if lpage < 0 || lpage >= t.len then invalid_arg "Page_list.resolve: out of range";
  match t.entries.(lpage) with
  | -1 -> invalid_arg "Page_list.resolve: gap"
  | page -> page

(* Replace the database page at a position, keeping the position (used
   by object relocation / check-out: Mini-TIDs stay valid). *)
let replace t ~lpage ~page =
  if lpage < 0 || lpage >= t.len || t.entries.(lpage) = gap then
    invalid_arg "Page_list.replace: no such entry";
  t.entries.(lpage) <- page

let position_of t page =
  let rec go i = if i >= t.len then None else if t.entries.(i) = page then Some i else go (i + 1) in
  go 0

(* Live (position, page) pairs in position order. *)
let entries t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    if t.entries.(i) <> gap then acc := (i, t.entries.(i)) :: !acc
  done;
  !acc

let gaps t = t.len - List.length (entries t)

let encode b t =
  Codec.put_uvarint b t.len;
  for i = 0 to t.len - 1 do
    Codec.put_varint b t.entries.(i)
  done

let decode src =
  let len = Codec.get_uvarint src in
  let t = { entries = Array.make (max 4 len) gap; len } in
  for i = 0 to len - 1 do
    t.entries.(i) <- Codec.get_varint src
  done;
  t

let copy t = { entries = Array.copy t.entries; len = t.len }
