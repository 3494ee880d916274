(* Heap file: an unordered record store over a set of pages, with
   stable TIDs (via forwarding), records larger than a page (via chunk
   chains), and an in-memory free-space map.  Used for flat (1NF)
   tables, for root MD subtuples of complex objects, for version
   deltas, and by the Lorie-style baseline. *)

type t = {
  pool : Buffer_pool.t;
  mutable pages : int list; (* newest first *)
  ranks : (int, int) Hashtbl.t; (* page -> position in the append-only page list *)
  fsm : (int, int) Hashtbl.t; (* page -> usable free bytes *)
}

let create pool = { pool; pages = []; ranks = Hashtbl.create 64; fsm = Hashtbl.create 64 }

(* Re-attach a heap to pages persisted earlier; the free-space map is
   rebuilt by inspecting each page. *)
let restore pool ~pages =
  let t = { pool; pages; ranks = Hashtbl.create 64; fsm = Hashtbl.create 64 } in
  List.iteri (fun rank page -> Hashtbl.replace t.ranks page rank) (List.rev pages);
  List.iter
    (fun page -> Buffer_pool.read pool page (fun buf -> Hashtbl.replace t.fsm page (Page.usable_free buf)))
    pages;
  t

let pages t = t.pages

let copy t = { t with ranks = Hashtbl.copy t.ranks; fsm = Hashtbl.copy t.fsm }

let note_free t page buf = Hashtbl.replace t.fsm page (Page.usable_free buf)

let page_size t = Disk.page_size (Buffer_pool.disk t.pool)

(* Largest whole-record byte budget of one page. *)
let record_budget t = page_size t - Page.header_size - Page.slot_size

(* Largest payload that still encodes into a single Plain/Spilled
   record (envelope: tag + length varint, padded to min_size). *)
let max_single_payload t = record_budget t - 8

let max_chunk_part t = record_budget t - Record.chunk_overhead

let alloc_page t =
  let page = Buffer_pool.alloc t.pool in
  Buffer_pool.write t.pool page (fun buf ->
      Page.init buf;
      note_free t page buf);
  Hashtbl.replace t.ranks page (Hashtbl.length t.ranks);
  t.pages <- page :: t.pages;
  page

(* First-fit over pages believed to have room, else a fresh page. *)
let insert_record t (record : Record.t) : Tid.t =
  let encoded = Record.encode record in
  let need = String.length encoded + Page.slot_size in
  let candidate =
    List.find_opt (fun p -> match Hashtbl.find_opt t.fsm p with Some f -> f >= need | None -> false) t.pages
  in
  let page = match candidate with Some p -> p | None -> alloc_page t in
  let slot =
    Buffer_pool.write t.pool page (fun buf ->
        let s = Page.insert buf encoded in
        note_free t page buf;
        s)
  in
  match slot with
  | Some slot -> { Tid.page; slot }
  | None ->
      (* stale fsm entry; retry on a guaranteed-fresh page *)
      let page = alloc_page t in
      let slot =
        Buffer_pool.write t.pool page (fun buf ->
            let s = Page.insert buf encoded in
            note_free t page buf;
            s)
      in
      (match slot with
      | Some slot -> { Tid.page; slot }
      | None -> failwith "Heap.insert: record larger than a page")

(* Split a payload into chunk parts. *)
let split_parts t payload =
  let part = max_chunk_part t in
  let n = String.length payload in
  let rec go off acc =
    if off >= n then List.rev acc
    else
      let len = min part (n - off) in
      go (off + len) (String.sub payload off len :: acc)
  in
  if n = 0 then [ "" ] else go 0 []

(* Store a logical record, chunking when needed.  [head] controls the
   envelope of the head record for single-part payloads and the
   [scan_root] bit of the head chunk for multi-part ones. *)
let insert_logical t ~(head : [ `Plain | `Spilled ]) (payload : string) : Tid.t =
  if String.length payload <= max_single_payload t then
    insert_record t (match head with `Plain -> Record.Plain payload | `Spilled -> Record.Spilled payload)
  else begin
    let parts = split_parts t payload in
    (* write continuation chunks back to front *)
    let rec write_tail = function
      | [] -> None
      | part :: rest ->
          let next = write_tail rest in
          Some (insert_record t (Record.Chunk { part; next; scan_root = false }))
    in
    match parts with
    | [] -> assert false
    | first :: rest ->
        let next = write_tail rest in
        insert_record t (Record.Chunk { part = first; next; scan_root = head = `Plain })
  end

let insert t payload = insert_logical t ~head:`Plain payload

let read_raw t (tid : Tid.t) =
  Buffer_pool.read t.pool tid.page (fun buf -> Page.read buf tid.slot)

(* Assemble a chunk chain starting at an already-decoded head chunk. *)
let rec assemble_chain t part next =
  match next with
  | None -> part
  | Some tid -> (
      match read_raw t tid with
      | Some s -> (
          match Record.decode s with
          | Record.Chunk { part = p2; next = n2; _ } -> part ^ assemble_chain t p2 n2
          | _ -> failwith "Heap: chunk chain corrupted")
      | None -> failwith "Heap: dangling chunk pointer")

(* Follows at most one forward hop (forwards never chain). *)
let resolve t (tid : Tid.t) : (Tid.t * string) option =
  match read_raw t tid with
  | None -> None
  | Some s -> (
      match Record.decode s with
      | Record.Plain payload | Record.Spilled payload -> Some (tid, payload)
      | Record.Chunk { part; next; _ } -> Some (tid, assemble_chain t part next)
      | Record.Forward target -> (
          match read_raw t target with
          | Some s2 -> (
              match Record.decode s2 with
              | Record.Spilled payload | Record.Plain payload -> Some (target, payload)
              | Record.Chunk { part; next; _ } -> Some (target, assemble_chain t part next)
              | Record.Forward _ -> failwith "Heap: chained forward")
          | None -> None))

let read t tid = Option.map snd (resolve t tid)

let read_exn t tid =
  match read t tid with
  | Some payload -> payload
  | None -> invalid_arg (Printf.sprintf "Heap.read: no record at %s" (Tid.to_string tid))

let kill t (at : Tid.t) =
  Buffer_pool.write t.pool at.Tid.page (fun buf ->
      ignore (Page.delete buf at.Tid.slot);
      note_free t at.Tid.page buf)

(* Free the continuation chunks reachable from a decoded record. *)
let rec free_tail t = function
  | None -> ()
  | Some tid ->
      (match read_raw t tid with
      | Some s -> (
          match Record.decode s with
          | Record.Chunk { next; _ } -> free_tail t next
          | _ -> ())
      | None -> ());
      kill t tid

let delete t (tid : Tid.t) =
  match read_raw t tid with
  | None -> ()
  | Some s ->
      (match Record.decode s with
      | Record.Plain _ | Record.Spilled _ -> ()
      | Record.Chunk { next; _ } -> free_tail t next
      | Record.Forward target ->
          (match read_raw t target with
          | Some s2 -> (
              match Record.decode s2 with
              | Record.Chunk { next; _ } -> free_tail t next
              | _ -> ())
          | None -> ());
          kill t target);
      kill t tid

(* Update in place when possible; otherwise spill the payload (possibly
   chunked) to other pages and leave a forward pointer in the home
   slot.  The record's TID never changes. *)
let update t (tid : Tid.t) (payload : string) =
  let home =
    match read_raw t tid with
    | Some s -> Record.decode s
    | None -> invalid_arg (Printf.sprintf "Heap.update: no record at %s" (Tid.to_string tid))
  in
  (* where the payload currently lives, and its decoded form *)
  let target, target_rec =
    match home with
    | Record.Forward target -> (
        match read_raw t target with
        | Some s -> (target, Record.decode s)
        | None -> failwith "Heap.update: dangling forward")
    | r -> (tid, r)
  in
  (* free old continuation chunks — the new contents replace the chain *)
  (match target_rec with Record.Chunk { next; _ } -> free_tail t next | _ -> ());
  let already_spilled = not (Tid.equal target tid) in
  let fits_single = String.length payload <= max_single_payload t in
  let try_in_place () =
    if not fits_single then false
    else
      let encoded =
        Record.encode (if already_spilled then Record.Spilled payload else Record.Plain payload)
      in
      Buffer_pool.write t.pool target.Tid.page (fun buf ->
          let ok = Page.update buf target.Tid.slot encoded in
          note_free t target.Tid.page buf;
          ok)
  in
  if not (try_in_place ()) then begin
    (* drop the old copy at [target] (unless it is the home slot, which
       must become the forward pointer) *)
    if already_spilled then kill t target;
    let spill_tid = insert_logical t ~head:`Spilled payload in
    let fwd = Record.encode (Record.Forward spill_tid) in
    let ok =
      Buffer_pool.write t.pool tid.Tid.page (fun buf ->
          let ok = Page.update buf tid.Tid.slot fwd in
          note_free t tid.Tid.page buf;
          ok)
    in
    if not ok then failwith "Heap.update: forward pointer does not fit"
  end

(* Iterate live logical records (skipping spilled targets and
   continuation chunks): each record exactly once under its home TID. *)
let iter t fn =
  List.iter
    (fun page ->
      let records =
        Buffer_pool.read t.pool page (fun buf ->
            List.filter_map
              (fun slot -> Option.map (fun s -> (slot, s)) (Page.read buf slot))
              (Page.live_records buf))
      in
      List.iter
        (fun (slot, s) ->
          match Record.decode s with
          | Record.Plain payload -> fn { Tid.page; slot } payload
          | Record.Chunk { part; next; scan_root = true } ->
              fn { Tid.page; slot } (assemble_chain t part next)
          | Record.Chunk _ -> ()
          | Record.Forward target -> (
              match read_raw t target with
              | Some s2 -> (
                  match Record.decode s2 with
                  | Record.Spilled payload | Record.Plain payload -> fn { Tid.page; slot } payload
                  | Record.Chunk { part; next; _ } -> fn { Tid.page; slot } (assemble_chain t part next)
                  | Record.Forward _ -> ())
              | None -> ())
          | Record.Spilled _ -> ())
        records)
    (List.rev t.pages)

(* Where [iter] visits the record homed at [tid]: the rank of its page
   in the append-only page list, then its slot.  Pages are never
   removed, so a position stays valid after its record is deleted. *)
let position t (tid : Tid.t) =
  match Hashtbl.find_opt t.ranks tid.Tid.page with
  | Some rank -> (rank, tid.Tid.slot)
  | None -> invalid_arg (Printf.sprintf "Heap.position: page %d is not in this heap" tid.Tid.page)

(* Does [iter] visit a record under [tid]?  False for free slots and for
   slots holding a spilled copy or a continuation chunk. *)
let is_home t (tid : Tid.t) =
  Hashtbl.mem t.ranks tid.Tid.page
  &&
  match read_raw t tid with
  | None -> false
  | Some s -> (
      match Record.decode s with
      | Record.Plain _ -> true
      | Record.Chunk { scan_root; _ } -> scan_root
      | Record.Spilled _ -> false
      | Record.Forward target -> (
          match read_raw t target with
          | Some s2 -> ( match Record.decode s2 with Record.Forward _ -> false | _ -> true)
          | None -> false))

let fold t fn init =
  let acc = ref init in
  iter t (fun tid payload -> acc := fn !acc tid payload);
  !acc

let count t = fold t (fun n _ _ -> n + 1) 0
