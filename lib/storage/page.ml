(* Slotted-page layout, operating in place on a page image (Bytes.t).

     +--------+--------------------------------+----------------+
     | header |  records (growing up) ...free  | slot dir (down)|
     +--------+--------------------------------+----------------+

   header   : [u16 nslots][u16 free_off]
   slot i   : 4 bytes at (page_size - 4*(i+1)) = [u16 off][u16 len]
              off = 0xFFFF  -> slot free (reusable)

   Records are never larger than [max_record_size]. Deleting a record
   keeps its slot number reserved so TIDs/Mini-TIDs of other records
   stay valid; freed slots are reused by later inserts. *)

let header_size = 4
let slot_size = 4
let free_slot_mark = 0xFFFF

let nslots buf = Codec.read_u16 buf 0
let free_off buf = Codec.read_u16 buf 2
let set_nslots buf v = Codec.blit_u16 buf 0 v
let set_free_off buf v = Codec.blit_u16 buf 2 v

let init buf =
  set_nslots buf 0;
  set_free_off buf header_size

let slot_pos buf i = Bytes.length buf - (slot_size * (i + 1))

let slot_off buf i = Codec.read_u16 buf (slot_pos buf i)
let slot_len buf i = Codec.read_u16 buf (slot_pos buf i + 2)

let set_slot buf i ~off ~len =
  Codec.blit_u16 buf (slot_pos buf i) off;
  Codec.blit_u16 buf (slot_pos buf i + 2) len

let slot_used buf i = slot_off buf i <> free_slot_mark

let max_record_size buf =
  (* one record, one slot, nothing else on the page *)
  Bytes.length buf - header_size - slot_size

(* Contiguous free space between record area and slot directory. *)
let contiguous_free buf = Bytes.length buf - (slot_size * nslots buf) - free_off buf

(* Total reclaimable free space (after compaction), not counting the
   slot entry a brand-new record would need. *)
let usable_free buf =
  let used = ref 0 in
  for i = 0 to nslots buf - 1 do
    if slot_used buf i then used := !used + slot_len buf i
  done;
  Bytes.length buf - header_size - (slot_size * nslots buf) - !used

let find_free_slot buf =
  let n = nslots buf in
  let rec go i = if i >= n then None else if not (slot_used buf i) then Some i else go (i + 1) in
  go 0

(* Rewrite the record area compactly, preserving slot numbers. *)
let compact buf =
  let n = nslots buf in
  let records =
    List.init n (fun i ->
        if slot_used buf i then Some (Bytes.sub buf (slot_off buf i) (slot_len buf i)) else None)
  in
  let off = ref header_size in
  List.iteri
    (fun i r ->
      match r with
      | None -> ()
      | Some data ->
          Bytes.blit data 0 buf !off (Bytes.length data);
          set_slot buf i ~off:!off ~len:(Bytes.length data);
          off := !off + Bytes.length data)
    records;
  set_free_off buf !off

(* Space check for inserting a record of [len] bytes. *)
let can_insert buf len =
  let needs_slot = match find_free_slot buf with Some _ -> false | None -> true in
  let slot_cost = if needs_slot then slot_size else 0 in
  usable_free buf - slot_cost >= len

let insert buf (data : string) =
  let len = String.length data in
  if not (can_insert buf len) then None
  else begin
    let slot =
      match find_free_slot buf with
      | Some i -> i
      | None ->
          (* the new slot directory entry lives at the end of the page;
             compact first if the record area currently extends into it *)
          let i = nslots buf in
          if free_off buf > Bytes.length buf - (slot_size * (i + 1)) then compact buf;
          set_nslots buf (i + 1);
          set_slot buf i ~off:free_slot_mark ~len:0;
          i
    in
    if contiguous_free buf < len then compact buf;
    let off = free_off buf in
    Bytes.blit_string data 0 buf off len;
    set_slot buf slot ~off ~len;
    set_free_off buf (off + len);
    Some slot
  end

let read buf slot =
  if slot < 0 || slot >= nslots buf || not (slot_used buf slot) then None
  else Some (Bytes.sub_string buf (slot_off buf slot) (slot_len buf slot))

let delete buf slot =
  if slot >= 0 && slot < nslots buf && slot_used buf slot then begin
    set_slot buf slot ~off:free_slot_mark ~len:0;
    true
  end
  else false

(* In-place update; returns false if the new contents cannot fit on
   this page even after compaction (caller must spill). *)
let update buf slot (data : string) =
  if slot < 0 || slot >= nslots buf || not (slot_used buf slot) then
    invalid_arg "Page.update: no such record";
  let len = String.length data in
  let old_len = slot_len buf slot in
  if len <= old_len then begin
    (* shrink in place *)
    Bytes.blit_string data 0 buf (slot_off buf slot) len;
    set_slot buf slot ~off:(slot_off buf slot) ~len;
    true
  end
  else begin
    (* would the page hold it if we drop the old copy? *)
    let free_with_old_dropped = usable_free buf + old_len in
    if free_with_old_dropped < len then false
    else begin
      set_slot buf slot ~off:free_slot_mark ~len:0;
      if contiguous_free buf < len then compact buf;
      let off = free_off buf in
      Bytes.blit_string data 0 buf off len;
      set_slot buf slot ~off ~len;
      set_free_off buf (off + len);
      true
    end
  end

let live_records buf =
  let acc = ref [] in
  for i = nslots buf - 1 downto 0 do
    if slot_used buf i then acc := i :: !acc
  done;
  !acc

