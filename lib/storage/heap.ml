(* Heap file: an unordered record store over a set of pages, addressed
   by global TIDs.  The record protocol (forwarding, chunk chains) is
   [Record]'s; a heap adds first-fit placement over its free-space map
   and the append-only page order scans follow.  Used for flat (1NF)
   tables, for root MD subtuples of complex objects, for version
   deltas, and by the Lorie-style baseline. *)

type t = {
  space : Record.space;
  ranks : (int, int) Hashtbl.t; (* page -> position in the append-only page list *)
}

(* Global TIDs address pages directly; new records go first-fit over
   the pages, newest first, else onto a fresh page. *)
let make pages ranks =
  let alloc_page () =
    let page = Free_space.alloc pages in
    Hashtbl.replace ranks page (Hashtbl.length ranks);
    page
  in
  let place encoded =
    let page, slot = Free_space.place pages ~candidates:(Free_space.pages pages) ~fresh:alloc_page encoded in
    { Tid.page; slot }
  in
  { space = { Record.pages; page_of = Fun.id; place }; ranks }

let create pool = make (Free_space.create pool) (Hashtbl.create 64)

let restore pool ~pages =
  let ranks = Hashtbl.create 64 in
  List.iteri (fun rank page -> Hashtbl.replace ranks page rank) (List.rev pages);
  make (Free_space.restore pool pages) ranks

let pages t = Free_space.pages t.space.pages

let copy t = make (Free_space.copy t.space.pages) (Hashtbl.copy t.ranks)

let insert t payload = Record.insert t.space ~head:`Plain payload
let read t tid = Record.read t.space tid

let read_exn t tid =
  match read t tid with
  | Some payload -> payload
  | None -> invalid_arg (Printf.sprintf "Heap.read: no record at %s" (Tid.to_string tid))

let delete t tid = Record.delete t.space tid
let update t tid payload = Record.update t.space tid payload

(* Iterate live logical records (skipping spilled targets and
   continuation chunks): each record exactly once under its home TID. *)
let iter t fn =
  let sp = t.space in
  List.iter
    (fun page ->
      let records =
        Buffer_pool.read (Free_space.pool sp.pages) page (fun buf ->
            List.filter_map
              (fun slot -> Option.map (fun s -> (slot, s)) (Page.read buf slot))
              (Page.live_records buf))
      in
      List.iter
        (fun (slot, s) ->
          match Record.scan_home sp (Record.decode s) with
          | Some r -> fn { Tid.page; slot } (Record.payload sp r)
          | None -> ())
        records)
    (List.rev (pages t))

(* Where [iter] visits the record homed at [tid]: the rank of its page
   in the append-only page list, then its slot.  Pages are never
   removed, so a position stays valid after its record is deleted. *)
let position t (tid : Tid.t) =
  match Hashtbl.find_opt t.ranks tid.Tid.page with
  | Some rank -> (rank, tid.Tid.slot)
  | None -> invalid_arg (Printf.sprintf "Heap.position: page %d is not in this heap" tid.Tid.page)

(* Does [iter] visit a record under [tid]? *)
let is_home t (tid : Tid.t) =
  Hashtbl.mem t.ranks tid.Tid.page
  &&
  let sp = t.space in
  match Record.raw sp tid with Some r -> Option.is_some (Record.scan_home sp r) | None -> false

let fold t fn init =
  let acc = ref init in
  iter t (fun tid payload -> acc := fn !acc tid payload);
  !acc

let count t = fold t (fun n _ _ -> n + 1) 0
