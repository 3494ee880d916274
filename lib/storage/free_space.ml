(* Free-space map: the pages a record store owns, newest first, with
   the free bytes of each (as [Page.usable_free] counts them). *)

type t = { pool : Buffer_pool.t; mutable pages : int list; free : (int, int) Hashtbl.t }

let create pool = { pool; pages = []; free = Hashtbl.create 64 }

let restore pool pages =
  let t = { pool; pages; free = Hashtbl.create 64 } in
  List.iter
    (fun page -> Buffer_pool.read pool page (fun buf -> Hashtbl.replace t.free page (Page.usable_free buf)))
    pages;
  t

let copy t = { t with free = Hashtbl.copy t.free }
let pool t = t.pool
let pages t = t.pages
let note t page buf = Hashtbl.replace t.free page (Page.usable_free buf)
let forget t page = Hashtbl.remove t.free page

let format t page =
  Buffer_pool.write t.pool page (fun buf ->
      Page.init buf;
      note t page buf)

let alloc t =
  let page = Buffer_pool.alloc t.pool in
  format t page;
  t.pages <- page :: t.pages;
  page

let adopt t page =
  t.pages <- page :: t.pages;
  Buffer_pool.read t.pool page (fun buf -> note t page buf)

let fits t page need = match Hashtbl.find_opt t.free page with Some f -> f >= need | None -> false

let insert t page encoded =
  Buffer_pool.write t.pool page (fun buf ->
      let slot = Page.insert buf encoded in
      note t page buf;
      slot)

let place t ~candidates ~fresh encoded =
  let need = String.length encoded + Page.slot_size in
  let rec go = function
    | page :: rest when fits t page need -> (
        match insert t page encoded with Some slot -> (page, slot) | None -> go rest)
    | _ :: rest -> go rest
    | [] -> (
        let page = fresh () in
        match insert t page encoded with
        | Some slot -> (page, slot)
        | None -> failwith "Free_space.place: record larger than a page")
  in
  go candidates
