(* Simulated disk: a growable array of fixed-size pages with physical
   I/O accounting.

   The 1986 prototype ran against real DASD; here the cost model that
   matters for the paper's comparative claims is the number of page
   reads and writes, which we count faithfully.  All page content
   access must go through the buffer pool.

   For the recovery subsystem the disk is also the physical fault
   surface: an optional write hook (installed by {!Faulty_disk}) can
   truncate a page write mid-flight and kill the simulated process, and
   each page carries the LSN of the last log record covering its
   on-disk image. *)

exception Crash of string

type stats = { mutable reads : int; mutable writes : int; mutable allocs : int }

type t = {
  page_size : int;
  mutable pages : Bytes.t array; (* physical page images *)
  mutable page_lsns : int array; (* LSN stamped on the last durable write of each page *)
  mutable npages : int;
  stats : stats;
  (* Fault injection: called on every physical write.  [None] proceeds
     normally; [Some n] applies only the first [n] bytes and then
     raises {!Crash} — the simulated machine dies mid-write. *)
  mutable write_hook : (int -> Bytes.t -> int option) option;
}

let create ?(page_size = 4096) () =
  if page_size < 64 then invalid_arg "Disk.create: page_size too small";
  {
    page_size;
    pages = Array.make 16 Bytes.empty;
    page_lsns = Array.make 16 0;
    npages = 0;
    stats = { reads = 0; writes = 0; allocs = 0 };
    write_hook = None;
  }

let page_size t = t.page_size
let npages t = t.npages
let stats t = t.stats

let reset_stats t =
  t.stats.reads <- 0;
  t.stats.writes <- 0;
  t.stats.allocs <- 0

let set_write_hook t hook = t.write_hook <- hook

let alloc t =
  if t.npages = Array.length t.pages then begin
    (* [of_pages] may start from an empty array *)
    let cap = max 16 (2 * t.npages) in
    let bigger = Array.make cap Bytes.empty in
    Array.blit t.pages 0 bigger 0 t.npages;
    t.pages <- bigger;
    let bigger_lsns = Array.make cap 0 in
    Array.blit t.page_lsns 0 bigger_lsns 0 t.npages;
    t.page_lsns <- bigger_lsns
  end;
  t.pages.(t.npages) <- Bytes.make t.page_size '\000';
  t.page_lsns.(t.npages) <- 0;
  t.stats.allocs <- t.stats.allocs + 1;
  t.npages <- t.npages + 1;
  t.npages - 1

let check_page t page =
  if page < 0 || page >= t.npages then invalid_arg (Printf.sprintf "Disk: page %d out of range" page)

(* Physical read: copies the page image into [dst]. *)
let read_into t page dst =
  check_page t page;
  t.stats.reads <- t.stats.reads + 1;
  Bytes.blit t.pages.(page) 0 dst 0 t.page_size

(* Physical write: copies [src] onto the page image.  [lsn], when
   given, stamps the page with the log record covering this image.
   An armed write hook may tear the write and crash. *)
let write_from ?(lsn = 0) t page src =
  check_page t page;
  t.stats.writes <- t.stats.writes + 1;
  let outcome = match t.write_hook with None -> None | Some hook -> hook page src in
  match outcome with
  | None ->
      Bytes.blit src 0 t.pages.(page) 0 t.page_size;
      if lsn > 0 then t.page_lsns.(page) <- lsn
  | Some n ->
      let n = max 0 (min n t.page_size) in
      Bytes.blit src 0 t.pages.(page) 0 n;
      raise
        (Crash
           (Printf.sprintf "simulated crash writing page %d (%d/%d bytes reached disk)" page n
              t.page_size))

let page_lsn t page =
  check_page t page;
  t.page_lsns.(page)

let total_bytes t = t.npages * t.page_size

(* Persistence: copy out / reconstruct the physical page images. *)
let export_pages t = Array.init t.npages (fun i -> Bytes.copy t.pages.(i))

let of_pages ~page_size (pages : Bytes.t array) =
  if page_size < 64 then invalid_arg "Disk.of_pages: page_size too small";
  Array.iter
    (fun p -> if Bytes.length p <> page_size then invalid_arg "Disk.of_pages: wrong page size")
    pages;
  {
    page_size;
    pages = Array.map Bytes.copy pages;
    page_lsns = Array.make (max 1 (Array.length pages)) 0;
    npages = Array.length pages;
    stats = { reads = 0; writes = 0; allocs = 0 };
    write_hook = None;
  }
