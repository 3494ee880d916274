(* Cumulative per-shape statement statistics behind one mutex: a
   bounded map shape -> aggregates, LRU-evicted by update order when a
   new shape arrives at capacity. *)

type scale = Count | Ms_of_ns

(* The attributed counters, in SYS_STATEMENTS column order: the
   source counter ([layer.counter]), its column, and how it shows. *)
let attributed =
  [
    ("pool.hits", "POOL_HITS", Count);
    ("pool.misses", "POOL_MISSES", Count);
    ("disk.reads", "DISK_READS", Count);
    ("wal.records", "WAL_RECORDS", Count);
    ("wal.bytes", "WAL_BYTES", Count);
    ("lock.acquires", "LOCK_ACQUIRES", Count);
    ("lock.wait_ns", "LOCK_WAIT_MS", Ms_of_ns);
    ("plan.seq_scans", "PLAN_SEQ", Count);
    ("plan.index_scans", "PLAN_INDEX", Count);
    ("plan.index_intersections", "PLAN_INTERSECT", Count);
  ]

let nattributed = List.length attributed

(* Column of an attributed counter, -1 for any other name. *)
let column name =
  let rec go i = function
    | [] -> -1
    | (n, _, _) :: rest -> if String.equal n name then i else go (i + 1) rest
  in
  go 0 attributed

(* Sampling runs twice per statement, so it must not look names up: the
   first call records each source's layout — the name and column at
   every position — and later calls walk the lists by position.  A
   source's names are string literals, so checking that a position
   still holds its recorded name is one pointer comparison; anything
   else falls back to the lookup. *)
let sampler sources =
  let layout f = Array.of_list (List.map (fun (name, _) -> (name, column name)) (f ())) in
  let layouts = List.map (fun f -> (f, layout f)) sources in
  fun () ->
    let a = Array.make nattributed 0 in
    List.iter
      (fun (f, l) ->
        List.iteri
          (fun k (name, v) ->
            let c = if k < Array.length l && fst l.(k) == name then snd l.(k) else column name in
            if c >= 0 then a.(c) <- v)
          (f ()))
      layouts;
    a

type delta = { d_seconds : float; d_rows : int; d_counters : int array }

let zero_delta = { d_seconds = 0.; d_rows = 0; d_counters = Array.make nattributed 0 }

let delta ~before ~after ~seconds ~rows =
  { d_seconds = seconds; d_rows = rows; d_counters = Array.map2 ( - ) after before }

(* Logarithmic latency buckets, factor 2 from 1µs: 28 buckets reach
   ~134s, plenty for a statement latency distribution. *)
let nbuckets = 28
let bucket_floor = 1e-6

let bucket_of (v : float) : int =
  let rec go i bound = if i >= nbuckets - 1 || v <= bound then i else go (i + 1) (bound *. 2.) in
  go 0 bucket_floor

let bucket_bound i = bucket_floor *. Float.of_int (1 lsl i)

type cell = {
  shape : string;
  mutable calls : int;
  mutable rows : int;
  mutable total_s : float;
  mutable min_s : float;
  mutable max_s : float;
  buckets : int array;
  sums : int array; (* per attributed counter *)
  mutable last_seq : int; (* update order, for LRU eviction *)
}

type entry = {
  shape : string;
  calls : int;
  rows : int;
  total_s : float;
  min_s : float;
  max_s : float;
  p95_s : float;
  counters : int array;
}

type t = {
  mu : Mutex.t;
  cells : (string, cell) Hashtbl.t;
  scap : int;
  mutable seq : int; (* monotonic update counter *)
  mutable nrecorded : int;
}

let create ?(cap = 512) () =
  { mu = Mutex.create (); cells = Hashtbl.create 64; scap = max 1 cap; seq = 0; nrecorded = 0 }

let cap t = t.scap

let with_mu t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let fresh_cell shape =
  {
    shape;
    calls = 0;
    rows = 0;
    total_s = 0.;
    min_s = Float.infinity;
    max_s = 0.;
    buckets = Array.make nbuckets 0;
    sums = Array.make nattributed 0;
    last_seq = 0;
  }

let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun _ c ->
      match !victim with
      | Some v when v.last_seq <= c.last_seq -> ()
      | _ -> victim := Some c)
    t.cells;
  match !victim with Some v -> Hashtbl.remove t.cells v.shape | None -> ()

let record t ~shape (d : delta) =
  with_mu t (fun () ->
      t.seq <- t.seq + 1;
      t.nrecorded <- t.nrecorded + 1;
      let c =
        match Hashtbl.find_opt t.cells shape with
        | Some c -> c
        | None ->
            if Hashtbl.length t.cells >= t.scap then evict_lru t;
            let c = fresh_cell shape in
            Hashtbl.replace t.cells shape c;
            c
      in
      c.calls <- c.calls + 1;
      c.rows <- c.rows + d.d_rows;
      c.total_s <- c.total_s +. d.d_seconds;
      c.min_s <- Float.min c.min_s d.d_seconds;
      c.max_s <- Float.max c.max_s d.d_seconds;
      c.buckets.(bucket_of d.d_seconds) <- c.buckets.(bucket_of d.d_seconds) + 1;
      Array.iteri (fun i v -> c.sums.(i) <- c.sums.(i) + v) d.d_counters;
      c.last_seq <- t.seq)

(* Upper bound of the bucket where the cumulative count reaches 95%. *)
let p95_of (c : cell) : float =
  if c.calls = 0 then 0.
  else begin
    let target = max 1 (Float.to_int (Float.round (0.95 *. Float.of_int c.calls))) in
    let acc = ref 0 and res = ref (bucket_bound (nbuckets - 1)) in
    (try
       Array.iteri
         (fun i n ->
           acc := !acc + n;
           if !acc >= target then begin
             res := bucket_bound i;
             raise Exit
           end)
         c.buckets
     with Exit -> ());
    !res
  end

let snapshot t : entry list =
  with_mu t (fun () ->
      Hashtbl.fold
        (fun _ (c : cell) acc ->
          {
            shape = c.shape;
            calls = c.calls;
            rows = c.rows;
            total_s = c.total_s;
            min_s = (if c.calls = 0 then 0. else c.min_s);
            max_s = c.max_s;
            p95_s = p95_of c;
            counters = Array.copy c.sums;
          }
          :: acc)
        t.cells [])
  |> List.sort (fun (a : entry) b ->
         match compare b.calls a.calls with 0 -> String.compare a.shape b.shape | c -> c)

let recorded t = with_mu t (fun () -> t.nrecorded)

let reset t =
  with_mu t (fun () ->
      Hashtbl.reset t.cells;
      t.nrecorded <- 0)
