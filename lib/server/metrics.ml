(* Metrics registry for the server tier: named counters and latency
   histograms behind one mutex, plus pull sources — thunks each layer
   registers once and every read ([get], [dump], both renders) calls
   live, so a layer's counters are never copied into the registry.
   Histograms use logarithmic buckets (factor 2 from 1µs), which keeps
   observation O(1) and makes p50/p95/p99 a bucket scan; quantiles
   report the bucket's upper bound, so they are upper estimates with
   <= 2x resolution — plenty for a prototype's dashboard. *)

type histogram = {
  buckets : int array;  (* counts per bucket *)
  mutable hcount : int;
  mutable hsum : float;  (* seconds *)
}

let nbuckets = 42
let bucket_floor = 1e-6 (* bucket 0 ends at 1µs *)

(* Index of the first bucket whose upper bound covers [v] seconds. *)
let bucket_of (v : float) : int =
  let rec go i bound = if i >= nbuckets - 1 || v <= bound then i else go (i + 1) (bound *. 2.) in
  go 0 bucket_floor

let bucket_bound i = bucket_floor *. Float.of_int (1 lsl i)

type t = {
  mu : Mutex.t;
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  mutable sources : (unit -> (string * int) list) list; (* registration order *)
  mutable float_sources : (unit -> (string * float) list) list;
}

let create () =
  {
    mu = Mutex.create ();
    counters = Hashtbl.create 32;
    histograms = Hashtbl.create 8;
    sources = [];
    float_sources = [];
  }

let with_mu t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let counter_ref t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace t.counters name r;
      r

let add t name n = with_mu t (fun () -> let r = counter_ref t name in r := !r + n)
let incr t name = add t name 1

(* --- pull sources ---------------------------------------------------------- *)

let add_source t f = with_mu t (fun () -> t.sources <- t.sources @ [ f ])
let add_float_source t f = with_mu t (fun () -> t.float_sources <- t.float_sources @ [ f ])

let sanitize_name s =
  String.map
    (fun c ->
      if
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
        || c = '_' || c = ':'
      then c
      else '_')
    s

(* "name{labels}" -> base name + "{labels}" suffix *)
let split_key key =
  match String.index_opt key '{' with
  | None -> (key, "")
  | Some i -> (String.sub key 0 i, String.sub key i (String.length key - i))

(* A source's [layer.counter] name as a registry key: the base
   sanitized ([pool.hits] -> [pool_hits]), a label suffix kept. *)
let key_of name =
  let base, labels = split_key name in
  sanitize_name base ^ labels

(* Sources are called outside the registry mutex: they take their own
   layers' latches, which must never nest inside this one. *)
let pull sources = List.concat_map (fun f -> List.map (fun (n, v) -> (key_of n, v)) (f ())) sources

let pulled t = pull (with_mu t (fun () -> t.sources))
let pulled_floats t = pull (with_mu t (fun () -> t.float_sources))

let get t name =
  match with_mu t (fun () -> Option.map ( ! ) (Hashtbl.find_opt t.counters name)) with
  | Some v -> v
  | None -> Option.value (List.assoc_opt name (pulled t)) ~default:0

(* Prometheus label-value escaping: exactly backslash, double quote
   and newline are escaped — nothing else.  (OCaml's [%S] is close but
   wrong: it emits [\t], decimal [\ddd] escapes and more, which the
   exposition format does not define.) *)
let escape_label_value v =
  let b = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

(* Labeled counters are stored under their canonical exposition key —
   name{k="v",...} with labels sorted by key — in the same table, so
   [render] and [dump] need no second code path. *)
let labeled_key name labels =
  match labels with
  | [] -> name
  | ls ->
      let ls = List.sort (fun (a, _) (b, _) -> String.compare a b) ls in
      name ^ "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) ls)
      ^ "}"

let add_labeled t name labels n = add t (labeled_key name labels) n
let incr_labeled t name labels = add_labeled t name labels 1
let get_labeled t name labels = get t (labeled_key name labels)

let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

let dump_floats t : (string * float) list = by_name (pulled_floats t)

let histogram_ref t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h = { buckets = Array.make nbuckets 0; hcount = 0; hsum = 0. } in
      Hashtbl.replace t.histograms name h;
      h

let observe t name (seconds : float) =
  with_mu t (fun () ->
      let h = histogram_ref t name in
      let i = bucket_of seconds in
      h.buckets.(i) <- h.buckets.(i) + 1;
      h.hcount <- h.hcount + 1;
      h.hsum <- h.hsum +. seconds)

(* Upper bound of the bucket where the cumulative count reaches [q]. *)
let percentile_of h (q : float) : float =
  if h.hcount = 0 then 0.
  else begin
    let target = Float.to_int (Float.round (q *. Float.of_int h.hcount)) in
    let target = max 1 target in
    let acc = ref 0 and res = ref (bucket_bound (nbuckets - 1)) in
    (try
       Array.iteri
         (fun i c ->
           acc := !acc + c;
           if !acc >= target then begin
             res := bucket_bound i;
             raise Exit
           end)
         h.buckets
     with Exit -> ());
    !res
  end

let percentile t name q =
  with_mu t (fun () ->
      match Hashtbl.find_opt t.histograms name with Some h -> percentile_of h q | None -> 0.)

let count t name =
  with_mu t (fun () -> match Hashtbl.find_opt t.histograms name with Some h -> h.hcount | None -> 0)

(* --- raw export ---------------------------------------------------------- *)

(* Exposition-friendly snapshot of one histogram: the raw bucket
   boundaries and counts (last bound is +infinity), so consumers don't
   re-derive the bucket math from rendered text. *)
type hdump = {
  bounds : float array;  (* upper bound per bucket; bounds.(nbuckets-1) = infinity *)
  counts : int array;
  total : int;
  sum : float;  (* seconds *)
}

let dump t : (string * int) list * (string * hdump) list =
  let pulled = pulled t in
  with_mu t (fun () ->
      let counters = by_name (Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters pulled) in
      let histograms =
        Hashtbl.fold
          (fun name h acc ->
            let bounds =
              Array.init nbuckets (fun i -> if i = nbuckets - 1 then Float.infinity else bucket_bound i)
            in
            (name, { bounds; counts = Array.copy h.buckets; total = h.hcount; sum = h.hsum }) :: acc)
          t.histograms []
        |> by_name
      in
      (counters, histograms))

(* --- rendering ---------------------------------------------------------- *)

let fmt_seconds (s : float) =
  if s < 1e-3 then Printf.sprintf "%.0fus" (s *. 1e6)
  else if s < 1. then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.3fs" s

let render t : string =
  let counters, _ = dump t in
  let b = Buffer.create 512 in
  List.iter (fun (name, v) -> Buffer.add_string b (Printf.sprintf "%-32s %d\n" name v)) counters;
  List.iter (fun (name, v) -> Buffer.add_string b (Printf.sprintf "%-32s %g\n" name v)) (dump_floats t);
  with_mu t (fun () ->
      Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.histograms []
      |> by_name
      |> List.iter (fun (name, h) ->
             let avg = if h.hcount = 0 then 0. else h.hsum /. Float.of_int h.hcount in
             Buffer.add_string b
               (Printf.sprintf "%-32s count=%d avg=%s p50=%s p95=%s p99=%s\n" name h.hcount
                  (fmt_seconds avg)
                  (fmt_seconds (percentile_of h 0.50))
                  (fmt_seconds (percentile_of h 0.95))
                  (fmt_seconds (percentile_of h 0.99)))));
  Buffer.contents b

(* --- Prometheus text exposition ------------------------------------------ *)

let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let fmt_bound v = if v = Float.infinity then "+Inf" else Printf.sprintf "%g" v

let render_prometheus ?(namespace = "aimii") t : string =
  let counters, histograms = dump t in
  let b = Buffer.create 2048 in
  let seen = Hashtbl.create 16 in
  (* every counter is exported as a gauge: registry counters also serve
     as gauges (sessions_active via add -1), sources report levels as
     well as totals, and a gauge is always safe to scrape *)
  List.iter
    (fun (key, v) ->
      let base, labels = split_key key in
      let name = namespace ^ "_" ^ sanitize_name base in
      if not (Hashtbl.mem seen name) then begin
        Hashtbl.replace seen name ();
        Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name base);
        Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" name)
      end;
      Buffer.add_string b (Printf.sprintf "%s%s %s\n" name labels v))
    (List.map (fun (k, v) -> (k, string_of_int v)) counters
    @ List.map (fun (k, v) -> (k, fmt_float v)) (dump_floats t));
  List.iter
    (fun (key, h) ->
      let name = namespace ^ "_" ^ sanitize_name key ^ "_seconds" in
      Buffer.add_string b (Printf.sprintf "# HELP %s %s (seconds)\n" name key);
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" name);
      let acc = ref 0 in
      Array.iteri
        (fun i c ->
          acc := !acc + c;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name (fmt_bound h.bounds.(i)) !acc))
        h.counts;
      Buffer.add_string b (Printf.sprintf "%s_sum %s\n" name (fmt_float h.sum));
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" name h.total))
    histograms;
  Buffer.contents b
