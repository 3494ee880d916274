(* wire_bench — the repo's benchmark of the path users hit.

   Untraced run (--trace 0): start the repo's own aimd (default config)
   as a separate process, load a seeded workload over the wire, run a
   warm-up and then a fixed, seeded op stream as a closed loop on one or
   two connections, check every answer, and print the end-to-end
   metrics.  Traced run (--trace 1): the same untraced wire run, then a
   replay of the same op stream in this process, without a socket, on a
   database configured by Session.create_manager; each layer is timed
   from outside by wrapping the public call the server makes, in the
   server's order.  The last stdout line is one JSON object.

   The workloads, their sizes and why each exists are recorded in
   BENCHMARK.json at the root of the repo. *)

module P = Nf2_server.Protocol
module Client = Nf2_server.Client
module Session = Nf2_server.Session
module Server = Nf2_server.Server
module Executor = Nf2_server.Executor
module Metrics = Nf2_server.Metrics
module Db = Nf2.Db
module Value = Nf2_model.Value
module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Rel = Nf2_algebra.Rel
module Gen = Nf2_workload.Generator
module Prng = Nf2_util.Prng
module Parser = Nf2_lang.Parser
module Rewrite = Nf2_lang.Rewrite
module Ast = Nf2_lang.Ast
module Wal = Nf2_storage.Wal
module Disk = Nf2_storage.Disk
module BP = Nf2_storage.Buffer_pool
module OS = Nf2_storage.Object_store

let now = Unix.gettimeofday
let fail fmt = Printf.ksprintf failwith fmt

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted_array l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Linear interpolation between order statistics of a sorted array. *)
let quantile (a : float array) p =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let r = p *. Float.of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((r -. Float.of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile (sorted_array l) 0.5
let mean l = match l with [] -> 0. | _ -> List.fold_left ( +. ) 0. l /. Float.of_int (List.length l)
let ratio a b = if b = 0 then 0. else Float.of_int a /. Float.of_int b

(* ------------------------------------------------------------------ *)
(* Canonical form of rendered cells                                    *)
(* ------------------------------------------------------------------ *)

(* Rendered NF² values list set elements in storage order; two answers
   are equal when they are equal as sets.  [canon] parses one rendered
   cell and prints it back with every set's elements sorted and
   deduplicated (list elements keep their order). *)
let canon (s : string) : string =
  let n = String.length s and i = ref 0 in
  let peek () = if !i < n then s.[!i] else '\000' in
  let skip_ws () = while !i < n && s.[!i] = ' ' do incr i done in
  let expect c =
    skip_ws ();
    if peek () <> c then fail "canon: expected %c at %d in %s" c !i s;
    incr i
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        incr i;
        "{" ^ String.concat ", " (List.sort_uniq String.compare (tuples '}')) ^ "}"
    | '<' ->
        incr i;
        "<" ^ String.concat ", " (tuples '>') ^ ">"
    | '\'' ->
        let b = Buffer.create 16 in
        Buffer.add_char b '\'';
        incr i;
        let rec go () =
          if !i >= n then fail "canon: unterminated string in %s" s
          else if s.[!i] = '\'' && !i + 1 < n && s.[!i + 1] = '\'' then begin
            Buffer.add_string b "''";
            i := !i + 2;
            go ()
          end
          else if s.[!i] = '\'' then begin
            Buffer.add_char b '\'';
            incr i
          end
          else begin
            Buffer.add_char b s.[!i];
            incr i;
            go ()
          end
        in
        go ();
        Buffer.contents b
    | _ ->
        let st = !i in
        while !i < n && not (String.contains ",)}> " s.[!i]) do
          incr i
        done;
        if !i = st then fail "canon: empty atom at %d in %s" st s;
        String.sub s st (!i - st)
  and tuple () =
    expect '(';
    skip_ws ();
    if peek () = ')' then begin
      incr i;
      "()"
    end
    else
      let rec more acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | ',' ->
            incr i;
            more (v :: acc)
        | ')' ->
            incr i;
            "(" ^ String.concat ", " (List.rev (v :: acc)) ^ ")"
        | _ -> fail "canon: bad tuple at %d in %s" !i s
      in
      more []
  and tuples close =
    skip_ws ();
    if peek () = close then begin
      incr i;
      []
    end
    else
      let rec more acc =
        let t = tuple () in
        skip_ws ();
        if peek () = ',' then begin
          incr i;
          more (t :: acc)
        end
        else if peek () = close then begin
          incr i;
          List.rev (t :: acc)
        end
        else fail "canon: bad table at %d in %s" !i s
      in
      more []
  in
  let v = value () in
  skip_ws ();
  if !i <> n then fail "canon: trailing input in %s" s;
  v

(* An answer as a set of rows, each row its canonical cells. *)
let answer_key (rows : string list list) : string list =
  List.sort_uniq String.compare (List.map (fun r -> String.concat "\x1f" (List.map canon r)) rows)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type expect =
  | Rows of string list  (** the answer's [answer_key] *)
  | Affected of int  (** a Row_count with this many rows touched *)
  | Committed  (** a script ending in COMMIT *)

type op = { cls : int; sql : string; expect : expect }

type workload = {
  name : string;
  classes : string array;  (** op classes, in rotation order *)
  connections : int;
  load : string list;  (** set-up statements, each its own Query frame *)
  warmup : op array array;  (** per connection, outside the timed window *)
  timed : op array array;  (** per connection *)
  final_sql : string option;  (** read after the loop, checked against *)
  final_expect : string list;
  shape_class : string -> int option;  (** SYS_STATEMENTS shape -> class *)
}

let cell (v : Value.v) = Value.render_v v
let vi n = Value.Atom (Atom.Int n)
let vs s = Value.Atom (Atom.Str s)
let vset tuples = Value.Table { Value.kind = Schema.Set; tuples }

(* One INSERT per table: every commit re-captures the whole table today,
   so a chunked load would cost O(n^2) and leave MVCC copies behind. *)
let insert_all table (tuples : Value.tuple list) =
  Printf.sprintf "INSERT INTO %s VALUES %s" table (String.concat ", " (List.map Value.render_tuple tuples))

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Op counts are fixed by the workload and --seconds (nominal rate ×
   seconds), never by the clock, so every run of a seed does the same
   work. *)
let op_count ~rate ~seconds ~min = max min (int_of_float (rate *. Float.of_int seconds))

(* point-oltp: 5,000 ORDERS objects, one connection, a fixed rotation of
   nine point reads then one point update of a non-key attribute. *)
let point_oltp ~seed ~seconds : workload =
  let n = 5000 in
  let rng = Prng.create (seed * 7919 + 1) in
  let statuses = [| "open"; "paid"; "shipped" |] in
  let cust = Array.init (n + 1) (fun _ -> "C" ^ Prng.word rng 7) in
  let status = Array.init (n + 1) (fun _ -> Prng.pick rng statuses) in
  let lines =
    Array.init (n + 1) (fun _ ->
        List.init 3 (fun _ -> [ vi (Prng.in_range rng 1 99999); vi (Prng.in_range rng 1 50) ]))
  in
  let tuple k = [ vi k; vs cust.(k); vs status.(k); vset lines.(k) ] in
  let load =
    [ "CREATE TABLE ORDERS (OID INT, CUST TEXT, STATUS TEXT, LINES TABLE (SKU INT, QTY INT))" ]
    @ [ insert_all "ORDERS" (List.init n (fun k -> tuple (k + 1))) ]
    @ [ "CREATE INDEX ON ORDERS (OID)" ]
  in
  let gen count =
    Array.init count (fun i ->
        let k = Prng.in_range rng 1 n in
        if i mod 10 = 9 then begin
          let c = "U" ^ Prng.word rng 7 in
          cust.(k) <- c;
          { cls = 1; sql = Printf.sprintf "UPDATE ORDERS SET CUST = '%s' WHERE OID = %d" c k; expect = Affected 1 }
        end
        else
          {
            cls = 0;
            sql = Printf.sprintf "SELECT x.OID, x.CUST, x.STATUS, x.LINES FROM x IN ORDERS WHERE x.OID = %d" k;
            expect = Rows (answer_key [ List.map cell (tuple k) ]);
          })
  in
  let warmup = gen 100 in
  let timed = gen (op_count ~rate:120. ~seconds ~min:1000 / 10 * 10) in
  {
    name = "point-oltp";
    classes = [| "point_read"; "point_update" |];
    connections = 1;
    load;
    warmup = [| warmup |];
    timed = [| timed |];
    final_sql = None;
    final_expect = [];
    shape_class =
      (fun s ->
        if String.starts_with ~prefix:"UPDATE ORDERS" s then Some 1
        else if String.starts_with ~prefix:"SELECT x.OID" s then Some 0
        else None);
  }

(* nested-report: 400 generated departments plus flat EMPLOYEES_1NF,
   one connection, read-only, rotating over four paper query shapes. *)
let nested_report ~seed ~seconds : workload =
  let ndept = 400 in
  let params =
    { Gen.departments = ndept; projects_per_dept = 5; members_per_project = 8; equip_per_dept = 6; seed }
  in
  let depts = Array.of_list (Gen.departments ~params ()) in
  let emps = Gen.employees_for ~seed (Array.to_list depts) in
  let emp_by_no = Hashtbl.create 20000 in
  List.iter (function (Value.Atom (Atom.Int e) :: _ as row) -> Hashtbl.replace emp_by_no e row | _ -> ()) emps;
  let load =
    [
      "CREATE TABLE DEPARTMENTS (DNO INT, MGRNO INT, PROJECTS TABLE (PNO INT, PNAME TEXT, MEMBERS \
       TABLE (EMPNO INT, FUNCTION TEXT)), BUDGET INT, EQUIP TABLE (QU INT, TYPE TEXT))";
      "CREATE TABLE EMPLOYEES_1NF (EMPNO INT, LNAME TEXT, FNAME TEXT, SEX TEXT)";
    ]
    @ [
        insert_all "DEPARTMENTS" (Array.to_list depts);
        insert_all "EMPLOYEES_1NF" emps;
        "CREATE INDEX ON DEPARTMENTS (DNO)";
        "CREATE INDEX ON EMPLOYEES_1NF (EMPNO)";
      ]
  in
  let fields = function
    | [ Value.Atom (Atom.Int dno); mgr; Value.Table projects; budget; equip ] -> (dno, mgr, projects, budget, equip)
    | _ -> fail "unexpected department tuple"
  in
  let in_range lo hi = List.filter (fun d -> let dno, _, _, _, _ = fields d in dno >= lo && dno < hi) (Array.to_list depts) in
  let members p = match p with [ pno; pname; Value.Table ms ] -> (pno, pname, ms.Value.tuples) | _ -> fail "project" in
  let str_of = function Value.Atom (Atom.Str s) -> s | _ -> "" in
  let rng = Prng.create (seed * 104729 + 3) in
  let unnest () =
    let lo = Prng.in_range rng 100 (100 + ndept - 20) in
    let rows =
      List.concat_map
        (fun d ->
          let dno, mgr, projects, _, _ = fields d in
          List.concat_map
            (fun p ->
              let pno, pname, ms = members p in
              List.map (fun m -> [ cell (vi dno); cell mgr; cell pno; cell pname ] @ List.map cell m) ms)
            projects.Value.tuples)
        (in_range lo (lo + 20))
    in
    {
      cls = 0;
      sql =
        Printf.sprintf
          "SELECT x.DNO, x.MGRNO, y.PNO, y.PNAME, z.EMPNO, z.FUNCTION FROM x IN DEPARTMENTS, y IN \
           x.PROJECTS, z IN y.MEMBERS WHERE x.DNO >= %d AND x.DNO < %d"
          lo (lo + 20);
      expect = Rows (answer_key rows);
    }
  in
  let nest () =
    let lo = Prng.in_range rng 100 (100 + ndept - 10) in
    let rows = List.map (fun d -> List.map cell d) (in_range lo (lo + 10)) in
    {
      cls = 1;
      sql =
        Printf.sprintf
          "SELECT x.DNO, x.MGRNO, (SELECT y.PNO, y.PNAME, (SELECT z.EMPNO, z.FUNCTION FROM z IN \
           y.MEMBERS) = MEMBERS FROM y IN x.PROJECTS) = PROJECTS, x.BUDGET, (SELECT v.QU, v.TYPE \
           FROM v IN x.EQUIP) = EQUIP FROM x IN DEPARTMENTS WHERE x.DNO >= %d AND x.DNO < %d"
          lo (lo + 10);
      expect = Rows (answer_key rows);
    }
  in
  let quant () =
    let lo = Prng.in_range rng 100 (100 + ndept - 100) in
    let keep d =
      let _, _, projects, _, equip = fields d in
      let equip = match equip with Value.Table t -> t.Value.tuples | _ -> [] in
      List.exists (function [ _; ty ] -> str_of ty = "PC/AT" | _ -> false) equip
      && List.for_all
           (fun p ->
             let _, _, ms = members p in
             List.exists (function [ _; f ] -> str_of f = "Leader" | _ -> false) ms)
           projects.Value.tuples
    in
    let rows =
      List.filter_map
        (fun d ->
          if keep d then
            let dno, mgr, _, budget, _ = fields d in
            Some [ cell (vi dno); cell mgr; cell budget ]
          else None)
        (in_range lo (lo + 100))
    in
    {
      cls = 2;
      sql =
        Printf.sprintf
          "SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO >= %d AND x.DNO < %d \
           AND (EXISTS y IN x.EQUIP : y.TYPE = 'PC/AT') AND (ALL p IN x.PROJECTS : (EXISTS z IN \
           p.MEMBERS : z.FUNCTION = 'Leader'))"
          lo (lo + 100);
      expect = Rows (answer_key rows);
    }
  in
  let join () =
    let dno = Prng.in_range rng 100 (100 + ndept - 1) in
    let rows =
      List.map
        (fun d ->
          let dno, mgr, projects, _, _ = fields d in
          let inner =
            List.concat_map
              (fun p ->
                let _, _, ms = members p in
                List.filter_map
                  (function
                    | [ Value.Atom (Atom.Int e); f ] -> (
                        match Hashtbl.find_opt emp_by_no e with
                        | Some emp -> Some (emp @ [ f ])
                        | None -> None)
                    | _ -> None)
                  ms)
              projects.Value.tuples
          in
          [ cell (vi dno); cell mgr; cell (vset inner) ])
        (in_range dno (dno + 1))
    in
    {
      cls = 3;
      sql =
        Printf.sprintf
          "SELECT x.DNO, x.MGRNO, (SELECT e.EMPNO, e.LNAME, e.FNAME, e.SEX, z.FUNCTION FROM y IN \
           x.PROJECTS, z IN y.MEMBERS, e IN EMPLOYEES_1NF WHERE z.EMPNO = e.EMPNO) = EMPLOYEES FROM x \
           IN DEPARTMENTS WHERE x.DNO = %d"
          dno;
      expect = Rows (answer_key rows);
    }
  in
  let gen count = Array.init count (fun i -> match i mod 4 with 0 -> unnest () | 1 -> nest () | 2 -> quant () | _ -> join ()) in
  let warmup = gen 40 in
  let timed = gen (op_count ~rate:100. ~seconds ~min:400 / 4 * 4) in
  {
    name = "nested-report";
    classes = [| "unnest"; "nest"; "quant"; "join" |];
    connections = 1;
    load;
    warmup = [| warmup |];
    timed = [| timed |];
    final_sql = None;
    final_expect = [];
    shape_class =
      (fun s ->
        if contains "SYS_" s || not (String.starts_with ~prefix:"SELECT" s) then None
        else if contains "EMPLOYEES_1NF" s then Some 3
        else if contains "EXISTS" s then Some 2
        else if contains "(SELECT y.PNO" s then Some 1
        else Some 0);
  }

(* ledger-ingest: 64 accounts with a window of four entries each, two
   connections on disjoint halves; each op is one txn that appends an
   entry, deletes the oldest and updates the balance. *)
let ledger_ingest ~seed ~seconds : workload =
  let nacct = 64 and window = 4 in
  let rng = Prng.create (seed * 15485863 + 5) in
  let entries = Array.init (nacct + 1) (fun _ -> Queue.create ()) in
  let bal = Array.make (nacct + 1) 0 in
  let next_seq = Array.make (nacct + 1) (window + 1) in
  for a = 1 to nacct do
    for s = 1 to window do
      let amt = Prng.in_range rng 1 100 in
      Queue.add (s, amt) entries.(a);
      bal.(a) <- bal.(a) + amt
    done
  done;
  let tuple a =
    [ vi a; vi bal.(a); vset (List.map (fun (s, m) -> [ vi s; vi m ]) (List.of_seq (Queue.to_seq entries.(a)))) ]
  in
  let load =
    [ "CREATE TABLE LEDGER (ACCT INT, BAL INT, ENTRIES TABLE (SEQ INT, AMT INT))" ]
    @ [ insert_all "LEDGER" (List.init nacct (fun a -> tuple (a + 1))) ]
    @ [ "CREATE INDEX ON LEDGER (ACCT)" ]
  in
  let half = nacct / 2 in
  let gen conn count =
    Array.init count (fun _ ->
        let a = (conn * half) + Prng.in_range rng 1 half in
        let seq = next_seq.(a) and amt = Prng.in_range rng 1 100 in
        next_seq.(a) <- seq + 1;
        let old, _ = Queue.pop entries.(a) in
        Queue.add (seq, amt) entries.(a);
        bal.(a) <- bal.(a) + amt;
        {
          cls = 0;
          sql =
            Printf.sprintf
              "BEGIN; INSERT INTO LEDGER.ENTRIES WHERE ACCT = %d VALUES (%d, %d); DELETE FROM \
               LEDGER.ENTRIES WHERE ACCT = %d AND SEQ = %d; UPDATE LEDGER SET BAL = %d WHERE ACCT = \
               %d; COMMIT"
              a seq amt a old bal.(a) a;
          expect = Committed;
        })
  in
  (* streams are drawn connection by connection from one generator, so
     they do not depend on how the server interleaves them *)
  let per_conn = op_count ~rate:500. ~seconds ~min:1000 / 2 in
  let warmup = [| gen 0 50; gen 1 50 |] in
  let timed = [| gen 0 per_conn; gen 1 per_conn |] in
  let final_expect = answer_key (List.init nacct (fun a -> List.map cell (tuple (a + 1)))) in
  {
    name = "ledger-ingest";
    classes = [| "txn" |];
    connections = 2;
    load;
    warmup;
    timed;
    final_sql = Some "SELECT x.ACCT, x.BAL, x.ENTRIES FROM x IN LEDGER";
    final_expect;
    shape_class = (fun s -> if String.starts_with ~prefix:"SELECT" s then None else Some 0);
  }

let workloads = [ ("point-oltp", point_oltp); ("nested-report", nested_report); ("ledger-ingest", ledger_ingest) ]

(* ------------------------------------------------------------------ *)
(* Answer checks                                                       *)
(* ------------------------------------------------------------------ *)

let check (e : expect) (r : P.response) =
  match (e, r) with
  | Rows key, P.Result_table { rows; _ } -> ( try answer_key rows = key with Failure _ -> false)
  | Affected n, P.Row_count { affected; _ } -> affected = n
  | Committed, P.Row_count { message; _ } -> message = "committed"
  | _ -> false

let describe = function
  | P.Error { code; message } -> Printf.sprintf "error %s: %s" code message
  | P.Result_table { rows; _ } -> Printf.sprintf "%d row(s)" (List.length rows)
  | P.Row_count { message; _ } -> message
  | _ -> "unexpected response"

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; port : int; drain : Thread.t }

let live_pids : int list ref = ref []

let start_server aimd : server =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process aimd [| aimd; "--port"; "0" |] null wr null in
  live_pids := pid :: !live_pids;
  Unix.close wr;
  Unix.close null;
  let ic = Unix.in_channel_of_descr rd in
  let banner = try input_line ic with End_of_file -> fail "aimd exited before listening" in
  (* "aimd: listening on 127.0.0.1:PORT (...)" *)
  let port =
    try Scanf.sscanf banner "aimd: listening on %_[^:]:%d" (fun p -> p)
    with _ -> fail "unexpected aimd banner: %s" banner
  in
  (* keep reading so the shutdown report never blocks on a full pipe *)
  let drain = Thread.create (fun () -> try while true do ignore (input_line ic) done with _ -> close_in_noerr ic) () in
  { pid; port; drain }

(* Nothing after the measurement needs the server's graceful shutdown
   (rollback, checkpoint, metrics dump), so it is killed outright. *)
let stop_server (s : server) =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error (Unix.ECHILD, _, _) -> ());
  live_pids := List.filter (( <> ) s.pid) !live_pids;
  Thread.join s.drain

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_pids;
  live_pids := []

(* Peak resident set of a process, from /proc, in MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Float.of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> fail "no VmHWM for pid %d" pid
      in
      go ())

let query_ok c sql =
  match Client.request c (P.Query sql) with
  | Some (P.Error _ as r) | Some (P.Bye as r) -> fail "set-up statement failed (%s): %s" (describe r) sql
  | Some r -> r
  | None -> fail "server hung up on: %s" sql

(* From launching aimd until the workload is loaded, indexed and the
   server answers. *)
let setup aimd (w : workload) =
  let t0 = now () in
  let s = start_server aimd in
  let c = Client.connect ~host:"127.0.0.1" ~port:s.port in
  List.iter (fun sql -> ignore (query_ok c sql)) w.load;
  (match Client.request c P.Ping with Some P.Pong -> () | _ -> fail "no pong after set-up");
  (s, c, now () -. t0)

(* ------------------------------------------------------------------ *)
(* The untraced wire run                                               *)
(* ------------------------------------------------------------------ *)

(* One SYS_STATEMENTS row: the server's own figures for one statement
   shape (constants normalised to ?N). *)
type stmt_row = {
  shape : string;
  total_ms : float;
  pool_accesses : int;
  log_records : int;
  log_bytes : int;
  lock_wait_ms : float;
}

type wire_result = {
  setups : float list;
  lat : float list array;  (** per class, seconds, timed window only *)
  ops_per_s : float;
  attempted : int;
  failed : int;
  rss_mb : float;
  stmts : stmt_row list;  (** SYS_STATEMENTS after the timed loop *)
  batches : int;
  batch_txns : int;
}

let min_setups = 3
let max_setups = 15
let setup_budget = 3.0

type sample = { t_end : float; cls : int; lat : float }

(* Throughput as the median over ten consecutive, equal-count slices of
   the op completions (across connections): a short host stall moves one
   slice, not the result. *)
let sliced_rate t0 (a : sample array) =
  let n = Array.length a in
  let per = max 1 (n / 10) in
  median
    (List.init (n / per) (fun k ->
         let start = if k = 0 then t0 else a.((k * per) - 1).t_end in
         Float.of_int per /. (a.(((k + 1) * per) - 1).t_end -. start)))

(* Drive every connection's stream as a closed loop, one thread per
   connection.  Answers are checked after the loop, so the client's
   checking work never sits between two requests.  Returns every sample
   sorted by completion, the start time and the number of failed ops. *)
let drive (w : workload) clients (streams : op array array) =
  let mu = Mutex.create () and samples = ref [] and answers = ref [] in
  let run_conn k =
    let c = clients.(k) in
    let mine = ref [] and got = ref [] in
    Array.iter
      (fun (op : op) ->
        let t0 = now () in
        let r = Client.request c (P.Query op.sql) in
        let t1 = now () in
        mine := { t_end = t1; cls = op.cls; lat = t1 -. t0 } :: !mine;
        got := (op, r) :: !got)
      streams.(k);
    Mutex.lock mu;
    samples := !mine @ !samples;
    answers := !got @ !answers;
    Mutex.unlock mu
  in
  let t0 = now () in
  let threads = Array.mapi (fun k _ -> Thread.create run_conn k) streams in
  Array.iter Thread.join threads;
  let failed =
    List.fold_left
      (fun n ((op : op), r) ->
        match r with
        | Some r when check op.expect r -> n
        | r ->
            if n < 3 then
              Printf.eprintf "failed %s op: %s -> %s\n%!" w.classes.(op.cls) op.sql
                (match r with Some r -> describe r | None -> "hang-up");
            n + 1)
      0 !answers
  in
  let a = Array.of_list !samples in
  Array.sort (fun x y -> Float.compare x.t_end y.t_end) a;
  (a, t0, failed)

(* A rendered TEXT cell back to its string: strip the quotes, undouble ''. *)
let unquote s =
  let n = String.length s in
  if n >= 2 && s.[0] = '\'' && s.[n - 1] = '\'' then
    let b = Buffer.create n and i = ref 1 in
    while !i < n - 1 do
      Buffer.add_char b s.[!i];
      i := !i + if s.[!i] = '\'' then 2 else 1
    done;
    Buffer.contents b
  else s

let sys_rows c sql =
  match Client.request c (P.Query sql) with
  | Some (P.Result_table { rows; _ }) -> rows
  | r -> fail "%s: %s" sql (match r with Some r -> describe r | None -> "hang-up")

let wal_batches c =
  match sys_rows c "SELECT w.BATCHES, w.BATCH_TXNS FROM w IN SYS_WAL" with
  | [ [ b; t ] ] -> (int_of_string b, int_of_string t)
  | _ -> fail "unexpected SYS_WAL answer"

let wire_run aimd (w : workload) : wire_result =
  (* set up at least [min_setups] times and until [setup_budget]
     seconds went into it (a cheap set-up repeats more, so its median
     steadies too); the last server is the one measured *)
  let rec setups acc n spent =
    let s, c, dt = setup aimd w in
    let spent = spent +. dt in
    if n + 1 >= max_setups || (n + 1 >= min_setups && spent >= setup_budget) then (s, c, List.rev (dt :: acc))
    else begin
      Client.close c;
      stop_server s;
      setups (dt :: acc) (n + 1) spent
    end
  in
  let s, c0, setup_times = setups [] 0 0. in
  let clients = Array.init w.connections (fun k -> if k = 0 then c0 else Client.connect ~host:"127.0.0.1" ~port:s.port) in
  let _, _, warm_failed = drive w clients w.warmup in
  (match Client.request c0 P.Sys_reset with Some (P.Error _) | None -> fail "Sys_reset refused" | Some _ -> ());
  let b0, t0 = wal_batches c0 in
  let samples, t_start, failed = drive w clients w.timed in
  let lat =
    Array.init (Array.length w.classes) (fun c ->
        Array.fold_right (fun x acc -> if x.cls = c then x.lat :: acc else acc) samples [])
  in
  let ops_per_s = sliced_rate t_start samples in
  let b1, t1 = wal_batches c0 in
  let stmts =
    sys_rows c0
      "SELECT s.SHAPE, s.TOTAL_MS, s.POOL_HITS, s.POOL_MISSES, s.WAL_RECORDS, s.WAL_BYTES, \
       s.LOCK_WAIT_MS FROM s IN SYS_STATEMENTS"
    |> List.map (function
         | [ shape; total; hits; misses; records; bytes; wait ] ->
             {
               shape = unquote shape;
               total_ms = float_of_string total;
               pool_accesses = int_of_string hits + int_of_string misses;
               log_records = int_of_string records;
               log_bytes = int_of_string bytes;
               lock_wait_ms = float_of_string wait;
             }
         | _ -> fail "unexpected SYS_STATEMENTS row")
  in
  let final_failed =
    match w.final_sql with
    | None -> 0
    | Some sql -> (
        match Client.request c0 (P.Query sql) with
        | Some (P.Result_table { rows; _ }) when (try answer_key rows = w.final_expect with Failure _ -> false) -> 0
        | r ->
            Printf.eprintf "final state check failed: %s\n%!" (match r with Some r -> describe r | None -> "hang-up");
            1)
  in
  let rss_mb = peak_rss_mb s.pid in
  Array.iter Client.close clients;
  stop_server s;
  (* every checked answer counts: warm-up, timed ops, final state *)
  let ops streams = Array.fold_left (fun n a -> n + Array.length a) 0 streams in
  let attempted = ops w.warmup + ops w.timed + if w.final_sql = None then 0 else 1 in
  {
    setups = setup_times;
    lat;
    ops_per_s;
    attempted;
    failed = warm_failed + failed + final_failed;
    rss_mb;
    stmts;
    batches = b1 - b0;
    batch_txns = t1 - t0;
  }

(* ------------------------------------------------------------------ *)
(* The traced replay                                                   *)
(* ------------------------------------------------------------------ *)

(* Counter snapshot.  Wal.stats and Disk.stats hand out their live
   mutable records, so every field is copied here; a delta of two
   uncopied records would always read 0. *)
type counters = {
  hits : int;
  misses : int;
  evictions : int;
  disk_reads : int;
  disk_writes : int;
  wal_records : int;
  wal_bytes : int;
  st_reads : int;
  st_writes : int;
  seq_scans : int;
  index_scans : int;
}

let counters db =
  let p = BP.stats (Db.pool db) in
  let d = Disk.stats (Db.disk db) in
  let wal_records, wal_bytes =
    match Db.wal db with
    | Some w ->
        let s = Wal.stats w in
        (s.Wal.records, s.Wal.bytes)
    | None -> (0, 0)
  in
  let st_reads, st_writes =
    List.fold_left
      (fun (r, wr) table ->
        let s = OS.stats (Db.table_store db ~table) in
        (r + s.OS.md_reads + s.OS.data_reads, wr + s.OS.subtuple_writes))
      (0, 0) (Db.table_names db)
  in
  let pc = Db.planner_counters db in
  {
    hits = p.BP.hits;
    misses = p.BP.misses;
    evictions = p.BP.evictions;
    disk_reads = d.Disk.reads;
    disk_writes = d.Disk.writes;
    wal_records;
    wal_bytes;
    st_reads;
    st_writes;
    seq_scans = pc.Db.seq_scans;
    index_scans = pc.Db.index_scans;
  }

let diff a b =
  {
    hits = b.hits - a.hits;
    misses = b.misses - a.misses;
    evictions = b.evictions - a.evictions;
    disk_reads = b.disk_reads - a.disk_reads;
    disk_writes = b.disk_writes - a.disk_writes;
    wal_records = b.wal_records - a.wal_records;
    wal_bytes = b.wal_bytes - a.wal_bytes;
    st_reads = b.st_reads - a.st_reads;
    st_writes = b.st_writes - a.st_writes;
    seq_scans = b.seq_scans - a.seq_scans;
    index_scans = b.index_scans - a.index_scans;
  }

let zero =
  {
    hits = 0;
    misses = 0;
    evictions = 0;
    disk_reads = 0;
    disk_writes = 0;
    wal_records = 0;
    wal_bytes = 0;
    st_reads = 0;
    st_writes = 0;
    seq_scans = 0;
    index_scans = 0;
  }

let add a b =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    evictions = a.evictions + b.evictions;
    disk_reads = a.disk_reads + b.disk_reads;
    disk_writes = a.disk_writes + b.disk_writes;
    wal_records = a.wal_records + b.wal_records;
    wal_bytes = a.wal_bytes + b.wal_bytes;
    st_reads = a.st_reads + b.st_reads;
    st_writes = a.st_writes + b.st_writes;
    seq_scans = a.seq_scans + b.seq_scans;
    index_scans = a.index_scans + b.index_scans;
  }

(* Span names, in the server's order. *)
let span_names =
  [| "parse"; "rewrite"; "pin"; "exec_read"; "plan"; "exec_write"; "commit"; "sync"; "render"; "encode"; "decode" |]

let span_index name =
  let rec go i = if span_names.(i) = name then i else go (i + 1) in
  go 0

(* Spans on the serving path; "plan" re-plans via EXPLAIN and is not. *)
let on_path name = name <> "plan"

type replay = {
  spans : float list array array;  (** [class][span] seconds, per op that ran the span *)
  mutable ops : int;
  mutable reads : int;
  mutable commits : int;
  mutable rows : int;
  mutable bytes : int;  (** encoded responses that carried rows *)
  mutable total : counters;  (** every timed op *)
  mutable read_total : counters;  (** around exec_read *)
  mutable commit_total : counters;  (** around Db.commit *)
  per_class : counters array;  (** every timed op, by class *)
  mutable failed : int;
  mutable mvcc_bytes : int;
  mutable mvcc_versions : int;
}

(* The response the server sends for a statement result (what
   Session.response_of_result does), with the time spent rendering cells. *)
let response_of_result = function
  | Db.Rows rel ->
      let columns = List.map (fun (f : Schema.field) -> f.Schema.name) rel.Rel.schema.Schema.fields in
      let t0 = now () in
      let rows = List.map (List.map Value.render_v) (Rel.tuples rel) in
      (P.Result_table { columns; rows }, now () -. t0, List.length rows)
  | Db.Msg m ->
      let affected =
        match String.split_on_char ' ' m with
        | first :: _ -> Option.value (int_of_string_opt first) ~default:0
        | [] -> 0
      in
      (P.Row_count { affected; message = m }, 0., 0)

let replay_run (w : workload) : replay =
  let cfg = Server.default_config in
  let db = Db.create ~wal:true () in
  let executor = Executor.create ~domains:(Server.effective_domains cfg) in
  let mgr =
    Session.create_manager ~lock_timeout:cfg.Server.lock_timeout ~group_commit:cfg.Server.group_commit
      ~group_window:cfg.Server.group_window ~wal_appender:cfg.Server.wal_appender ~executor
      ~metrics:(Metrics.create ()) db
  in
  let sess = Session.open_session mgr ~sid:1 in
  List.iter
    (fun sql ->
      match Session.handle sess (P.Query sql) with
      | P.Error { message; _ } -> fail "replay set-up failed: %s: %s" message sql
      | _ -> ())
    w.load;
  let wal = match Db.wal db with Some l -> l | None -> fail "no WAL" in
  let ncls = Array.length w.classes in
  let rp =
    {
      spans = Array.init ncls (fun _ -> Array.make (Array.length span_names) []);
      ops = 0;
      reads = 0;
      commits = 0;
      rows = 0;
      bytes = 0;
      total = zero;
      read_total = zero;
      commit_total = zero;
      per_class = Array.make ncls zero;
      failed = 0;
      mvcc_bytes = 0;
      mvcc_versions = 0;
    }
  in
  let run_op ~record (op : op) =
    (* per-op span times; nan = the op did not enter that layer *)
    let times = Array.make (Array.length span_names) nan in
    let span name t0 =
      let i = span_index name in
      times.(i) <- (if Float.is_nan times.(i) then 0. else times.(i)) +. (now () -. t0)
    in
    let before = counters db in
    let read_delta = ref zero and commit_delta = ref zero in
    let t = now () in
    let stmts = Parser.parse_script op.sql in
    span "parse" t;
    let t = now () in
    let stmts = List.map Rewrite.rewrite_stmt stmts in
    span "rewrite" t;
    let commit () =
      let t = now () in
      let c0 = counters db in
      Db.commit db;
      let lsn = Wal.last_lsn wal in
      commit_delta := diff c0 (counters db);
      span "commit" t;
      let t = now () in
      Wal.sync_to wal lsn;
      span "sync" t
    in
    let result =
      match stmts with
      | [ (Ast.Select q as stmt) ] ->
          (* a plain read: pinned MVCC snapshot, evaluated on the executor *)
          let t = now () in
          let snap = Db.snapshot db in
          span "pin" t;
          let c0 = counters db in
          let t = now () in
          let r = Executor.run executor (fun () -> Db.exec_read ~rewrite:false db snap stmt) in
          span "exec_read" t;
          read_delta := diff c0 (counters db);
          let t = now () in
          ignore (Db.exec_read ~rewrite:false db snap (Ast.Explain q));
          span "plan" t;
          let t = now () in
          Db.release_snapshot db snap;
          span "pin" t;
          r
      | Ast.Begin_txn :: body ->
          (* an explicit transaction in one frame; the frame answers with
             its last statement's result *)
          let t = now () in
          Db.begin_txn db;
          let rec go = function
            | [ Ast.Commit ] ->
                span "exec_write" t;
                commit ();
                Db.Msg "committed"
            | s :: rest ->
                ignore (Db.exec_stmt ~rewrite:false db s);
                go rest
            | [] -> fail "transaction script without COMMIT: %s" op.sql
          in
          go body
      | [ stmt ] ->
          (* an autocommit write *)
          let t = now () in
          Db.begin_txn db;
          let r = Db.exec_stmt ~rewrite:false db stmt in
          span "exec_write" t;
          commit ();
          r
      | _ -> fail "unsupported op shape: %s" op.sql
    in
    let resp, render_s, rows = response_of_result result in
    if rows > 0 then times.(span_index "render") <- render_s;
    let t = now () in
    let bytes = P.encode_response resp in
    span "encode" t;
    let t = now () in
    let decoded = P.decode_response bytes in
    span "decode" t;
    let delta = diff before (counters db) in
    if not (check op.expect decoded) then rp.failed <- rp.failed + 1;
    if record then begin
      Array.iteri (fun i v -> if not (Float.is_nan v) then rp.spans.(op.cls).(i) <- v :: rp.spans.(op.cls).(i)) times;
      rp.ops <- rp.ops + 1;
      if not (Float.is_nan times.(span_index "exec_read")) then rp.reads <- rp.reads + 1;
      if not (Float.is_nan times.(span_index "commit")) then rp.commits <- rp.commits + 1;
      if rows > 0 then begin
        rp.rows <- rp.rows + rows;
        rp.bytes <- rp.bytes + String.length bytes
      end;
      rp.total <- add rp.total delta;
      rp.read_total <- add rp.read_total !read_delta;
      rp.commit_total <- add rp.commit_total !commit_delta;
      rp.per_class.(op.cls) <- add rp.per_class.(op.cls) delta
    end
  in
  (* connections' streams interleave round-robin; they touch disjoint
     data, so the order does not change any answer *)
  let interleave streams f =
    let longest = Array.fold_left (fun m a -> max m (Array.length a)) 0 streams in
    for i = 0 to longest - 1 do
      Array.iter (fun a -> if i < Array.length a then f a.(i)) streams
    done
  in
  interleave w.warmup (run_op ~record:false);
  interleave w.timed (run_op ~record:true);
  (match w.final_sql with
  | None -> ()
  | Some sql -> (
      match Session.handle sess (P.Query sql) with
      | P.Result_table { rows; _ } when answer_key rows = w.final_expect -> ()
      | _ -> rp.failed <- rp.failed + 1));
  let mv = Db.mvcc_stats db in
  rp.mvcc_bytes <- mv.Nf2_temporal.Mvcc.bytes_live;
  rp.mvcc_versions <- mv.Nf2_temporal.Mvcc.versions_live;
  Session.close_session sess;
  Executor.shutdown executor;
  Wal.set_async_appender wal false;
  rp

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

type metric = { mname : string; value : float; unit_ : string }

let json_result ~correct ~attempted ~failed (ms : metric list) =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted failed
    (String.concat ", "
       (List.map (fun m -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.mname m.value m.unit_) ms))

let end_to_end (w : workload) (r : wire_result) =
  let ms = 1e3 in
  let p50s = Array.map (fun l -> median l *. ms) r.lat in
  Array.iteri
    (fun i name ->
      let a = sorted_array r.lat.(i) in
      let p90 = quantile a 0.9 in
      let beyond = Array.fold_left (fun n x -> if x > p90 then n + 1 else n) 0 a in
      (* a p90 is printed only where at least ten samples lie beyond it *)
      Printf.printf "  %-13s n=%-5d %s_p50_ms=%.3f%s\n" name (Array.length a) name p50s.(i)
        (if beyond >= 10 then Printf.sprintf "  %s_p90_ms=%.3f (%d beyond)" name (p90 *. ms) beyond
         else "  (no p90: fewer than 10 samples beyond it)"))
    w.classes;
  let p50l = Array.to_list p50s in
  [
    { mname = "ops_per_s"; value = r.ops_per_s; unit_ = "1/s" };
    { mname = "setup_s"; value = median r.setups; unit_ = "s" };
    { mname = "server_rss_mb"; value = r.rss_mb; unit_ = "MiB" };
    { mname = "class_p50_min_ms"; value = List.fold_left Float.min infinity p50l; unit_ = "ms" };
    { mname = "class_p50_max_ms"; value = List.fold_left Float.max 0. p50l; unit_ = "ms" };
    { mname = "class_p50_sum_ms"; value = List.fold_left ( +. ) 0. p50l; unit_ = "ms" };
  ]

let per_layer (w : workload) (wire : wire_result) (rp : replay) =
  let ncls = Array.length w.classes in
  let all name =
    let i = span_index name in
    List.concat (List.init ncls (fun c -> rp.spans.(c).(i)))
  in
  let mean_of name = mean (all name) in
  let per_op x = ratio x rp.ops in
  let timed_ops = Array.fold_left (fun n l -> n + List.length l) 0 wire.lat in
  (* the server's own figures over the timed window, summed over the
     shapes of one class, or of every class *)
  let shape_sum f cls =
    List.fold_left
      (fun acc r ->
        match w.shape_class r.shape with
        | Some c when cls = None || cls = Some c -> acc +. f r
        | _ -> acc)
      0. wire.stmts
  in
  let total_ms = shape_sum (fun r -> r.total_ms) and lock_wait = shape_sum (fun r -> r.lock_wait_ms) in
  let class_ops c = List.length wire.lat.(c) in
  Printf.printf "traced replay, per class (p50 of each span, microseconds):\n";
  Printf.printf "  %-13s %s  %s\n" "class" (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%10s") span_names))) "residual_ms";
  let residuals =
    Array.init ncls (fun c ->
        let p50 i = median rp.spans.(c).(i) in
        let path_sum =
          Array.fold_left ( +. ) 0.
            (Array.mapi (fun i n -> if on_path n && rp.spans.(c).(i) <> [] then p50 i else 0.) span_names)
        in
        let client = median wire.lat.(c) in
        let res = (client -. path_sum) *. 1e3 in
        Printf.printf "  %-13s %s  %.3f\n" w.classes.(c)
          (String.concat " "
             (Array.to_list
                (Array.mapi (fun i _ -> if rp.spans.(c).(i) = [] then Printf.sprintf "%10s" "-" else Printf.sprintf "%10.1f" (p50 i *. 1e6)) span_names)))
          res;
        Printf.printf "  %-13s server stmt_ms=%.3f per op (SYS_STATEMENTS, %d op(s))\n" ""
          (if class_ops c = 0 then 0. else total_ms (Some c) /. Float.of_int (class_ops c))
          (class_ops c);
        res)
  in
  let t = rp.total and ct = rp.commit_total and rt = rp.read_total in
  let us x = x *. 1e6 and msf x = x *. 1e3 in
  [
    { mname = "lang.parse_us"; value = us (mean_of "parse"); unit_ = "us" };
    { mname = "lang.rewrite_us"; value = us (mean_of "rewrite"); unit_ = "us" };
    { mname = "plan.plan_us"; value = us (mean_of "plan"); unit_ = "us" };
    { mname = "plan.seq_scans_per_read"; value = ratio rt.seq_scans rp.reads; unit_ = "count" };
    { mname = "plan.index_scans_per_read"; value = ratio rt.index_scans rp.reads; unit_ = "count" };
    { mname = "exec.read_ms"; value = msf (mean_of "exec_read"); unit_ = "ms" };
    { mname = "mvcc.pin_us"; value = us (mean_of "pin"); unit_ = "us" };
    { mname = "exec.write_ms"; value = msf (mean_of "exec_write"); unit_ = "ms" };
    { mname = "core.commit_ms"; value = msf (mean_of "commit"); unit_ = "ms" };
    { mname = "store.subtuple_reads_per_commit"; value = ratio ct.st_reads rp.commits; unit_ = "count" };
    { mname = "store.subtuple_writes_per_op"; value = per_op t.st_writes; unit_ = "count" };
    { mname = "pool.hit_ratio"; value = ratio t.hits (t.hits + t.misses); unit_ = "ratio" };
    { mname = "pool.misses_per_op"; value = per_op t.misses; unit_ = "count" };
    { mname = "pool.evictions_per_op"; value = per_op t.evictions; unit_ = "count" };
    { mname = "disk.reads_per_op"; value = per_op t.disk_reads; unit_ = "count" };
    { mname = "disk.writes_per_op"; value = per_op t.disk_writes; unit_ = "count" };
    { mname = "wal.records_per_commit"; value = ratio t.wal_records rp.commits; unit_ = "count" };
    { mname = "wal.bytes_per_commit"; value = ratio t.wal_bytes rp.commits; unit_ = "B" };
    { mname = "wal.sync_ms"; value = msf (mean_of "sync"); unit_ = "ms" };
    { mname = "mvcc.bytes_live_mb"; value = Float.of_int rp.mvcc_bytes /. 1048576.; unit_ = "MiB" };
    { mname = "mvcc.versions_live"; value = Float.of_int rp.mvcc_versions; unit_ = "count" };
    { mname = "protocol.render_us_per_row"; value = (if rp.rows = 0 then 0. else us (List.fold_left ( +. ) 0. (all "render")) /. Float.of_int rp.rows); unit_ = "us" };
    { mname = "protocol.encode_us"; value = us (mean_of "encode"); unit_ = "us" };
    { mname = "protocol.decode_us"; value = us (mean_of "decode"); unit_ = "us" };
    { mname = "protocol.bytes_per_row"; value = ratio rp.bytes rp.rows; unit_ = "B" };
    { mname = "session.stmt_ms"; value = total_ms None /. Float.of_int timed_ops; unit_ = "ms" };
    { mname = "wal.txns_per_fsync"; value = ratio wire.batch_txns wire.batches; unit_ = "count" };
    { mname = "lock.wait_ms_per_txn"; value = (if rp.commits = 0 then 0. else lock_wait None /. Float.of_int rp.commits); unit_ = "ms" };
    { mname = "server.residual_ms"; value = Array.fold_left ( +. ) 0. residuals; unit_ = "ms" };
  ]

(* The replay must do the server's work: on a single connection, each
   class's pool accesses and WAL records and bytes in the replay equal
   what SYS_STATEMENTS charged to that class's shapes in the wire run.
   (With two connections the server's per-statement windows overlap, so
   its attribution is approximate and no equality is expected.)
   Returns the number of classes compared and of those that disagree. *)
let reconcile (w : workload) (wire : wire_result) (rp : replay) =
  if w.connections <> 1 then (0, 0)
  else begin
    let mismatches = ref 0 in
    Array.iteri
      (fun c name ->
        let sum f = List.fold_left (fun acc r -> if w.shape_class r.shape = Some c then acc + f r else acc) 0 wire.stmts in
        let server = (sum (fun r -> r.pool_accesses), sum (fun r -> r.log_records), sum (fun r -> r.log_bytes)) in
        let d = rp.per_class.(c) in
        let replay = (d.hits + d.misses, d.wal_records, d.wal_bytes) in
        let ok = server = replay in
        if not ok then incr mismatches;
        let show (a, r, b) = Printf.sprintf "pool accesses %d, WAL records %d, WAL bytes %d" a r b in
        Printf.printf "  reconcile %-12s server %s | replay %s  %s\n" name (show server) (show replay)
          (if ok then "[equal]" else "[MISMATCH]"))
      w.classes;
    (Array.length w.classes, !mismatches)
  end

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  (* the client's own collector runs inside each timed request (the
     response is decoded there), so give it room: a large minor heap
     and lazier major collection *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024; space_overhead = 400 };
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let aimd = ref "_build/default/bin/aimd.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME point-oltp | nested-report | ledger-ingest");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S nominal length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
      ("--aimd", Arg.Set_string aimd, "PATH the server binary");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "wire_bench --workload NAME --seed N --seconds S --trace 0|1";
  let make =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  if not (Sys.file_exists !aimd) then begin
    prerr_endline ("no server binary at " ^ !aimd);
    exit 2
  end;
  (* never leave a server behind, also when the run is interrupted *)
  at_exit kill_all;
  List.iter (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigint; Sys.sigterm ];
  let w = make ~seed:!seed ~seconds:!seconds in
  Printf.printf "workload %s, seed %d: %d connection(s), closed loop, %d warm-up + %d timed ops\n%!" w.name !seed
    w.connections
    (Array.fold_left (fun n a -> n + Array.length a) 0 w.warmup)
    (Array.fold_left (fun n a -> n + Array.length a) 0 w.timed);
  let wire = wire_run !aimd w in
  Printf.printf "  setup_s runs: %s\n" (String.concat " " (List.map (Printf.sprintf "%.3f") wire.setups));
  let e2e = end_to_end w wire in
  if !trace = 0 then begin
    List.iter (fun m -> Printf.printf "  %-18s %.4f %s\n" m.mname m.value m.unit_) e2e;
    print_endline (json_result ~correct:(wire.failed = 0) ~attempted:wire.attempted ~failed:wire.failed e2e)
  end
  else begin
    let rp = replay_run w in
    let layers = per_layer w wire rp in
    List.iter (fun m -> Printf.printf "  %-34s %.4f %s\n" m.mname m.value m.unit_) layers;
    let compared, mismatches = reconcile w wire rp in
    (* the replay checks the same answers as the wire run *)
    let attempted = (2 * wire.attempted) + compared in
    let failed = wire.failed + rp.failed + mismatches in
    print_endline (json_result ~correct:(failed = 0) ~attempted ~failed layers)
  end
