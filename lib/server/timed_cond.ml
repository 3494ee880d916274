(* OCaml's [Condition] has no timed wait, so one timer thread per
   instance turns the waiters' deadlines into broadcasts.  The first
   wait starts it; it sleeps until the earliest pending deadline,
   broadcasts, and exits once no waiter is left.  Chosen over a
   per-waiter pipe read with [Thread.wait_timed_read]: a release stays
   one [Condition.broadcast] however many sessions wait, and a wait
   opens no file descriptors. *)

type t = {
  mu : Mutex.t;
  cond : Condition.t;
  mutable deadlines : float list; (* one per blocked waiter *)
  mutable timer : bool; (* the timer thread is running *)
}

let create mu = { mu; cond = Condition.create (); deadlines = []; timer = false }
let broadcast t = Condition.broadcast t.cond

let rec remove_one d = function
  | [] -> []
  | x :: rest -> if x = d then rest else x :: remove_one d rest

(* Entered and left holding [t.mu]; deadlines up to [fired] have had
   their broadcast.  Callers use one timeout for every wait, so
   deadlines arrive in increasing order, up to the moment between
   computing one and blocking on it: the most a wait can overrun. *)
let rec run t fired =
  match List.filter (fun d -> d > fired) t.deadlines with
  | [] -> t.timer <- false
  | pending ->
      let next = List.fold_left Float.min infinity pending in
      Mutex.unlock t.mu;
      Thread.delay (Float.max 0. (next -. Unix.gettimeofday ()));
      Mutex.lock t.mu;
      Condition.broadcast t.cond;
      run t next

let wait t ~deadline =
  t.deadlines <- deadline :: t.deadlines;
  if not t.timer then begin
    (* the new thread blocks on [t.mu] until this wait releases it *)
    ignore (Thread.create (fun () -> Mutex.protect t.mu (fun () -> run t neg_infinity)) ());
    t.timer <- true
  end;
  Condition.wait t.cond t.mu;
  t.deadlines <- remove_one deadline t.deadlines
