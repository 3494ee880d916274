(* Volcano-style pull iterators.

   An iterator is a thunk producing the next element or [None]; the
   consumer drives the pipeline one element at a time, so an operator
   chain does no work beyond what its consumer demands.  Operators are
   polymorphic in the element type — the driver runs them over binding
   environments, tests run them over plain tuples.

   Sources over stored tables (seq-scan, index-scan) delay their
   underlying access until the first pull, so a plan that is built but
   never executed (EXPLAIN) touches no storage. *)

module Value = Nf2_model.Value
module Tid = Nf2_storage.Tid
module VI = Nf2_index.Value_index

type 'a t = unit -> 'a option

(* --- generic combinators ----------------------------------------------- *)

let empty : 'a t = fun () -> None

let singleton x : 'a t =
  let fired = ref false in
  fun () ->
    if !fired then None
    else begin
      fired := true;
      Some x
    end

let of_list xs : 'a t =
  let rest = ref xs in
  fun () ->
    match !rest with
    | [] -> None
    | x :: tl ->
        rest := tl;
        Some x

let map f (it : 'a t) : 'b t = fun () -> Option.map f (it ())

let rec next_matching p (it : 'a t) =
  match it () with
  | None -> None
  | Some x when p x -> Some x
  | Some _ -> next_matching p it

let filter p (it : 'a t) : 'a t = fun () -> next_matching p it

(* Flat-map with list-producing [f]: the nested-loop building block —
   depth-first, preserving the outer iterator's order. *)
let flat_map (f : 'a -> 'b list) (it : 'a t) : 'b t =
  let pending = ref [] in
  let rec next () =
    match !pending with
    | y :: tl ->
        pending := tl;
        Some y
    | [] -> (
        match it () with
        | None -> None
        | Some x ->
            pending := f x;
            next ())
  in
  next

let to_list (it : 'a t) : 'a list =
  let rec go acc = match it () with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

let iter f (it : 'a t) =
  let rec go () =
    match it () with
    | None -> ()
    | Some x ->
        f x;
        go ()
  in
  go ()

let length it =
  let n = ref 0 in
  iter (fun _ -> incr n) it;
  !n

(* --- sources ------------------------------------------------------------ *)

(* Sequential scan: [scan] materializes the table (storage layer API);
   delayed until the first pull. *)
let seq_scan (scan : unit -> 'r list) : 'r t =
  let st = ref None in
  fun () ->
    let it =
      match !st with
      | Some it -> it
      | None ->
          let it = of_list (scan ()) in
          st := Some it;
          it
    in
    it ()

(* Index scan over an explicit candidate list: objects are fetched
   lazily, one per pull. *)
let index_scan ~(fetch : Tid.t -> 'r) (cands : Tid.t list) : 'r t =
  map fetch (of_list cands)

(* Streaming index range scan: pulls index entries through the B+-tree
   cursor one key at a time, fetching each key's root objects and
   deduplicating roots already produced under an earlier key.  Stops
   descending the leaf chain as soon as the consumer stops pulling. *)
let index_range_scan (vi : VI.t) ?lo ?hi ~(fetch : Tid.t -> 'r) () : 'r t =
  let cur = VI.root_cursor vi ?lo ?hi () in
  let seen : (Tid.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let fresh roots =
    List.filter_map
      (fun r ->
        if Hashtbl.mem seen r then None
        else begin
          Hashtbl.add seen r ();
          Some (fetch r)
        end)
      roots
  in
  let entries : Tid.t list t = fun () -> cur () in
  flat_map fresh entries

(* --- joins -------------------------------------------------------------- *)

(* Naive nested loop: re-derive the inner per outer element. *)
let nl_join (inner : 'a -> 'b list) (combine : 'a -> 'b -> 'c) (outer : 'a t) : 'c t =
  flat_map (fun x -> List.map (combine x) (inner x)) outer

(* Block nested loop with the whole inner as one block: the inner is
   materialized once, on first use, then iterated per outer element. *)
let bnl_join (inner : unit -> 'b list) (combine : 'a -> 'b -> 'c) (outer : 'a t) : 'c t =
  let block = lazy (inner ()) in
  flat_map (fun x -> List.map (combine x) (Lazy.force block)) outer

(* --- hash join build ------------------------------------------------------ *)

(* Build a probe table for a hash join: key -> matching elements in
   input order.  One pass, one key computation per element; elements
   without a key are left out.  Groups are consed in reverse and
   reversed per probe, which touches only the probed group. *)
let hash_build ~(key : 'a -> string option) (xs : 'a list) : string -> 'a list =
  let h : (string, 'a list) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun x ->
      match key x with
      | Some k -> Hashtbl.replace h k (x :: Option.value ~default:[] (Hashtbl.find_opt h k))
      | None -> ())
    xs;
  fun k -> match Hashtbl.find_opt h k with Some g -> List.rev g | None -> []
