(* Volcano-style pull iterators.

   An iterator is a thunk producing the next element or [None]; the
   consumer drives the pipeline one element at a time, so an operator
   chain does no work beyond what its consumer demands.  Operators are
   polymorphic in the element type — the driver runs them over binding
   environments, tests run them over plain integers. *)

type 'a t = unit -> 'a option

(* --- generic combinators ----------------------------------------------- *)

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
