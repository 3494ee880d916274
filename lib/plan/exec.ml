(* Hash-join build side.

   Compiled blocks ({!Compile}) run their FROM ranges as nested loops
   over a slot frame; a hash join's inner range is grouped here once
   per activation and probed per outer binding. *)

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
