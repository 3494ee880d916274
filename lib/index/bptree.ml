(* In-memory B+-tree mapping binary (order-preserving) string keys to
   postings lists.  Index entries are <key, address list> pairs exactly
   as in Section 4.2 of the paper.

   Nodes are immutable: [insert] and [remove] copy the root-to-leaf
   path they change and share every other node, so [freeze] hands out
   the current root in O(1) and that handle keeps answering for the
   tree as it was, whatever the live handle does next.  There is no
   leaf chain (a chain would tie every leaf to its successor and defeat
   sharing); range scans walk down from the root instead.

   Deletion removes postings from leaves (and drops empty keys) without
   structural rebalancing — standard lazy deletion; lookups and range
   scans are unaffected. *)

let order = 16 (* max keys per node *)

type 'a node =
  | Leaf of {
      keys : string array; (* sorted *)
      postings : 'a list array; (* parallel to keys; newest first *)
    }
  | Inner of {
      seps : string array; (* n separators *)
      children : 'a node array; (* n+1 children *)
    }

type 'a t = {
  mutable root : 'a node;
  mutable entries : int; (* number of distinct keys *)
}

let create () = { root = Leaf { keys = [||]; postings = [||] }; entries = 0 }

let freeze t = { root = t.root; entries = t.entries }

let entry_count t = t.entries

let rec height_node = function Leaf _ -> 1 | Inner i -> 1 + height_node i.children.(0)
let height t = height_node t.root

(* First index in [a] whose key is > [key] ([strict]) or >= [key]. *)
let bound ~strict (a : string array) key =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = String.compare a.(mid) key in
    if c < 0 || (strict && c = 0) then lo := mid + 1 else hi := mid
  done;
  !lo

(* child index for [key] in an inner node: first separator > key
   descends left of it; keys equal to a separator go right. *)
let child_for seps key = bound ~strict:true seps key

(* --- search --------------------------------------------------------- *)

let find t key =
  let rec go = function
    | Inner i -> go i.children.(child_for i.seps key)
    | Leaf l ->
        let i = bound ~strict:false l.keys key in
        if i < Array.length l.keys && String.equal l.keys.(i) key then l.postings.(i) else []
  in
  go t.root

let mem t key = find t key <> []

(* --- path copying ------------------------------------------------------ *)

let set a i x =
  let a = Array.copy a in
  a.(i) <- x;
  a

let insert_at a i x =
  Array.init (Array.length a + 1) (fun j -> if j < i then a.(j) else if j = i then x else a.(j - 1))

let remove_at a i = Array.init (Array.length a - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

(* --- insert ---------------------------------------------------------- *)

(* The copy of a changed subtree: one node, or two halves split around
   a separator. *)
type 'a copy = One of 'a node | Split of 'a node * string * 'a node

let rec insert_node node key v ~fresh =
  match node with
  | Leaf { keys; postings } ->
      let i = bound ~strict:false keys key in
      if i < Array.length keys && String.equal keys.(i) key then
        One (Leaf { keys; postings = set postings i (v :: postings.(i)) })
      else begin
        fresh := true;
        let keys = insert_at keys i key and postings = insert_at postings i [ v ] in
        let n = Array.length keys in
        if n <= order then One (Leaf { keys; postings })
        else
          let mid = n / 2 in
          Split
            ( Leaf { keys = Array.sub keys 0 mid; postings = Array.sub postings 0 mid },
              keys.(mid),
              Leaf { keys = Array.sub keys mid (n - mid); postings = Array.sub postings mid (n - mid) } )
      end
  | Inner { seps; children } -> (
      let ci = child_for seps key in
      match insert_node children.(ci) key v ~fresh with
      | One c -> One (Inner { seps; children = set children ci c })
      | Split (l, sep, r) ->
          let seps = insert_at seps ci sep in
          let children = insert_at (set children ci l) (ci + 1) r in
          let n = Array.length seps in
          if n <= order then One (Inner { seps; children })
          else
            let mid = n / 2 in
            Split
              ( Inner { seps = Array.sub seps 0 mid; children = Array.sub children 0 (mid + 1) },
                seps.(mid),
                Inner
                  {
                    seps = Array.sub seps (mid + 1) (n - mid - 1);
                    children = Array.sub children (mid + 1) (n - mid);
                  } ))

(* Append a posting under a key (newest first). *)
let insert t ~key v =
  let fresh = ref false in
  (t.root <-
     (match insert_node t.root key v ~fresh with
     | One n -> n
     | Split (l, sep, r) -> Inner { seps = [| sep |]; children = [| l; r |] }));
  if !fresh then t.entries <- t.entries + 1

(* --- delete ----------------------------------------------------------- *)

(* The copy of a subtree after removing postings under [key], or [None]
   when nothing matched (the subtree stays shared as it is). *)
let rec remove_node node key p ~dropped =
  match node with
  | Leaf { keys; postings } ->
      let i = bound ~strict:false keys key in
      if i >= Array.length keys || not (String.equal keys.(i) key) then None
      else
        let post = postings.(i) in
        let post' = List.filter (fun v -> not (p v)) post in
        if List.compare_lengths post post' = 0 then None
        else if post' = [] then begin
          dropped := true;
          Some (Leaf { keys = remove_at keys i; postings = remove_at postings i })
        end
        else Some (Leaf { keys; postings = set postings i post' })
  | Inner { seps; children } ->
      let ci = child_for seps key in
      Option.map
        (fun c -> Inner { seps; children = set children ci c })
        (remove_node children.(ci) key p ~dropped)

(* Remove postings matching [p] under [key]; drops the key if its
   postings list becomes empty (lazy deletion, no rebalance). *)
let remove t ~key p =
  let dropped = ref false in
  Option.iter (fun r -> t.root <- r) (remove_node t.root key p ~dropped);
  if !dropped then t.entries <- t.entries - 1

(* --- range scans -------------------------------------------------------- *)

(* Inclusive range scan; [lo]/[hi] omitted means open end.  Walks right
   to left, consing, so the result comes out in key order. *)
let range t ?lo ?hi () =
  let first a = match lo with Some lo -> bound ~strict:false a lo | None -> 0 in
  let last a = match hi with Some hi -> bound ~strict:true a hi - 1 | None -> Array.length a - 1 in
  let rec walk node acc =
    match node with
    | Leaf { keys; postings } ->
        let acc = ref acc in
        for i = last keys downto first keys do
          acc := (keys.(i), postings.(i)) :: !acc
        done;
        !acc
    | Inner { seps; children } ->
        let acc = ref acc in
        let lo_child = match lo with Some lo -> child_for seps lo | None -> 0 in
        let hi_child = match hi with Some hi -> child_for seps hi | None -> Array.length seps in
        for i = hi_child downto lo_child do
          acc := walk children.(i) !acc
        done;
        !acc
  in
  walk t.root []

let iter t fn =
  let rec walk = function
    | Leaf { keys; postings } -> Array.iteri (fun i k -> fn k postings.(i)) keys
    | Inner { children; _ } -> Array.iter walk children
  in
  walk t.root

let keys t = List.map fst (range t ())

(* Prefix scan over the key space (used by the text index: fragment
   keys share prefixes).  Bounded above by the prefix's successor so
   the scan stays local. *)
let prefix_successor prefix =
  let b = Bytes.of_string prefix in
  let rec bump i =
    if i < 0 then None
    else if Bytes.get b i = '\xff' then bump (i - 1)
    else begin
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) + 1));
      Some (Bytes.sub_string b 0 (i + 1))
    end
  in
  bump (Bytes.length b - 1)

let prefix_range t prefix =
  let scan =
    match prefix_successor prefix with
    | Some hi -> range t ~lo:prefix ~hi ()
    | None -> range t ~lo:prefix ()
  in
  List.filter (fun (k, _) -> String.starts_with ~prefix k) scan

(* structural sanity check used by tests: sorted keys within the
   separators that route to them, fanout, balance *)
let check t =
  let in_bounds lo hi k =
    (match lo with Some lo -> String.compare k lo >= 0 | None -> true)
    && match hi with Some hi -> String.compare k hi < 0 | None -> true
  in
  let sorted a =
    let ok = ref true in
    for i = 1 to Array.length a - 1 do
      if String.compare a.(i - 1) a.(i) >= 0 then ok := false
    done;
    !ok
  in
  let rec go lo hi = function
    | Leaf { keys; postings } ->
        if not (sorted keys) then failwith "leaf keys unsorted";
        if Array.length keys <> Array.length postings then failwith "leaf arity";
        if Array.length keys > order then failwith "leaf overflow";
        if not (Array.for_all (in_bounds lo hi) keys) then failwith "leaf key outside its separators";
        0
    | Inner { seps; children } ->
        if Array.length children <> Array.length seps + 1 then failwith "inner arity";
        if Array.length seps > order then failwith "inner overflow";
        if not (sorted seps) then failwith "separators unsorted";
        if not (Array.for_all (in_bounds lo hi) seps) then failwith "separator outside its bounds";
        let depths =
          Array.mapi
            (fun i c ->
              let lo = if i = 0 then lo else Some seps.(i - 1) in
              let hi = if i = Array.length seps then hi else Some seps.(i) in
              go lo hi c)
            children
        in
        if not (Array.for_all (Int.equal depths.(0)) depths) then failwith "unbalanced";
        depths.(0) + 1
  in
  ignore (go None None t.root)
