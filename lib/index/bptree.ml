(* In-memory B+-tree mapping binary (order-preserving) string keys to
   postings lists.  Index entries are <key, address list> pairs exactly
   as in Section 4.2 of the paper.

   Deletion removes postings from leaves (and drops empty keys) without
   structural rebalancing — standard lazy deletion; lookups and range
   scans are unaffected. *)

let order = 16 (* max keys per node *)

type 'a node =
  | Leaf of 'a leaf
  | Inner of 'a inner

and 'a leaf = {
  mutable keys : string list; (* sorted *)
  mutable postings : 'a list list; (* parallel to keys; newest first *)
  mutable next : 'a leaf option;
}

and 'a inner = {
  mutable seps : string list; (* n separators *)
  mutable children : 'a node list; (* n+1 children *)
}

type 'a t = {
  mutable root : 'a node;
  mutable entries : int; (* number of distinct keys *)
}

let create () = { root = Leaf { keys = []; postings = []; next = None }; entries = 0 }

let entry_count t = t.entries

let rec height_node = function Leaf _ -> 1 | Inner i -> 1 + height_node (List.hd i.children)
let height t = height_node t.root

(* child index for [key] in an inner node: first separator > key
   descends left of it; keys equal to a separator go right. *)
let child_for (i : 'a inner) key =
  let rec go n seps =
    match seps with
    | [] -> n
    | s :: rest -> if String.compare key s < 0 then n else go (n + 1) rest
  in
  go 0 i.seps

let nth_child (i : 'a inner) n = List.nth i.children n

(* --- search --------------------------------------------------------- *)

let rec find_leaf node key =
  match node with
  | Leaf l -> l
  | Inner i -> find_leaf (nth_child i (child_for i key)) key

let find t key =
  let l = find_leaf t.root key in
  let rec go keys postings =
    match keys, postings with
    | k :: _, p :: _ when k = key -> p
    | k :: ks, _ :: ps when String.compare k key < 0 -> go ks ps
    | _ -> []
  in
  go l.keys l.postings

let mem t key = find t key <> []

(* --- insert ---------------------------------------------------------- *)

type 'a split = No_split | Split of string * 'a node (* separator, new right sibling *)

let insert_sorted key v keys postings =
  let rec go keys postings =
    match keys, postings with
    | [], [] -> ([ key ], [ [ v ] ])
    | k :: ks, p :: ps ->
        let c = String.compare key k in
        if c = 0 then (k :: ks, (v :: p) :: ps)
        else if c < 0 then (key :: k :: ks, [ v ] :: p :: ps)
        else
          let ks', ps' = go ks ps in
          (k :: ks', p :: ps')
    | _ -> assert false
  in
  go keys postings

let split_list n xs =
  let rec go i acc = function
    | rest when i = n -> (List.rev acc, rest)
    | x :: rest -> go (i + 1) (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  go 0 [] xs

let rec insert_node t node key v : 'a split =
  match node with
  | Leaf l ->
      let had = List.mem key l.keys in
      let keys, postings = insert_sorted key v l.keys l.postings in
      l.keys <- keys;
      l.postings <- postings;
      if not had then t.entries <- t.entries + 1;
      if List.length l.keys <= order then No_split
      else begin
        let mid = List.length l.keys / 2 in
        let lk, rk = split_list mid l.keys in
        let lp, rp = split_list mid l.postings in
        let right = { keys = rk; postings = rp; next = l.next } in
        l.keys <- lk;
        l.postings <- lp;
        l.next <- Some right;
        Split (List.hd rk, Leaf right)
      end
  | Inner i -> (
      let ci = child_for i key in
      match insert_node t (nth_child i ci) key v with
      | No_split -> No_split
      | Split (sep, right) ->
          (* insert sep at position ci, right child at ci+1 *)
          let seps_before, seps_after = split_list ci i.seps in
          i.seps <- seps_before @ (sep :: seps_after);
          let ch_before, ch_after = split_list (ci + 1) i.children in
          i.children <- ch_before @ (right :: ch_after);
          if List.length i.seps <= order then No_split
          else begin
            let mid = List.length i.seps / 2 in
            let lsep, rest = split_list mid i.seps in
            let promoted, rsep = (List.hd rest, List.tl rest) in
            let lch, rch = split_list (mid + 1) i.children in
            let right_node = { seps = rsep; children = rch } in
            i.seps <- lsep;
            i.children <- lch;
            Split (promoted, Inner right_node)
          end)

let insert t ~key v =
  match insert_node t t.root key v with
  | No_split -> ()
  | Split (sep, right) -> t.root <- Inner { seps = [ sep ]; children = [ t.root; right ] }

(* --- delete ----------------------------------------------------------- *)

(* Remove postings matching [p] under [key]; drops the key if its
   postings list becomes empty (lazy deletion, no rebalance). *)
let remove t ~key p =
  let l = find_leaf t.root key in
  let rec go keys postings =
    match keys, postings with
    | [], [] -> ([], [])
    | k :: ks, post :: ps ->
        if k = key then begin
          let post' = List.filter (fun v -> not (p v)) post in
          if post' = [] then begin
            t.entries <- t.entries - 1;
            (ks, ps)
          end
          else (k :: ks, post' :: ps)
        end
        else
          let ks', ps' = go ks ps in
          (k :: ks', post :: ps')
    | _ -> assert false
  in
  let keys, postings = go l.keys l.postings in
  l.keys <- keys;
  l.postings <- postings

(* --- range scans -------------------------------------------------------- *)

let leftmost_leaf t =
  let rec go node =
    match node with Leaf l -> l | Inner i -> go (List.hd i.children)
  in
  go t.root

(* Inclusive range scan; [lo]/[hi] omitted means open end. *)
let range t ?lo ?hi () =
  let start = match lo with Some k -> find_leaf t.root k | None -> leftmost_leaf t in
  let acc = ref [] in
  let rec walk (l : 'a leaf) =
    let stop = ref false in
    List.iter2
      (fun k p ->
        let ge_lo = match lo with Some lo -> String.compare k lo >= 0 | None -> true in
        let le_hi = match hi with Some hi -> String.compare k hi <= 0 | None -> true in
        if ge_lo && le_hi then acc := (k, p) :: !acc
        else if not le_hi then stop := true)
      l.keys l.postings;
    if not !stop then match l.next with Some n -> walk n | None -> ()
  in
  walk start;
  List.rev !acc

let iter t fn = List.iter (fun (k, p) -> fn k p) (range t ())

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

(* structural sanity check used by tests *)
let rec check_node depth = function
  | Leaf l ->
      let sorted = List.sort_uniq String.compare l.keys = l.keys in
      if not sorted then failwith "leaf keys unsorted";
      if List.length l.keys <> List.length l.postings then failwith "leaf arity";
      depth
  | Inner i ->
      if List.length i.children <> List.length i.seps + 1 then failwith "inner arity";
      let depths = List.map (check_node (depth + 1)) i.children in
      (match depths with
      | d :: rest -> if not (List.for_all (Int.equal d) rest) then failwith "unbalanced"
      | [] -> failwith "no children");
      List.hd depths

let check t = ignore (check_node 0 t.root)
