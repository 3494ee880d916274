(* Text index for masked search (Section 5 of the paper; the
   Schek/Kropp word-fragment / reference-string method /Sch78, KSW79,
   KW81/).

   Every word of an indexed text attribute is decomposed into fragments
   (character trigrams over the word extended with ^ and $ sentinels).
   A fragment B+-tree maps fragment -> word, and a word B+-tree maps
   word -> hierarchical addresses of the texts containing it.  A masked
   pattern like '*comput*' is answered by:
     1. extracting fragments from the pattern's literal runs,
     2. intersecting their word sets (candidate vocabulary),
     3. verifying the full mask against each candidate word,
     4. collecting the addresses of the surviving words.
   Data pages are never touched. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module OS = Nf2_storage.Object_store
module Tid = Nf2_storage.Tid

type t = {
  path : Schema.path;
  fragments : string Bptree.t; (* fragment -> words *)
  words : OS.hier Bptree.t; (* word -> addresses *)
  store : OS.t;
  schema : Schema.t;
}

let normalize_word w =
  String.lowercase_ascii w
  |> String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then c else ' ')
  |> String.trim

let words_of_text text =
  String.split_on_char ' ' text
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\n')
  |> List.filter_map (fun w ->
         let w = normalize_word w in
         if w = "" then None else Some w)
  |> List.concat_map (fun w -> String.split_on_char ' ' w)
  |> List.filter (fun w -> w <> "")

(* Trigrams over ^word$. *)
let fragments_of_word w =
  let ext = "^" ^ w ^ "$" in
  let n = String.length ext in
  if n <= 3 then [ ext ]
  else List.init (n - 2) (fun i -> String.sub ext i 3)

let mem_word t w = Bptree.mem t.words w

let index_word t w (addr : OS.hier) =
  let fresh = not (mem_word t w) in
  Bptree.insert t.words ~key:w addr;
  if fresh then List.iter (fun fr -> Bptree.insert t.fragments ~key:fr w) (fragments_of_word w)

let insert_object t (root : Tid.t) =
  let entries = OS.index_entries t.store t.schema root t.path in
  List.iter
    (fun (atom, hier) ->
      match atom with
      | Atom.Str text -> List.iter (fun w -> index_word t w hier) (words_of_text text)
      | _ -> ())
    entries

let remove_object t (root : Tid.t) =
  let entries = OS.index_entries t.store t.schema root t.path in
  List.iter
    (fun (atom, _) ->
      match atom with
      | Atom.Str text ->
          List.iter
            (fun w -> Bptree.remove t.words ~key:w (fun h -> Tid.equal h.OS.root root))
            (words_of_text text)
      | _ -> ())
    entries

let create store schema path =
  (match Schema.path_attr schema.Schema.table path with
  | Schema.Atomic Atom.Tstring -> ()
  | _ -> invalid_arg "Text_index.create: path must end at a TEXT attribute");
  let t = { path; fragments = Bptree.create (); words = Bptree.create (); store; schema } in
  List.iter (insert_object t) (OS.roots store);
  t

let freeze t = { t with fragments = Bptree.freeze t.fragments; words = Bptree.freeze t.words }
let rebind t store = { t with store }

let path t = t.path

let vocabulary t = Bptree.keys t.words

(* Candidate words for a mask, from fragment intersection.  Literal
   runs shorter than a trigram contribute prefix scans over the
   fragment tree.  A pattern with no usable literal (e.g. '*') falls
   back to the whole vocabulary — still index-only. *)
let candidates t (mask : Masked.t) : string list =
  let lits = Masked.literals mask in
  (* fragments fully inside a literal run are exact; if the literal is
     anchored we can include sentinel fragments *)
  let frags_of_literal anchored_start anchored_end lit =
    let ext =
      (if anchored_start then "^" else "") ^ lit ^ if anchored_end then "$" else ""
    in
    let n = String.length ext in
    if n < 3 then [] else List.init (n - 2) (fun i -> String.sub ext i 3)
  in
  let anchored_pre = Masked.anchored_prefix mask <> None in
  let anchored_suf = Masked.anchored_suffix mask <> None in
  let frag_sets =
    List.mapi
      (fun i lit ->
        let first = i = 0 and last = i = List.length lits - 1 in
        frags_of_literal (first && anchored_pre) (last && anchored_suf) lit)
      lits
    |> List.concat
  in
  match frag_sets with
  | [] -> vocabulary t
  | frags ->
      let word_sets = List.map (fun fr -> Bptree.find t.fragments fr) frags in
      (* intersect; postings are lists of words *)
      let module SS = Set.Make (String) in
      let sets = List.map SS.of_list word_sets in
      (match sets with
      | [] -> []
      | s :: rest -> SS.elements (List.fold_left SS.inter s rest))

(* Masked search: returns (word, addresses) for every vocabulary word
   matching the mask. *)
let search t (pattern : string) : (string * OS.hier list) list =
  let mask = Masked.compile pattern in
  candidates t mask
  |> List.filter (fun w -> Masked.matches mask w)
  |> List.map (fun w -> (w, Bptree.find t.words w))

(* Root TIDs of objects whose indexed text matches the mask. *)
let roots_matching t pattern : Tid.t list =
  search t pattern
  |> List.concat_map (fun (_, hs) -> List.map (fun h -> h.OS.root) hs)
  |> List.sort_uniq Tid.compare
