(* The complex-object store: AIM-II's integrated implementation of
   extended NF2 objects (Section 4.1 of the paper).

   - Each complex object owns a *local address space*: a page list kept
     in its root MD subtuple.  All data and MD subtuples of the object
     live in pages of that list and are addressed by Mini-TIDs.
   - Structural information (Mini Directory trees) is kept strictly
     separate from data (data subtuples).
   - Three MD layouts are supported: SS1, SS2, SS3 (Fig 6); AIM-II's
     production choice was SS3, which is the default here.
   - Root MD subtuples live in a directory heap and are addressed by
     ordinary (global) TIDs; that TID is the object's identity.
   - Clustering can be disabled for the ablation experiment: subtuples
     are then spread over pages shared by all objects.
   - Records are stored exactly as in heap files: the record protocol
     (forwarding, spilling, chunk chains) is [Record]'s, run over the
     object's Mini-TIDs; this module only maps Mini-TIDs through the
     page list and chooses where a new record goes.  *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value

(* Counter snapshot; the live counters are Atomics so concurrent
   readers (parallel read execution in the server) count exactly. *)
type stats = {
  md_reads : int; (* MD subtuple fetches *)
  data_reads : int; (* data subtuple fetches *)
  subtuple_writes : int;
}

type t = {
  pool : Buffer_pool.t;
  layout : Mini_directory.layout;
  clustering : bool;
  dir : Heap.t; (* root MD subtuples *)
  data : Free_space.t; (* every page holding object subtuples *)
  mutable free_pages : int list; (* emptied pages ready for reuse *)
  md_reads : int Atomic.t;
  data_reads : int Atomic.t;
  subtuple_writes : int Atomic.t;
}

exception Store_error of string

let store_error fmt = Fmt.kstr (fun s -> raise (Store_error s)) fmt

let make ~layout ~clustering pool ~dir ~data ~free_pages =
  {
    pool;
    layout;
    clustering;
    dir;
    data;
    free_pages;
    md_reads = Atomic.make 0;
    data_reads = Atomic.make 0;
    subtuple_writes = Atomic.make 0;
  }

let create ?(layout = Mini_directory.SS3) ?(clustering = true) pool =
  make ~layout ~clustering pool ~dir:(Heap.create pool) ~data:(Free_space.create pool) ~free_pages:[]

let layout t = t.layout

let stats t =
  {
    md_reads = Atomic.get t.md_reads;
    data_reads = Atomic.get t.data_reads;
    subtuple_writes = Atomic.get t.subtuple_writes;
  }

let reset_stats t =
  Atomic.set t.md_reads 0;
  Atomic.set t.data_reads 0;
  Atomic.set t.subtuple_writes 0

(* ------------------------------------------------------------------ *)
(* An object's local address space *)

let page_size t = Disk.page_size (Buffer_pool.disk t.pool)

(* A page for a record no candidate page has room for: an emptied page
   when one is waiting, else a new one. *)
let fresh_page t =
  match t.free_pages with
  | p :: rest ->
      t.free_pages <- rest;
      Free_space.format t.data p;
      p
  | [] -> Free_space.alloc t.data

(* The object's records, as a space of [Record]'s protocol: Mini-TIDs
   resolve through the page list (record pointers carry (lpage, slot),
   so they survive relocation).  With clustering on, a new record goes
   on the object's own pages first (the paper's strategy); with
   clustering off, on any shared page with room, merely registered in
   the page list. *)
let space t (plist : Page_list.t) =
  {
    Record.pages = t.data;
    page_of = Page_list.resolve plist;
    place =
      (fun encoded ->
        Atomic.incr t.subtuple_writes;
        let candidates =
          if t.clustering then List.map snd (Page_list.entries plist) else Free_space.pages t.data
        in
        let page, slot = Free_space.place t.data ~candidates ~fresh:(fun () -> fresh_page t) encoded in
        let lpage = match Page_list.position_of plist page with Some i -> i | None -> Page_list.add plist page in
        { Tid.page = lpage; slot });
  }

let local_of_tid (tid : Tid.t) : Mini_tid.t = { Mini_tid.lpage = tid.Tid.page; slot = tid.Tid.slot }
let tid_of_local (m : Mini_tid.t) : Tid.t = { Tid.page = m.Mini_tid.lpage; slot = m.Mini_tid.slot }

(* ------------------------------------------------------------------ *)
(* Subtuples through the record protocol (a broken address surfaces as
   a store error) *)

(* Place a subtuple payload, chunked over several records when it
   exceeds a page (subtable MD subtuples may carry thousands of
   pointers, Section 4.1). *)
let place sp payload =
  match Record.insert sp ~head:`Plain payload with
  | at -> local_of_tid at
  | exception Record.Broken msg -> store_error "%s" msg

let read_sub sp (m : Mini_tid.t) =
  match Record.read sp (tid_of_local m) with
  | Some payload -> payload
  | None -> store_error "dangling Mini-TID %s" (Mini_tid.to_string m)
  | exception Record.Broken msg -> store_error "%s" msg

let read_md t sp m =
  Atomic.incr t.md_reads;
  Subtuple.decode_md (read_sub sp m)

let read_data t sp m =
  Atomic.incr t.data_reads;
  Subtuple.decode_data (read_sub sp m)

let update_sub t sp m payload =
  Atomic.incr t.subtuple_writes;
  try Record.update sp (tid_of_local m) payload with Record.Broken msg -> store_error "%s" msg

let delete_sub sp m = try Record.delete sp (tid_of_local m) with Record.Broken msg -> store_error "%s" msg

(* ------------------------------------------------------------------ *)
(* Schema/value helpers *)

(* First-level atoms (in field order) and table-valued attributes. *)
let split_fields (tbl : Schema.table) (tup : Value.tuple) =
  let atoms = ref [] and subs = ref [] in
  List.iter2
    (fun (f : Schema.field) v ->
      match f.attr, v with
      | Schema.Atomic _, Value.Atom a -> atoms := a :: !atoms
      | Schema.Table sub, Value.Table inner -> subs := (f.Schema.name, sub, inner) :: !subs
      | _ -> store_error "value does not match schema at attribute %s" f.Schema.name)
    tbl.fields tup;
  (List.rev !atoms, List.rev !subs)

let table_fields (tbl : Schema.table) =
  List.filter_map
    (fun (f : Schema.field) ->
      match f.attr with Schema.Table sub -> Some (f.name, sub) | Schema.Atomic _ -> None)
    tbl.fields

(* Reassemble a tuple from first-level atoms and subtable values. *)
let assemble (tbl : Schema.table) (atoms : Atom.t list) (subvals : Value.table list) : Value.tuple =
  let atoms = ref atoms and subvals = ref subvals in
  List.map
    (fun (f : Schema.field) ->
      match f.attr with
      | Schema.Atomic _ -> (
          match !atoms with
          | a :: rest ->
              atoms := rest;
              Value.Atom a
          | [] -> store_error "data subtuple too short for %s" f.name)
      | Schema.Table _ -> (
          match !subvals with
          | v :: rest ->
              subvals := rest;
              Value.Table v
          | [] -> store_error "missing subtable value for %s" f.name))
    tbl.fields

(* ------------------------------------------------------------------ *)
(* Building MD trees (insert) *)

(* Build the MD structure of a complex (sub)object; returns the node's
   sections.  Placement of the node's own MD record (if the layout
   gives it one) is up to the caller. *)
let rec build_sections t layout sp (tbl : Schema.table) (tup : Value.tuple) : Subtuple.sections =
  let atoms, subs = split_fields tbl tup in
  let d = place sp (Subtuple.encode_data atoms) in
  match layout with
  | Mini_directory.SS1 | Mini_directory.SS3 ->
      let subtable_ptrs =
        List.map (fun (_, sub, inner) -> Subtuple.C (build_subtable t layout sp sub inner)) subs
      in
      [ Subtuple.D d :: subtable_ptrs ]
  | Mini_directory.SS2 ->
      let elem_sections =
        List.map
          (fun (_, sub, inner) ->
            List.map
              (fun etup ->
                if Schema.flat sub then
                  let eatoms, _ = split_fields sub etup in
                  Subtuple.D (place sp (Subtuple.encode_data eatoms))
                else
                  let child_sections = build_sections t layout sp sub etup in
                  Subtuple.C (place sp (Subtuple.encode_md child_sections)))
              inner.Value.tuples)
          subs
      in
      [ Subtuple.D d ] :: elem_sections

(* SS1/SS3 subtables get their own MD record; one section per element. *)
and build_subtable t layout sp (sub : Schema.table) (inner : Value.table) : Mini_tid.t =
  let sections =
    List.map
      (fun etup ->
        match layout with
        | Mini_directory.SS1 ->
            if Schema.flat sub then
              let eatoms, _ = split_fields sub etup in
              [ Subtuple.D (place sp (Subtuple.encode_data eatoms)) ]
            else
              let child_sections = build_sections t layout sp sub etup in
              [ Subtuple.C (place sp (Subtuple.encode_md child_sections)) ]
        | Mini_directory.SS3 ->
            (* element section: own data pointer + nested subtable MDs *)
            let eatoms, esubs = split_fields sub etup in
            let d = place sp (Subtuple.encode_data eatoms) in
            Subtuple.D d
            :: List.map (fun (_, s2, inner2) -> Subtuple.C (build_subtable t layout sp s2 inner2)) esubs
        | Mini_directory.SS2 -> assert false)
      inner.Value.tuples
  in
  place sp (Subtuple.encode_md sections)

let encode_root_record plist sections = Subtuple.encode_root plist sections

let insert t (schema : Schema.t) (tup : Value.tuple) : Tid.t =
  Value.check_tuple schema.table tup;
  let plist = Page_list.create () in
  let sections = build_sections t t.layout (space t plist) schema.table tup in
  Heap.insert t.dir (encode_root_record plist sections)

(* ------------------------------------------------------------------ *)
(* Uniform navigation view over the three layouts *)

(* Where a set of sections physically lives. *)
type md_home = H_root | H_md of Mini_tid.t

(* A complex (sub)object, uniformly:
   data pointer + one subtable reference per table attribute. *)
type obj_view = { data : Mini_tid.t; subtables : subtable_ref list }

(* How to reach the element entries of one subtable. *)
and subtable_ref =
  | St_md of Mini_tid.t (* SS1/SS3: the subtable's own MD record *)
  | St_section of md_home * int (* SS2: section [i] of the parent's MD *)

and elem_ref =
  | El_flat of Mini_tid.t (* flat subobject: its data subtuple *)
  | El_complex of obj_view * elem_home

(* Where the element's pointer entries live (needed for updates). *)
and elem_home =
  | Eh_md of Mini_tid.t (* SS1 (via C) and SS2: own MD record *)
  | Eh_section of Mini_tid.t * int (* SS3: section i of the subtable MD *)

let obj_view_of_sections layout home (sections : Subtuple.sections) : obj_view =
  match layout, sections with
  | (Mini_directory.SS1 | Mini_directory.SS3), [ Subtuple.D d :: subtable_ptrs ] ->
      let subtables =
        List.map
          (function
            | Subtuple.C m -> St_md m
            | Subtuple.D _ -> store_error "SS1/SS3: unexpected D entry among subtable pointers")
          subtable_ptrs
      in
      { data = d; subtables }
  | Mini_directory.SS2, [ Subtuple.D d ] :: rest ->
      { data = d; subtables = List.mapi (fun i _ -> St_section (home, i + 1)) rest }
  | _ -> store_error "malformed MD sections for layout %s" (Mini_directory.layout_name layout)

(* Load the sections stored at [home]. Root sections must be supplied
   by the caller (they live in the root record alongside the page
   list). *)
let sections_at t sp root_sections = function
  | H_root -> root_sections
  | H_md m -> read_md t sp m

(* The element references of a subtable. *)
let subtable_elements t sp root_sections (sub : Schema.table) (st : subtable_ref) : elem_ref list =
  let flat = Schema.flat sub in
  match st with
  | St_md m -> (
      let sections = read_md t sp m in
      match t.layout with
      | Mini_directory.SS1 ->
          List.map
            (function
              | [ Subtuple.D d ] -> El_flat d
              | [ Subtuple.C cm ] ->
                  let child_sections = read_md t sp cm in
                  El_complex (obj_view_of_sections t.layout (H_md cm) child_sections, Eh_md cm)
              | _ -> store_error "SS1 subtable MD: malformed element section")
            sections
      | Mini_directory.SS3 ->
          List.mapi
            (fun i section ->
              match section with
              | Subtuple.D d :: cs ->
                  if flat then El_flat d
                  else
                    let subtables =
                      List.map
                        (function
                          | Subtuple.C cm -> St_md cm
                          | Subtuple.D _ -> store_error "SS3 element: unexpected extra D")
                        cs
                    in
                    El_complex ({ data = d; subtables }, Eh_section (m, i))
              | _ -> store_error "SS3 subtable MD: malformed element section")
            sections
      | Mini_directory.SS2 -> store_error "SS2 has no subtable MD records")
  | St_section (home, i) ->
      let sections = sections_at t sp root_sections home in
      let entries =
        match List.nth_opt sections i with
        | Some e -> e
        | None -> store_error "SS2: missing section %d" i
      in
      List.map
        (function
          | Subtuple.D d -> El_flat d
          | Subtuple.C cm ->
              let child_sections = read_md t sp cm in
              El_complex (obj_view_of_sections t.layout (H_md cm) child_sections, Eh_md cm))
        entries

(* ------------------------------------------------------------------ *)
(* Whole-object and partial retrieval *)

let load_root t (root : Tid.t) =
  Atomic.incr t.md_reads;
  match Heap.read t.dir root with
  | Some payload ->
      let plist, sections = Subtuple.decode_root payload in
      (plist, space t plist, sections)
  | None -> store_error "no complex object at %s" (Tid.to_string root)

let rec read_object t sp root_sections (tbl : Schema.table) (view : obj_view) : Value.tuple =
  let atoms = read_data t sp view.data in
  let subvals =
    List.map2
      (fun (_, sub) st -> read_subtable t sp root_sections sub st)
      (table_fields tbl) view.subtables
  in
  assemble tbl atoms subvals

and read_subtable t sp root_sections (sub : Schema.table) (st : subtable_ref) : Value.table =
  let elems = subtable_elements t sp root_sections sub st in
  let tuples =
    List.map
      (fun e ->
        match e with
        | El_flat d ->
            let atoms = read_data t sp d in
            assemble sub atoms []
        | El_complex (v, _) -> read_object t sp root_sections sub v)
      elems
  in
  { Value.kind = sub.kind; tuples }

let root_view t root_sections = obj_view_of_sections t.layout H_root root_sections

let fetch t (schema : Schema.t) (root : Tid.t) : Value.tuple =
  let _, sp, sections = load_root t root in
  read_object t sp sections schema.table (root_view t sections)

(* Path steps for partial access. *)
type step = Attr of string | Elem of int

let rec fetch_steps t sp root_sections (tbl : Schema.table) (view : obj_view) (steps : step list) :
    Value.v =
  match steps with
  | [] ->
      (* whole (sub)object as a single-tuple value *)
      Value.Table { Value.kind = Schema.Set; tuples = [ read_object t sp root_sections tbl view ] }
  | Attr name :: rest -> (
      let _, f = Schema.field_exn tbl name in
      match f.attr with
      | Schema.Atomic _ ->
          if rest <> [] then store_error "path continues past atomic attribute %s" name;
          let atoms = read_data t sp view.data in
          let idx =
            (* position among the atomic attributes only *)
            let rec count i = function
              | [] -> store_error "attribute %s not found" name
              | (g : Schema.field) :: gs ->
                  if Schema.same_name g.name name then i
                  else
                    count (match g.attr with Schema.Atomic _ -> i + 1 | Schema.Table _ -> i) gs
            in
            count 0 tbl.fields
          in
          Value.Atom (List.nth atoms idx)
      | Schema.Table sub ->
          let sti =
            let rec pos i = function
              | [] -> store_error "subtable %s not found" name
              | (n, _) :: ns -> if Schema.same_name n name then i else pos (i + 1) ns
            in
            pos 0 (table_fields tbl)
          in
          let st = List.nth view.subtables sti in
          fetch_subtable_steps t sp root_sections sub st rest)
  | Elem _ :: _ -> store_error "unexpected element index at object level"

and fetch_subtable_steps t sp root_sections (sub : Schema.table) (st : subtable_ref)
    (steps : step list) : Value.v =
  match steps with
  | [] -> Value.Table (read_subtable t sp root_sections sub st)
  | Elem i :: rest -> (
      let elems = subtable_elements t sp root_sections sub st in
      match List.nth_opt elems i with
      | None -> store_error "element index %d out of range" i
      | Some (El_flat d) ->
          if rest = [] then
            Value.Table { Value.kind = Schema.Set; tuples = [ assemble sub (read_data t sp d) [] ] }
          else (
            match rest with
            | [ Attr name ] -> (
                match Schema.field_exn sub name with
                | _, { Schema.attr = Schema.Atomic _; _ } ->
                    let atoms = read_data t sp d in
                    let rec count i = function
                      | [] -> store_error "attribute %s not found" name
                      | (g : Schema.field) :: gs ->
                          if Schema.same_name g.name name then i
                          else count (match g.attr with Schema.Atomic _ -> i + 1 | Schema.Table _ -> i) gs
                    in
                    Value.Atom (List.nth atoms (count 0 sub.fields))
                | _ -> store_error "flat element has no subtable attributes")
            | _ -> store_error "invalid path into flat element")
      | Some (El_complex (v, _)) -> fetch_steps t sp root_sections sub v rest)
  | Attr _ :: _ -> store_error "expected element index before attribute inside subtable"

let fetch_path t (schema : Schema.t) (root : Tid.t) (steps : step list) : Value.v =
  let _, sp, sections = load_root t root in
  fetch_steps t sp sections schema.table (root_view t sections) steps

(* ------------------------------------------------------------------ *)
(* Deletion *)

let rec free_object t sp root_sections (view : obj_view) =
  delete_sub sp view.data;
  List.iter (free_subtable t sp root_sections) view.subtables

and free_subtable t sp root_sections (st : subtable_ref) =
  (* free elements; the subtable's own MD record too when it has one *)
  (match st with
  | St_md m ->
      let sections = read_md t sp m in
      List.iter (fun section -> List.iter (free_entry t sp root_sections) section) sections;
      delete_sub sp m
  | St_section (home, i) ->
      let sections = sections_at t sp root_sections home in
      let entries = match List.nth_opt sections i with Some e -> e | None -> [] in
      List.iter (free_entry t sp root_sections) entries)

and free_entry t sp root_sections = function
  | Subtuple.D d -> delete_sub sp d
  | Subtuple.C m ->
      let child_sections = read_md t sp m in
      (match t.layout with
      | Mini_directory.SS2 | Mini_directory.SS1 ->
          (* child is a complex subobject MD *)
          let v = obj_view_of_sections t.layout (H_md m) child_sections in
          free_object t sp root_sections v
      | Mini_directory.SS3 ->
          (* child is a nested subtable MD *)
          List.iter (fun section -> List.iter (free_entry t sp root_sections) section) child_sections);
      delete_sub sp m

(* Release pages of the object that hold no live records anymore. *)
let release_empty_pages t plist =
  List.iter
    (fun (lpage, page) ->
      let empty = Buffer_pool.read t.pool page (fun buf -> Page.live_records buf = []) in
      if empty then begin
        Page_list.remove plist ~lpage;
        if t.clustering then begin
          t.free_pages <- page :: t.free_pages;
          Free_space.forget t.data page
        end
      end)
    (Page_list.entries plist)

let delete t (_schema : Schema.t) (root : Tid.t) =
  let plist, sp, sections = load_root t root in
  free_object t sp sections (root_view t sections);
  release_empty_pages t plist;
  Heap.delete t.dir root

(* ------------------------------------------------------------------ *)
(* Statistics over one object's storage *)

type md_stat = {
  md_subtuples : int;
  md_bytes : int;
  data_subtuples : int;
  data_bytes : int;
  pages : int;
  pointer_entries : int;
}

let md_stats t (_schema : Schema.t) (root : Tid.t) : md_stat =
  let plist, sp, sections = load_root t root in
  let md_n = ref 1 and md_b = ref 0 and data_n = ref 0 and data_b = ref 0 and ptrs = ref 0 in
  (* root record bytes *)
  md_b := String.length (encode_root_record plist sections);
  let count_sections (ss : Subtuple.sections) =
    List.iter (fun sec -> ptrs := !ptrs + List.length sec) ss
  in
  count_sections sections;
  let rec go_entry = function
    | Subtuple.D d ->
        incr data_n;
        data_b := !data_b + String.length (read_sub sp d)
    | Subtuple.C m ->
        incr md_n;
        let payload = read_sub sp m in
        md_b := !md_b + String.length payload;
        let child = Subtuple.decode_md payload in
        count_sections child;
        List.iter (fun sec -> List.iter go_entry sec) child
  in
  List.iter (fun sec -> List.iter go_entry sec) sections;
  {
    md_subtuples = !md_n;
    md_bytes = !md_b;
    data_subtuples = !data_n;
    data_bytes = !data_b;
    pages = List.length (Page_list.entries plist);
    pointer_entries = !ptrs;
  }

(* Logical MD view for rendering (Fig 6). *)
let md_view t (_schema : Schema.t) (root : Tid.t) : Mini_directory.view =
  let plist, sp, sections = load_root t root in
  let render_data d = String.concat " " (List.map Atom.to_string (read_data t sp d)) in
  let rec entry_view = function
    | Subtuple.D d -> Mini_directory.Vd (render_data d)
    | Subtuple.C m ->
        let child = read_md t sp m in
        Mini_directory.Vc (Mini_directory.Md { label = "MD@" ^ Mini_tid.to_string m; entries = List.map (List.map entry_view) child })
  in
  Mini_directory.Md
    {
      label = Printf.sprintf "root MD (%s, %d pages)" (Mini_directory.layout_name t.layout)
          (List.length (Page_list.entries plist));
      entries = List.map (List.map entry_view) sections;
    }

(* ------------------------------------------------------------------ *)
(* Partial updates *)

let write_root t (root : Tid.t) plist sections = Heap.update t.dir root (encode_root_record plist sections)

(* Rewrite the first-level atoms of the (sub)object reached by [steps]
   (which must end at a subobject / element, not at a subtable). *)
(* Validate replacement atoms against the first-level atomic attributes
   of [tbl]: arity and per-position type conformance. *)
let check_first_level_atoms (tbl : Schema.table) (atoms : Atom.t list) =
  let tys =
    List.filter_map
      (fun (f : Schema.field) ->
        match f.Schema.attr with Schema.Atomic ty -> Some (f.Schema.name, ty) | Schema.Table _ -> None)
      tbl.Schema.fields
  in
  if List.length tys <> List.length atoms then
    store_error "update_atoms: expected %d atomic values, got %d" (List.length tys) (List.length atoms);
  List.iter2
    (fun (name, ty) a ->
      if not (Atom.conforms ty a) then
        store_error "update_atoms: %s does not conform to %s for attribute %s" (Atom.to_string a)
          (Atom.type_name ty) name)
    tys atoms

let update_atoms t (schema : Schema.t) (root : Tid.t) (steps : step list) (new_atoms : Atom.t list) =
  let plist, sp, sections = load_root t root in
  let rec descend (tbl : Schema.table) (view : obj_view) = function
    | [] -> view.data
    | Attr name :: rest -> (
        let _, f = Schema.field_exn tbl name in
        match f.attr with
        | Schema.Atomic _ -> store_error "update_atoms: path hits atomic attribute"
        | Schema.Table sub ->
            let sti =
              let rec pos i = function
                | [] -> store_error "subtable %s not found" name
                | (n, _) :: ns ->
                    if Schema.same_name n name then i else pos (i + 1) ns
              in
              pos 0 (table_fields tbl)
            in
            descend_subtable sub (List.nth view.subtables sti) rest)
    | Elem _ :: _ -> store_error "update_atoms: unexpected element step"
  and descend_subtable (sub : Schema.table) st = function
    | Elem i :: rest -> (
        let elems = subtable_elements t sp sections sub st in
        match List.nth_opt elems i with
        | None -> store_error "update_atoms: element %d out of range" i
        | Some (El_flat d) -> if rest = [] then d else store_error "update_atoms: flat element has no children"
        | Some (El_complex (v, _)) -> descend sub v rest)
    | _ -> store_error "update_atoms: expected element index"
  in
  let d = descend schema.table (root_view t sections) steps in
  (* schema of the target (sub)object, for validation *)
  let rec target_table (tbl : Schema.table) = function
    | [] -> tbl
    | Attr name :: rest -> (
        match Schema.field_exn tbl name with
        | _, { Schema.attr = Schema.Table sub; _ } -> target_table sub rest
        | _ -> tbl)
    | Elem _ :: rest -> target_table tbl rest
  in
  check_first_level_atoms (target_table schema.table steps) new_atoms;
  update_sub t sp d (Subtuple.encode_data new_atoms);
  (* placement may have extended the page list (spill) *)
  write_root t root plist sections

(* Append a new element tuple to the subtable reached by [steps] (the
   last step must be Attr of a table attribute). *)
let append_element t (schema : Schema.t) (root : Tid.t) (steps : step list) (etup : Value.tuple) =
  let plist, sp, sections = load_root t root in
  let root_sections = ref sections in
  (* navigate to the subtable ref and its element schema *)
  let rec descend (tbl : Schema.table) (view : obj_view) = function
    | [ Attr name ] -> (
        let _, f = Schema.field_exn tbl name in
        match f.attr with
        | Schema.Atomic _ -> store_error "append_element: %s is atomic" name
        | Schema.Table sub ->
            let sti =
              let rec pos i = function
                | [] -> store_error "subtable %s not found" name
                | (n, _) :: ns ->
                    if Schema.same_name n name then i else pos (i + 1) ns
              in
              pos 0 (table_fields tbl)
            in
            (sub, List.nth view.subtables sti))
    | Attr name :: rest -> (
        let _, f = Schema.field_exn tbl name in
        match f.attr with
        | Schema.Atomic _ -> store_error "append_element: path hits atomic attribute"
        | Schema.Table sub ->
            let sti =
              let rec pos i = function
                | [] -> store_error "subtable %s not found" name
                | (n, _) :: ns ->
                    if Schema.same_name n name then i else pos (i + 1) ns
              in
              pos 0 (table_fields tbl)
            in
            descend_subtable sub (List.nth view.subtables sti) rest)
    | _ -> store_error "append_element: path must end at a subtable attribute"
  and descend_subtable (sub : Schema.table) st = function
    | Elem i :: rest -> (
        let elems = subtable_elements t sp !root_sections sub st in
        match List.nth_opt elems i with
        | None -> store_error "append_element: element %d out of range" i
        | Some (El_complex (v, _)) -> descend sub v rest
        | Some (El_flat _) -> store_error "append_element: cannot descend into flat element")
    | _ -> store_error "append_element: expected element index"
  in
  let sub, st = descend schema.table (root_view t !root_sections) steps in
  Value.check_tuple sub etup;
  (* build the new element's records *)
  (match t.layout, st with
  | (Mini_directory.SS1 | Mini_directory.SS3), St_md m ->
      let new_section =
        match t.layout with
        | Mini_directory.SS1 ->
            if Schema.flat sub then
              let eatoms, _ = split_fields sub etup in
              [ Subtuple.D (place sp (Subtuple.encode_data eatoms)) ]
            else
              let child_sections = build_sections t t.layout sp sub etup in
              [ Subtuple.C (place sp (Subtuple.encode_md child_sections)) ]
        | Mini_directory.SS3 ->
            let eatoms, esubs = split_fields sub etup in
            let d = place sp (Subtuple.encode_data eatoms) in
            Subtuple.D d
            :: List.map (fun (_, s2, inner2) -> Subtuple.C (build_subtable t t.layout sp s2 inner2)) esubs
        | Mini_directory.SS2 -> assert false
      in
      let cur = read_md t sp m in
      update_sub t sp m (Subtuple.encode_md (cur @ [ new_section ]))
  | Mini_directory.SS2, St_section (home, i) ->
      let new_entry =
        if Schema.flat sub then
          let eatoms, _ = split_fields sub etup in
          Subtuple.D (place sp (Subtuple.encode_data eatoms))
        else
          let child_sections = build_sections t t.layout sp sub etup in
          Subtuple.C (place sp (Subtuple.encode_md child_sections))
      in
      let cur = sections_at t sp !root_sections home in
      let updated = List.mapi (fun j sec -> if j = i then sec @ [ new_entry ] else sec) cur in
      (match home with
      | H_root -> root_sections := updated
      | H_md m -> update_sub t sp m (Subtuple.encode_md updated))
  | _ -> store_error "append_element: layout/subtable-ref mismatch");
  write_root t root plist !root_sections

(* Remove element [idx] from the subtable reached by [steps]. *)
let delete_element t (schema : Schema.t) (root : Tid.t) (steps : step list) ~idx =
  let plist, sp, sections = load_root t root in
  let root_sections = ref sections in
  let rec descend (tbl : Schema.table) (view : obj_view) = function
    | [ Attr name ] -> (
        let _, f = Schema.field_exn tbl name in
        match f.attr with
        | Schema.Atomic _ -> store_error "delete_element: %s is atomic" name
        | Schema.Table sub ->
            let sti =
              let rec pos i = function
                | [] -> store_error "subtable %s not found" name
                | (n, _) :: ns ->
                    if Schema.same_name n name then i else pos (i + 1) ns
              in
              pos 0 (table_fields tbl)
            in
            (sub, List.nth view.subtables sti))
    | Attr name :: rest -> (
        let _, f = Schema.field_exn tbl name in
        match f.attr with
        | Schema.Atomic _ -> store_error "delete_element: path hits atomic attribute"
        | Schema.Table sub ->
            let sti =
              let rec pos i = function
                | [] -> store_error "subtable %s not found" name
                | (n, _) :: ns ->
                    if Schema.same_name n name then i else pos (i + 1) ns
              in
              pos 0 (table_fields tbl)
            in
            descend_subtable sub (List.nth view.subtables sti) rest)
    | _ -> store_error "delete_element: path must end at a subtable attribute"
  and descend_subtable (sub : Schema.table) st = function
    | Elem i :: rest -> (
        let elems = subtable_elements t sp !root_sections sub st in
        match List.nth_opt elems i with
        | None -> store_error "delete_element: element %d out of range" i
        | Some (El_complex (v, _)) -> descend sub v rest
        | Some (El_flat _) -> store_error "delete_element: cannot descend into flat element")
    | _ -> store_error "delete_element: expected element index"
  in
  let _sub, st = descend schema.table (root_view t !root_sections) steps in
  (match st with
  | St_md m ->
      let cur = read_md t sp m in
      (match List.nth_opt cur idx with
      | None -> store_error "delete_element: index %d out of range" idx
      | Some section -> List.iter (free_entry t sp !root_sections) section);
      let updated = List.filteri (fun j _ -> j <> idx) cur in
      update_sub t sp m (Subtuple.encode_md updated)
  | St_section (home, i) ->
      let cur = sections_at t sp !root_sections home in
      let entries = List.nth cur i in
      (match List.nth_opt entries idx with
      | None -> store_error "delete_element: index %d out of range" idx
      | Some entry -> free_entry t sp !root_sections entry);
      let updated =
        List.mapi (fun j sec -> if j = i then List.filteri (fun k _ -> k <> idx) sec else sec) cur
      in
      (match home with
      | H_root -> root_sections := updated
      | H_md m -> update_sub t sp m (Subtuple.encode_md updated)));
  release_empty_pages t plist;
  write_root t root plist !root_sections

(* ------------------------------------------------------------------ *)
(* Relocation (check-out): move the object to a fresh page set.  Only
   the page list changes; every Mini-TID stays valid because positions
   in the list are preserved (Section 4.1).  Requires clustering (pages
   exclusively owned by this object). *)

let relocate t (root : Tid.t) =
  if not t.clustering then store_error "relocate requires clustered storage";
  let plist, _, sections = load_root t root in
  List.iter
    (fun (lpage, old_page) ->
      let fresh = Buffer_pool.alloc t.pool in
      Buffer_pool.read t.pool old_page (fun src ->
          Buffer_pool.write t.pool fresh (fun dst -> Bytes.blit src 0 dst 0 (Bytes.length src)));
      Free_space.adopt t.data fresh;
      t.free_pages <- old_page :: t.free_pages;
      Free_space.forget t.data old_page;
      Page_list.replace plist ~lpage ~page:fresh)
    (Page_list.entries plist);
  write_root t root plist sections

(* ------------------------------------------------------------------ *)
(* Hierarchical addresses (Section 4.2, Fig 7b).

   An address for an atomic attribute value is the object's root TID
   followed by the Mini-TIDs of the *data subtuples* of every complex
   subobject / flat subobject descended into on the way down.  Prefix
   equality of two addresses therefore decides "same subobject". *)

type hier = { root : Tid.t; path : Mini_tid.t list }

(* Is [a] a prefix of [b] (or vice versa)?  That is the Fig 7b
   P2 = F2 test: both addresses lie in the same subobject chain. *)
let hier_prefix_compatible a b =
  if not (Tid.equal a.root b.root) then false
  else
    let rec go xs ys =
      match xs, ys with
      | [], _ | _, [] -> true
      | x :: xs', y :: ys' -> Mini_tid.equal x y && go xs' ys'
    in
    go a.path b.path

(* Enumerate (atom, hierarchical address) pairs for every value stored
   under [spath] (a pure attribute path) in the object at [root]. *)
let index_entries t (schema : Schema.t) (root : Tid.t) (spath : Schema.path) :
    (Atom.t * hier) list =
  let _, sp, sections = load_root t root in
  let acc = ref [] in
  let atom_position (tbl : Schema.table) name =
    let rec count i = function
      | [] -> store_error "attribute %s not found" name
      | (g : Schema.field) :: gs ->
          if Schema.same_name g.name name then i
          else count (match g.attr with Schema.Atomic _ -> i + 1 | Schema.Table _ -> i) gs
    in
    count 0 tbl.fields
  in
  let rec go (tbl : Schema.table) (view : obj_view) (rev_path : Mini_tid.t list) = function
    | [] -> ()
    | [ name ] -> (
        match Schema.field_exn tbl name with
        | _, { Schema.attr = Schema.Atomic _; _ } ->
            let atoms = read_data t sp view.data in
            let a = List.nth atoms (atom_position tbl name) in
            acc := (a, { root; path = List.rev rev_path }) :: !acc
        | _ -> store_error "index path must end at an atomic attribute")
    | name :: rest -> (
        match Schema.field_exn tbl name with
        | _, { Schema.attr = Schema.Table sub; _ } ->
            let sti =
              let rec pos i = function
                | [] -> store_error "subtable %s not found" name
                | (n, _) :: ns ->
                    if Schema.same_name n name then i else pos (i + 1) ns
              in
              pos 0 (table_fields tbl)
            in
            let st = List.nth view.subtables sti in
            let elems = subtable_elements t sp sections sub st in
            List.iter
              (fun e ->
                match e with
                | El_flat d -> (
                    (* final attribute must live in this flat element *)
                    match rest with
                    | [ attr ] ->
                        let atoms = read_data t sp d in
                        let a = List.nth atoms (atom_position sub attr) in
                        acc := (a, { root; path = List.rev (d :: rev_path) }) :: !acc
                    | _ -> store_error "path descends below a flat subobject")
                | El_complex (v, _) -> go sub v (v.data :: rev_path) rest)
              elems
        | _ -> store_error "path step %s is not a table attribute" name)
  in
  go schema.table (root_view t sections) [] spath;
  List.rev !acc

(* Fig 7a's naive hierarchical addresses (SS3 only): components are the
   MD-subtuple pointers along the path — root TID, then the C pointers
   to each subtable MD, then the final D pointer.  The paper shows these
   are insufficient: the subtable-MD components cannot distinguish
   *which* complex subobject matched, so conjunctive queries still scan
   a candidate superset.  Exposed so the experiments can reproduce the
   7a-vs-7b comparison. *)
let index_entries_fig7a t (schema : Schema.t) (root : Tid.t) (spath : Schema.path) :
    (Atom.t * hier) list =
  if t.layout <> Mini_directory.SS3 then store_error "Fig 7a addresses are defined for SS3";
  let _, sp, sections = load_root t root in
  let acc = ref [] in
  let atom_position (tbl : Schema.table) name =
    let rec count i = function
      | [] -> store_error "attribute %s not found" name
      | (g : Schema.field) :: gs ->
          if Schema.same_name g.name name then i
          else count (match g.attr with Schema.Atomic _ -> i + 1 | Schema.Table _ -> i) gs
    in
    count 0 tbl.fields
  in
  let rec go (tbl : Schema.table) (view : obj_view) (rev_md_path : Mini_tid.t list) = function
    | [] -> ()
    | [ name ] ->
        let atoms = read_data t sp view.data in
        let a = List.nth atoms (atom_position tbl name) in
        (* final component: the D pointer (data subtuple) *)
        acc := (a, { root; path = List.rev (view.data :: rev_md_path) }) :: !acc
    | name :: rest -> (
        match Schema.field_exn tbl name with
        | _, { Schema.attr = Schema.Table sub; _ } ->
            let sti =
              let rec pos i = function
                | [] -> store_error "subtable %s not found" name
                | (n, _) :: ns ->
                    if Schema.same_name n name then i else pos (i + 1) ns
              in
              pos 0 (table_fields tbl)
            in
            let st = List.nth view.subtables sti in
            let md_ptr = match st with St_md m -> m | St_section _ -> store_error "SS3 expected" in
            let elems = subtable_elements t sp sections sub st in
            List.iter
              (fun e ->
                match e with
                | El_flat d -> (
                    match rest with
                    | [ attr ] ->
                        let atoms = read_data t sp d in
                        let a = List.nth atoms (atom_position sub attr) in
                        acc := (a, { root; path = List.rev (d :: md_ptr :: rev_md_path) }) :: !acc
                    | _ -> store_error "path descends below a flat subobject")
                | El_complex (v, _) -> go sub v (md_ptr :: rev_md_path) rest)
              elems
        | _ -> store_error "path step %s is not a table attribute" name)
  in
  go schema.table (root_view t sections) [] spath;
  List.rev !acc

(* Resolve the data subtuple a hierarchical address points at, decoding
   its atoms (the last path component), without touching anything else. *)
let fetch_hier_atoms t (h : hier) : Atom.t list =
  let _, sp, _ = load_root t h.root in
  match List.rev h.path with
  | [] -> store_error "fetch_hier_atoms: empty path"
  | last :: _ -> read_data t sp last

(* Translate a Mini-TID of an object into the equivalent global TID
   (position lookup in the page list, Section 4.1). *)
let resolve_mini t (root : Tid.t) (m : Mini_tid.t) : Tid.t =
  let plist, _, _ = load_root t root in
  { Tid.page = Page_list.resolve plist m.Mini_tid.lpage; slot = m.Mini_tid.slot }

(* --- check-out / check-in (workstation transfer) -------------------- *)

(* Serialise one complex object for shipping to a workstation: the
   root MD subtuple plus copies of its local pages.  Because Mini-TIDs
   address positions in the page list, nothing inside the pages needs
   rewriting — the paper's point about transferring objects "at the
   page level". *)
let checkout t (root : Tid.t) : string =
  if not t.clustering then store_error "checkout requires clustered storage";
  let plist, _, sections = load_root t root in
  let b = Codec.create_sink () in
  Codec.put_uvarint b (page_size t);
  let entries = Page_list.entries plist in
  Codec.put_uvarint b (List.length entries);
  List.iter
    (fun (lpage, page) ->
      Codec.put_uvarint b lpage;
      Buffer_pool.read t.pool page (fun buf -> Codec.put_string b (Bytes.to_string buf)))
    entries;
  (* root sections travel separately (the page list is rebuilt on
     check-in since database page numbers differ) *)
  let sb = Codec.create_sink () in
  Subtuple.put_sections sb sections;
  Codec.put_string b (Codec.contents sb);
  Codec.contents b

(* Install a checked-out object into (another) store; returns its new
   root TID.  All Mini-TIDs — and therefore subobject t-name paths —
   remain valid. *)
let checkin t (payload : string) : Tid.t =
  let src = Codec.source_of_string payload in
  let ps = Codec.get_uvarint src in
  if ps <> page_size t then store_error "checkin: page size mismatch (%d vs %d)" ps (page_size t);
  let n = Codec.get_uvarint src in
  let plist = Page_list.create () in
  (* page-list positions must be reproduced exactly *)
  let entries =
    List.init n (fun _ ->
        let lpage = Codec.get_uvarint src in
        let image = Codec.get_string src in
        (lpage, image))
  in
  let max_pos = List.fold_left (fun acc (lp, _) -> max acc lp) (-1) entries in
  (* fill with gaps first, then replace the live positions *)
  for _ = 0 to max_pos do
    ignore (Page_list.add plist (-2))
  done;
  for i = 0 to max_pos do
    if not (List.mem_assoc i entries) then Page_list.remove plist ~lpage:i
  done;
  List.iter
    (fun (lpage, image) ->
      let page = Buffer_pool.alloc t.pool in
      Buffer_pool.write t.pool page (fun buf -> Bytes.blit_string image 0 buf 0 (Bytes.length buf));
      Free_space.adopt t.data page;
      Page_list.replace plist ~lpage ~page)
    entries;
  let sections = Subtuple.get_sections (Codec.source_of_string (Codec.get_string src)) in
  Heap.insert t.dir (encode_root_record plist sections)

(* --- persistence --------------------------------------------------- *)

(* Page-ownership metadata needed to re-attach a store to a persisted
   disk: (root-directory pages, data pages, free pages). *)
let export_meta t : int list * int list * int list =
  (Heap.pages t.dir, Free_space.pages t.data, t.free_pages)

let restore ?(layout = Mini_directory.SS3) ?(clustering = true) pool ~dir_pages ~data_pages
    ~free_pages =
  let dir = Heap.restore pool ~pages:dir_pages in
  make ~layout ~clustering pool ~dir ~data:(Free_space.restore pool data_pages) ~free_pages

(* All root TIDs in the store. *)
let roots t = List.rev (Heap.fold t.dir (fun acc tid _ -> tid :: acc) [])
let root_position t root = Heap.position t.dir root
let is_root t root = Heap.is_home t.dir root
