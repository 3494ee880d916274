(* Tuple names (Section 4.3 of the paper): system-generated keys that
   identify complex objects, complex subobjects, flat subobjects, and
   subtables across tables, implemented like hierarchical index
   addresses so the same machinery (and query optimisation) applies.

   Per Fig 8:
     U          t-name of a complex object   = its root TID
     V = V1.V2  t-name of a complex subobject = path to its first-level
                data subtuple
     T = T1..T3 t-name of a flat subobject    = path to its data subtuple
     W, X       t-names of subtables          = path to the *subtable*,
                addressed here as the owning (sub)object's data-subtuple
                path plus the attribute position — this works uniformly
                under SS1/SS2/SS3, whereas an MD-subtuple pointer (the
                paper's sketch) would not exist for subtables under SS2;
                the paper itself notes a modified implementation is
                needed in such cases /Kue86/.

   The difference the paper requires — subtable t-names are *not* legal
   index addresses — is captured by the [kind] tag. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module OS = Nf2_storage.Object_store
module Tid = Nf2_storage.Tid
module Mini_tid = Nf2_storage.Mini_tid

exception Tname_error of string

let tname_error fmt = Fmt.kstr (fun s -> raise (Tname_error s)) fmt

type kind =
  | K_object (* a whole complex object *)
  | K_subobject (* a complex or flat subobject *)
  | K_subtable of int (* a subtable: attribute position in its owner *)

type t = {
  table : string; (* catalog name of the owning table *)
  kind : kind;
  root : Tid.t;
  steps : OS.step list; (* navigation path from the root *)
}

let to_string t =
  let step_str = function OS.Attr a -> a | OS.Elem i -> string_of_int i in
  Printf.sprintf "@%s:%s:%s%s" t.table (Tid.to_string t.root)
    (String.concat "/" (List.map step_str t.steps))
    (match t.kind with K_subtable i -> Printf.sprintf "!%d" i | _ -> "")

(* t-names are usable as index addresses only for objects/subobjects *)
let valid_as_index_address t = match t.kind with K_subtable _ -> false | _ -> true

(* --- construction ------------------------------------------------------ *)

let of_object ~table (root : Tid.t) = { table; kind = K_object; root; steps = [] }

(* [steps] must address an element (…; Attr a; Elem i). *)
let of_subobject ~table (root : Tid.t) (steps : OS.step list) =
  (match List.rev steps with
  | OS.Elem _ :: _ -> ()
  | _ -> tname_error "subobject t-name path must end at an element");
  { table; kind = K_subobject; root; steps }

(* [steps] must address a subtable (…; Attr a). *)
let of_subtable ~table (root : Tid.t) (steps : OS.step list) =
  match List.rev steps with
  | OS.Attr _ :: _ -> { table; kind = K_subtable (List.length steps); root; steps }
  | _ -> tname_error "subtable t-name path must end at an attribute"

(* --- resolution --------------------------------------------------------- *)

(* Dereference a t-name against the store it was minted on. *)
let resolve store (schema : Schema.t) (t : t) : Value.v =
  match t.kind with
  | K_object ->
      Value.Table { Value.kind = Schema.Set; tuples = [ OS.fetch store schema t.root ] }
  | K_subobject | K_subtable _ -> OS.fetch_path store schema t.root t.steps

(* --- registry ------------------------------------------------------------ *)

(* Databases hand out t-name tokens; the registry resolves tokens back.
   Tokens are stable strings suitable for embedding in application
   programs (the paper's motivation: communicate references to database
   objects to application programs for later direct access). *)
type registry = { mutable names : (string * t) list; mutable counter : int }

let create_registry () = { names = []; counter = 0 }

let register reg (t : t) : string =
  reg.counter <- reg.counter + 1;
  let token = Printf.sprintf "t%06d" reg.counter in
  reg.names <- (token, t) :: reg.names;
  token

let find_token reg token =
  match List.assoc_opt token reg.names with
  | Some t -> t
  | None -> tname_error "unknown tuple name token %s" token

let all reg = reg.names

(* Rebuild a registry from persisted (token, name) pairs; the counter
   resumes above the largest token so new tokens stay unique. *)
let restore_registry (names : (string * t) list) : registry =
  let counter =
    List.fold_left
      (fun acc (token, _) ->
        match int_of_string_opt (String.sub token 1 (String.length token - 1)) with
        | Some n -> max acc n
        | None -> acc)
      0 names
  in
  { names; counter }
