(* SYS provider registry: named thunks materializing subsystem state
   as NF² relations.  Registration and lookup are mutex-guarded; the
   materialize thunks themselves run outside the registry mutex (a
   provider may take its own subsystem's locks). *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value

module Build = struct
  let field n ty = { Schema.name = n; attr = Schema.Atomic ty }
  let nested n kind fields = { Schema.name = n; attr = Schema.Table { Schema.kind; fields } }

  let relation name fields =
    Schema.validate { Schema.name; table = { Schema.kind = Schema.Set; fields } }

  let vint = Value.int_
  let vstr = Value.str
  let vbool = Value.bool_
  let vfloat = Value.float_
  let vset = Value.set
  let vlist = Value.list_
end

type provider = {
  name : string;
  schema : Schema.t;
  materialize : unit -> Value.tuple list;
}

type t = {
  mu : Mutex.t;
  providers : (string, provider) Hashtbl.t; (* key: uppercased name *)
  calls : int Atomic.t; (* cumulative materializations *)
}

let create () = { mu = Mutex.create (); providers = Hashtbl.create 8; calls = Atomic.make 0 }

let with_mu t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let register t (p : provider) =
  let name = String.uppercase_ascii p.name in
  let materialize () =
    Atomic.incr t.calls;
    p.materialize ()
  in
  with_mu t (fun () -> Hashtbl.replace t.providers name { p with name; materialize })

let find t name =
  with_mu t (fun () -> Hashtbl.find_opt t.providers (String.uppercase_ascii name))

let names t =
  with_mu t (fun () -> Hashtbl.fold (fun n _ acc -> n :: acc) t.providers [])
  |> List.sort String.compare

let materializations t = Atomic.get t.calls
