(** SYS introspection: the provider registry behind the virtual
    [SYS_*] tables.

    Every subsystem that wants its runtime state queryable registers a
    {!provider}: an uppercase table name, an NF² schema, and a thunk
    that materializes the current state as a tuple list on demand.
    The engine's catalog falls back to this registry when a name does
    not resolve to a stored table, treating the materialized relation
    as a scan-only source — no index paths, frozen at first touch for
    the duration of one statement (see [Db.view]).

    Providers must be pure producers: a [materialize] thunk may take
    its subsystem's own locks but must never call back into query
    execution, or a SYS query could deadlock against itself. *)

module Schema = Nf2_model.Schema
module Value = Nf2_model.Value

type provider = {
  name : string;  (** table name; uppercased on registration *)
  schema : Schema.t;
  materialize : unit -> Value.tuple list;
      (** current state, one call per statement (freeze-at-first-touch) *)
}

type t

val create : unit -> t

(** Register (or replace) a provider.  The registry wraps
    [materialize] so {!materializations} counts every call. *)
val register : t -> provider -> unit

(** Case-insensitive lookup. *)
val find : t -> string -> provider option

(** Registered names, sorted. *)
val names : t -> string list

(** Cumulative [materialize] calls across all providers — the bench
    asserts this stays at zero while only user tables are queried
    (SYS stays off the hot path). *)
val materializations : t -> int
