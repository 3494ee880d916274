(** A condition variable whose waits also end at a deadline.  Every
    call is made holding the mutex given to {!create}. *)

type t

val create : Mutex.t -> t
val broadcast : t -> unit

(** Block until a {!broadcast} or until [deadline] (a
    [Unix.gettimeofday] time) has passed.  Wake-ups may be spurious:
    the caller re-checks its condition and its deadline. *)
val wait : t -> deadline:float -> unit
