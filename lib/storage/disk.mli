(** Simulated disk: a growable array of fixed-size pages with physical
    I/O accounting.

    The 1986 prototype ran against real DASD; the cost model that
    matters for the paper's comparative claims is the number of page
    reads and writes, which this module counts.  All page-content
    access must go through {!Buffer_pool}.

    The disk is also the physical fault surface for crash-recovery
    testing: {!Faulty_disk} installs a write hook that can tear a page
    write mid-flight and raise {!Crash}, the simulated machine death. *)

exception Crash of string
(** Simulated process/machine death, raised by an armed fault plan.
    Everything in memory (buffer pool, catalog, unflushed WAL tail) is
    lost; the page array as written so far survives. *)

type stats = { mutable reads : int; mutable writes : int; mutable allocs : int }

type t

(** [create ?page_size ()] — default page size 4096 bytes (min 64). *)
val create : ?page_size:int -> unit -> t

val page_size : t -> int
val npages : t -> int

(** Live counters (mutable record — copy fields before further I/O). *)
val stats : t -> stats

(** The disk's counter source, [disk.*] names. *)
val counters : t -> (string * int) list

val reset_stats : t -> unit

(** Allocate a zeroed page; returns its page number.  Allocation is a
    durable metadata operation in this model (only page writes fail). *)
val alloc : t -> int

(** Physical read of a page image into [dst]. *)
val read_into : t -> int -> Bytes.t -> unit

(** Physical write of [src] onto a page.  May raise {!Crash} when a
    fault plan is armed. *)
val write_from : t -> int -> Bytes.t -> unit

(** Fault injection (see {!Faulty_disk}): called on every physical
    write with (page, image).  [None] proceeds; [Some n] applies only
    the first [n] bytes and raises {!Crash}. *)
val set_write_hook : t -> (int -> Bytes.t -> int option) option -> unit

(** Total allocated bytes ([npages * page_size]); used for space
    experiments. *)
val total_bytes : t -> int

(** {1 Persistence} *)

(** Copies of all physical page images, in page order. *)
val export_pages : t -> Bytes.t array

(** Reconstruct a disk from page images. *)
val of_pages : page_size:int -> Bytes.t array -> t
