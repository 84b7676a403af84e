(** Direct-indexed int→int map over dense non-negative keys (physical
    line numbers): a flat array grown by doubling, with keys past
    {!direct_limit} spilling to an {!Itab}.  Values are non-negative;
    [-1] means absent.  Probes never allocate. *)

type t

(** Keys at or above this live in the hashed spill. *)
val direct_limit : int

(** [create ()] is an empty map whose direct array starts with room
    for keys below 1024 and grows on demand. *)
val create : unit -> t

(** [find t key] is [key]'s value, or [-1] when absent. *)
val find : t -> int -> int

(** [mem t key] tests whether [key] is bound. *)
val mem : t -> int -> bool

(** [set t key v] binds [key] to [v]; [v] must be non-negative. *)
val set : t -> int -> int -> unit

(** [remove t key] drops the binding if present. *)
val remove : t -> int -> unit

(** [length t] counts bindings (linear scan; tests and probes). *)
val length : t -> int

(** [reset t] removes every binding, keeping the allocated arrays. *)
val reset : t -> unit
