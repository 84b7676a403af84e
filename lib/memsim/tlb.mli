(** Per-CPU fully-associative LRU TLB.  TLB-refill time is the dominant
    kernel overhead of the workloads (§4.1); prefetches to unmapped
    pages are dropped (§6.2).

    Translations live in numbered slots on an intrusive recency list,
    so every operation is O(1).  A slot keeps its translation until the
    next {!generation} change, which lets a caller memoize the slot of a
    lookup and replay later hits with {!touch}. *)

type t

(** [create ~entries] builds an empty TLB. *)
val create : entries:int -> t

(** [lookup t vpage] returns the cached frame and refreshes recency;
    counters update. *)
val lookup : t -> int -> int option

(** [lookup_frame t vpage] is {!lookup} without the option box: the
    frame, or [-1] on a miss.  Same counter and recency effects; for
    the per-reference translation path. *)
val lookup_frame : t -> int -> int

(** [lookup_slot t vpage] is {!lookup} returning the slot that holds
    [vpage], or [-1] on a miss.  Same counter and recency effects. *)
val lookup_slot : t -> int -> int

(** [slot_frame t s] is the frame cached in slot [s]. *)
val slot_frame : t -> int -> int

(** [probe t vpage] is [lookup] without statistics or recency effects
    (the prefetch unit's non-faulting probe). *)
val probe : t -> int -> int option

(** [probe_frame t vpage] is {!probe} with a [-1] sentinel for "not
    mapped" — allocation-free. *)
val probe_frame : t -> int -> int

(** [touch t s] replays a guaranteed hit on slot [s], which the caller
    has proven still holds its translation (a slot memoized at an
    unchanged {!generation}): counters and recency advance exactly as
    {!lookup} would, without probing the table. *)
val touch : t -> int -> unit

(** [generation t] changes exactly when the TLB's contents change: an
    insert of a new or remapped page, or an invalidate or flush that
    removed something.  Recency refreshes do not count.  A slot that
    held a translation at generation [g] still holds it while the
    generation is [g] — the memoization key for lookup fast paths. *)
val generation : t -> int

(** [insert_slot t ~vpage ~frame] installs a translation, evicting the
    LRU entry when full, and returns its slot. *)
val insert_slot : t -> vpage:int -> frame:int -> int

(** [insert t ~vpage ~frame] is {!insert_slot} without the slot. *)
val insert : t -> vpage:int -> frame:int -> unit

(** [invalidate t vpage] drops one translation (remap/recolor
    shootdown). *)
val invalidate : t -> int -> unit

(** [flush t] empties the TLB. *)
val flush : t -> unit

(** [hits t] / [misses t] are cumulative counters. *)
val hits : t -> int

val misses : t -> int

(** [reset_stats t] zeroes counters, keeping contents. *)
val reset_stats : t -> unit

(** [occupancy t] is the number of live translations. *)
val occupancy : t -> int
