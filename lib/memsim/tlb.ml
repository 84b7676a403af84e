(** Per-CPU translation lookaside buffer: fully associative, LRU.

    The TLB matters to the paper in two ways: TLB-refill time is the
    dominant kernel overhead of the workloads (§4.1), and prefetches to
    unmapped pages are dropped (§6.2), which defeats prefetching in
    large-stride codes like applu.

    Representation: [entries] slots holding a (vpage, frame) pair each,
    threaded on an intrusive doubly-linked recency list, plus a
    vpage→slot {!Pcolor_util.Itab}.  Every slot is always on the list,
    and free slots form its tail: an insert takes the tail slot (free,
    or else the LRU entry, which it evicts), an invalidation moves the
    freed slot to the tail, and a hit moves its slot to the head.  So
    every operation is O(1) and the victim is simply the tail.

    A slot keeps its translation until the next content change, which
    bumps {!generation}; a caller that memoizes the slot of a lookup may
    replay later hits on it with {!touch} while the generation is
    unchanged, without probing the table. *)

type t = {
  entries : int;
  slot_of : Pcolor_util.Itab.t; (* vpage -> slot *)
  vpage : int array; (* slot -> vpage, -1 = free *)
  frame : int array; (* slot -> frame *)
  prev : int array; (* slot -> towards head (more recent), -1 at head *)
  next : int array; (* slot -> towards tail (less recent), -1 at tail *)
  mutable head : int;
  mutable tail : int;
  mutable size : int; (* live translations *)
  mutable gen : int; (* bumped on every content change *)
  mutable hits : int;
  mutable misses : int;
}

let[@inline] unlink t s =
  let p = Array.unsafe_get t.prev s and n = Array.unsafe_get t.next s in
  if p <> -1 then Array.unsafe_set t.next p n else t.head <- n;
  if n <> -1 then Array.unsafe_set t.prev n p else t.tail <- p

let[@inline] push_front t s =
  Array.unsafe_set t.prev s (-1);
  Array.unsafe_set t.next s t.head;
  Array.unsafe_set t.prev t.head s;
  t.head <- s

let push_back t s =
  Array.unsafe_set t.next s (-1);
  Array.unsafe_set t.prev s t.tail;
  Array.unsafe_set t.next t.tail s;
  t.tail <- s

(* Move [s] to the head (most recent).  The list always holds every
   slot, so it is never empty when a slot moves. *)
let[@inline] promote t s =
  if t.head <> s then begin
    unlink t s;
    push_front t s
  end

(* Every slot free, linked 0 (head) .. entries-1 (tail). *)
let clear t =
  let n = t.entries in
  Pcolor_util.Itab.reset t.slot_of;
  Array.fill t.vpage 0 n (-1);
  for s = 0 to n - 1 do
    t.prev.(s) <- s - 1;
    t.next.(s) <- (if s = n - 1 then -1 else s + 1)
  done;
  t.head <- 0;
  t.tail <- n - 1;
  t.size <- 0

(** [create ~entries] builds an empty TLB with [entries] slots. *)
let create ~entries =
  if entries <= 0 then invalid_arg "Tlb.create: entries must be positive";
  let t =
    {
      entries;
      slot_of = Pcolor_util.Itab.create ~capacity:(2 * entries) ();
      vpage = Array.make entries (-1);
      frame = Array.make entries 0;
      prev = Array.make entries (-1);
      next = Array.make entries (-1);
      head = 0;
      tail = 0;
      size = 0;
      gen = 0;
      hits = 0;
      misses = 0;
    }
  in
  clear t;
  t

(** [lookup_slot t vpage] is the slot holding [vpage] (recency
    refreshed, counters updated), or [-1] on a TLB miss.  Read the
    frame with {!slot_frame}. *)
let lookup_slot t vpage =
  let s = Pcolor_util.Itab.find t.slot_of vpage ~default:(-1) in
  if s >= 0 then begin
    t.hits <- t.hits + 1;
    promote t s
  end
  else t.misses <- t.misses + 1;
  s

(** [slot_frame t s] is the frame cached in slot [s]. *)
let[@inline] slot_frame t s = Array.unsafe_get t.frame s

(** [lookup_frame t vpage] is the cached frame for [vpage] (recency
    refreshed, counters updated), or [-1] on a TLB miss — {!lookup}
    without the [option] box. *)
let lookup_frame t vpage =
  let s = lookup_slot t vpage in
  if s >= 0 then slot_frame t s else -1

(** [lookup t vpage] is {!lookup_frame} boxed: the cached frame and a
    recency refresh, or [None] on a TLB miss. *)
let lookup t vpage =
  let frame = lookup_frame t vpage in
  if frame >= 0 then Some frame else None

(** [probe_frame t vpage] is the cached frame for [vpage], or [-1],
    without statistics or recency effects — the prefetch unit's
    non-faulting probe (§6.2), which runs on every candidate line. *)
let probe_frame t vpage =
  let s = Pcolor_util.Itab.find t.slot_of vpage ~default:(-1) in
  if s >= 0 then slot_frame t s else -1

(** [probe t vpage] is {!probe_frame} boxed. *)
let probe t vpage =
  let frame = probe_frame t vpage in
  if frame >= 0 then Some frame else None

(** [touch t s] replays a guaranteed hit on slot [s], which the caller
    has proven still holds its translation (a memoized lookup while
    {!generation} was unchanged): counters and recency advance exactly
    as {!lookup} would, without probing the table. *)
let touch t s =
  t.hits <- t.hits + 1;
  promote t s

(** [generation t] changes exactly when the TLB's {e contents} change —
    an insert of a new or remapped page, or an invalidate or flush that
    removed something (recency refreshes do not count).  A slot observed to hold a translation at
    generation [g] still holds it while [generation t = g]; memoization
    of lookups keys on this. *)
let generation t = t.gen

(** [insert_slot t ~vpage ~frame] installs a translation, evicting the
    LRU entry when full, and returns its slot (now the most recent). *)
let insert_slot t ~vpage ~frame =
  let s = Pcolor_util.Itab.find t.slot_of vpage ~default:(-1) in
  let s =
    if s >= 0 then begin
      if Array.unsafe_get t.frame s <> frame then t.gen <- t.gen + 1;
      s
    end
    else begin
      (* the tail is a free slot, or else the LRU entry *)
      let s = t.tail in
      let old = Array.unsafe_get t.vpage s in
      if old >= 0 then Pcolor_util.Itab.remove t.slot_of old else t.size <- t.size + 1;
      Array.unsafe_set t.vpage s vpage;
      Pcolor_util.Itab.set t.slot_of vpage s;
      t.gen <- t.gen + 1;
      s
    end
  in
  Array.unsafe_set t.frame s frame;
  promote t s;
  s

(** [insert t ~vpage ~frame] installs a translation, evicting the LRU
    entry when full. *)
let insert t ~vpage ~frame = ignore (insert_slot t ~vpage ~frame)

(** [invalidate t vpage] drops one translation (page remap / recolor). *)
let invalidate t vpage =
  let s = Pcolor_util.Itab.find t.slot_of vpage ~default:(-1) in
  if s >= 0 then begin
    Pcolor_util.Itab.remove t.slot_of vpage;
    Array.unsafe_set t.vpage s (-1);
    t.size <- t.size - 1;
    t.gen <- t.gen + 1;
    if t.tail <> s then begin
      unlink t s;
      push_back t s
    end
  end

(** [flush t] empties the TLB (context switch / recoloring shootdown). *)
let flush t =
  if t.size > 0 then begin
    t.gen <- t.gen + 1;
    clear t
  end

(** [hits t] / [misses t] are cumulative counters. *)
let hits t = t.hits

let misses t = t.misses

(** [reset_stats t] zeroes counters, keeping contents. *)
let reset_stats t =
  t.hits <- 0;
  t.misses <- 0

(** [occupancy t] is the number of live translations. *)
let occupancy t = t.size
