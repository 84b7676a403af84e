(** Direct-indexed int→int map over dense non-negative keys, with a
    hashed spill for keys past a cap.

    The simulator keys several per-reference tables by physical line
    number, and those numbers are dense in practice: frames come from a
    compact {!Pcolor_vm.Frame_pool} sized a small multiple of the
    aggregate L2.  A key below [direct_limit] is an index into a flat
    [int array] — one load per probe, one store per update — grown by
    doubling to cover the largest key seen.  Keys at or above the cap
    spill to an open-addressing {!Itab}, so arbitrary keys stay correct
    without unbounded memory.

    Values must be non-negative: [-1] marks an absent key in the direct
    array, and {!find} returns it for every absent key.  Where a key
    lives is a pure function of its value, so a [set] and a later
    [remove] always agree. *)

(* The direct array is capped at 4 M entries (32 MB) so a pathological
   address space cannot balloon memory.  Real configurations sit far
   below it: paddr_max = frames × page bytes, and the default pool is
   4× the aggregate L2. *)
let direct_limit = 1 lsl 22

type t = {
  mutable direct : int array; (* key -> value, -1 = absent *)
  spill : Itab.t; (* same map for keys at or above [direct_limit] *)
}

(** [create ()] is an empty map whose direct array starts with room
    for keys below 1024 and grows on demand. *)
let create () =
  {
    direct = Array.make 1024 (-1);
    spill = Itab.create ~capacity:64 ();
  }

let[@inline never] grow t key =
  let n = ref (Array.length t.direct) in
  while key >= !n do n := !n * 2 done;
  let a = Array.make (min direct_limit !n) (-1) in
  Array.blit t.direct 0 a 0 (Array.length t.direct);
  t.direct <- a

(** [find t key] is [key]'s value, or [-1] when absent.  Never
    allocates and never grows the map. *)
let[@inline] find t key =
  if key >= 0 && key < direct_limit then
    if key < Array.length t.direct then Array.unsafe_get t.direct key else -1
  else Itab.find t.spill key ~default:(-1)

(** [mem t key] tests whether [key] is bound. *)
let mem t key = find t key >= 0

(** [set t key v] binds [key] to [v] ([v >= 0]), growing the direct
    array as needed. *)
let[@inline] set t key v =
  if key >= 0 && key < direct_limit then begin
    if key >= Array.length t.direct then grow t key;
    Array.unsafe_set t.direct key v
  end
  else Itab.set t.spill key v

(** [remove t key] drops the binding if present. *)
let remove t key =
  if key >= 0 && key < direct_limit then begin
    if key < Array.length t.direct then Array.unsafe_set t.direct key (-1)
  end
  else Itab.remove t.spill key

(** [length t] counts bindings (a linear scan of the direct array; for
    tests and probes). *)
let length t =
  Array.fold_left (fun n v -> if v >= 0 then n + 1 else n) (Itab.length t.spill) t.direct

(** [reset t] removes every binding, keeping the allocated arrays. *)
let reset t =
  Array.fill t.direct 0 (Array.length t.direct) (-1);
  Itab.reset t.spill
