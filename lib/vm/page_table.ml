(** Per-address-space virtual→physical page map.

    The workloads are single-address-space parallel programs (SUIF's
    master/slave threads share memory), so one table serves all CPUs;
    per-CPU TLBs cache its entries. *)

type t = {
  map : (int, int) Hashtbl.t; (* vpage -> frame *)
  rev : (int, int) Hashtbl.t; (* frame -> vpage; recoloring needs the inverse *)
  mutable mapped : int;
}

(** [create ()] is an empty page table. *)
let create () = { map = Hashtbl.create 64; rev = Hashtbl.create 64; mapped = 0 }

(** [find t vpage] is the frame backing [vpage], if mapped. *)
let find t vpage = Hashtbl.find_opt t.map vpage

(** [mem t vpage] tests mappedness. *)
let mem t vpage = Hashtbl.mem t.map vpage

(** [map t ~vpage ~frame] installs a mapping; raises [Invalid_argument]
    if [vpage] is already mapped (remapping must go through [unmap]). *)
let map t ~vpage ~frame =
  if Hashtbl.mem t.map vpage then invalid_arg "Page_table.map: page already mapped";
  Hashtbl.add t.map vpage frame;
  Hashtbl.replace t.rev frame vpage;
  t.mapped <- t.mapped + 1

(** [find_by_frame t frame] is the virtual page mapped to [frame], if
    any — the lookup the recoloring daemon needs to turn hot physical
    pages back into virtual pages. *)
let find_by_frame t frame = Hashtbl.find_opt t.rev frame

(** [unmap t vpage] removes a mapping, returning the frame it held. *)
let unmap t vpage =
  match Hashtbl.find_opt t.map vpage with
  | None -> None
  | Some frame ->
    Hashtbl.remove t.map vpage;
    Hashtbl.remove t.rev frame;
    t.mapped <- t.mapped - 1;
    Some frame

(** [mapped_count t] is the number of live mappings. *)
let mapped_count t = t.mapped

(** [iter t f] applies [f ~vpage ~frame] to every mapping. *)
let iter t f = Hashtbl.iter (fun vpage frame -> f ~vpage ~frame) t.map
