(* Isolated stream rows: host cost per reference of each memsim sub-layer
   and of the walker, each driven alone.

   One paper_grid cell's reference stream (warm-up and measured pass) is
   captured through the public [Engine.recorder] hooks, translated to
   physical addresses through the run's final page table, and replayed
   through one layer at a time.  The layers see the same addresses they
   see in a full run, minus every other layer's work, so a change in one
   row points at one layer. *)

open Cell
module Walker = Pcolor.Comp.Walker
module Engine = Pcolor.Runtime.Engine
module Cache = Pcolor.Memsim.Cache
module Slice = Pcolor.Memsim.Slice
module Tlb = Pcolor.Memsim.Tlb
module Shadow = Pcolor.Memsim.Shadow
module Ahash = Pcolor.Memsim.Ahash

let cell = make "tomcatv" Sgi 4 cdpc

(* growable int vector *)
type vec = { mutable a : int array; mutable n : int }

let vec () = { a = Array.make 65536 0; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let b = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end;
  Array.unsafe_set v.a v.n x;
  v.n <- v.n + 1

type stream = { cpus : vec; packed : vec (* (vaddr lsl 1) lor write *) }

(* [capture ~seed] runs [cell] with a recorder that keeps every data
   reference; run-coalesced records are expanded with their strides. *)
let capture ~seed =
  let s = { cpus = vec (); packed = vec () } in
  let cpu = ref 0 and nrefs = ref 1 and strides = ref [||] in
  let section ~cpu:c ~nrefs:n ~instr_per_iter:_ ~extra_onchip_stall:_ =
    cpu := c;
    nrefs := n
  in
  let add p =
    push s.cpus !cpu;
    push s.packed p
  in
  let recorder =
    {
      Engine.rec_section = section;
      rec_batch =
        (fun (b : Walker.batch) ->
          for k = 0 to (b.Walker.len / 2) - 1 do
            add b.Walker.data.(2 * k)
          done);
      rec_run_section =
        (fun ~cpu ~nrefs ~instr_per_iter ~extra_onchip_stall ~strides:st ->
          section ~cpu ~nrefs ~instr_per_iter ~extra_onchip_stall;
          strides := Array.copy st);
      rec_runs =
        (fun (b : Walker.batch) ->
          let n = !nrefs in
          let stride = 1 + (2 * n) in
          for r = 0 to (b.Walker.len / stride) - 1 do
            let base = r * stride in
            for g = 0 to b.Walker.data.(base) - 1 do
              for i = 0 to n - 1 do
                let p = b.Walker.data.(base + 1 + (2 * i)) in
                add (p + ((g * !strides.(i)) lsl 1))
              done
            done
          done);
      rec_tick = (fun ~cpu:_ _ -> ());
      rec_onchip = (fun ~cpu:_ _ -> ());
      rec_barrier = (fun _ -> ());
      rec_reset = (fun () -> ());
      rec_touch = (fun ~cpu:_ ~vpage:_ -> ());
      rec_phase_begin = (fun () -> ());
      rec_phase_end = (fun () -> ());
    }
  in
  let o = Run.run ~recorder (setup ~seed cell) in
  (s, o)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

(* [ns_per_ref ~reps n f] is the median over [reps] calls of [f ()],
   which must process [n] references, in ns per reference. *)
let ns_per_ref ~reps n f =
  median (List.init reps (fun _ -> 1e9 *. snd (timed f) /. float_of_int n))

let rows ~seed ~reps =
  let s, o = Span.span "streams.capture" (fun () -> capture ~seed) in
  let cfg = o.Run.cfg in
  let n = s.packed.n and ncpu = cfg.Config.n_cpus in
  let page_bits = Pcolor.Util.Bits.log2 cfg.Config.page_size in
  let pt = Pcolor.Vm.Kernel.page_table o.Run.kernel in
  let frame vpage = Option.value ~default:vpage (Pcolor.Vm.Page_table.find pt vpage) in
  let vaddr k = Walker.vaddr_of s.packed.a.(k) and write k = Walker.write_of s.packed.a.(k) in
  let paddr =
    Array.init n (fun k ->
        let v = vaddr k in
        (frame (v lsr page_bits) lsl page_bits) lor (v land ((1 lsl page_bits) - 1)))
  in
  let cpu k = s.cpus.a.(k) in
  let slices c =
    let hash = Config.resolved_hash c in
    Array.init ncpu (fun _ -> Slice.create c.Config.l2 ~n_slices:c.Config.l2_slices ~hash ~page_bits)
  in
  let drive_slices c () =
    let l2 = slices c in
    for k = 0 to n - 1 do
      ignore (Slice.access l2.(cpu k) ~addr:paddr.(k) ~write:(write k))
    done
  in
  let hashed = Config.validate { cfg with Config.l2_slices = 2; l2_hash = Ahash.Sandybridge } in
  let row name f = (name, Span.span name (fun () -> ns_per_ref ~reps n f)) in
  let l2_line_bits = Pcolor.Util.Bits.log2 cfg.Config.l2.Config.line in
  let walker () =
    let program = (Run.prepare (setup ~seed cell)).Run.program in
    let batch = Walker.create_batch () in
    let produced = ref 0 in
    let t0 = now () in
    List.iter
      (fun (ph : Pcolor.Comp.Ir.phase) ->
        List.iter
          (fun nest ->
            for c = 0 to ncpu - 1 do
              let lo0, hi0 = Pcolor.Comp.Schedule.range nest ~n_cpus:ncpu ~cpu:c in
              let w =
                Walker.create ~nest ~plan:(Pcolor.Comp.Prefetcher.find Pcolor.Comp.Prefetcher.none nest)
                  ~lo0 ~hi0
                  ~l1_line_bits:(Pcolor.Util.Bits.log2 cfg.Config.l1.Config.line)
                  ~l2_line_bits
              in
              let fin = ref false in
              while not !fin do
                Walker.reset_batch batch;
                fin := Walker.fill w batch;
                produced := !produced + (batch.Walker.len / 2)
              done
            done)
          ph.Pcolor.Comp.Ir.nests)
      program.Pcolor.Comp.Ir.phases;
    1e9 *. (now () -. t0) /. float_of_int (max 1 !produced)
  in
  [
    row "memsim.l1.ns_per_ref" (fun () ->
        let l1 = Array.init ncpu (fun _ -> Cache.create cfg.Config.l1) in
        for k = 0 to n - 1 do
          ignore (Cache.access l1.(cpu k) ~addr:(vaddr k) ~write:(write k))
        done);
    row "memsim.l2.ns_per_ref" (drive_slices cfg);
    row "memsim.l2_hash.ns_per_ref" (drive_slices hashed);
    row "memsim.tlb.ns_per_ref" (fun () ->
        let tlbs = Array.init ncpu (fun _ -> Tlb.create ~entries:cfg.Config.tlb_entries) in
        for k = 0 to n - 1 do
          let t = tlbs.(cpu k) and vpage = vaddr k lsr page_bits in
          if Tlb.lookup_frame t vpage < 0 then Tlb.insert t ~vpage ~frame:(frame vpage)
        done);
    row "memsim.shadow.ns_per_ref" (fun () ->
        let sh = Array.init ncpu (fun _ -> Shadow.create cfg.Config.l2) in
        for k = 0 to n - 1 do
          ignore (Shadow.access sh.(cpu k) (paddr.(k) lsr l2_line_bits))
        done);
    row "memsim.machine.ns_per_ref" (fun () ->
        let m = Machine.create cfg in
        let translate ~cpu:_ ~vpage = (frame vpage, 0) in
        for k = 0 to n - 1 do
          Machine.access m ~cpu:(cpu k) ~vaddr:(vaddr k) ~write:(write k) ~translate
        done);
    ("comp.walker.ns_per_ref", Span.span "comp.walker.ns_per_ref" (fun () -> median (List.init reps (fun _ -> walker ()))));
  ]
