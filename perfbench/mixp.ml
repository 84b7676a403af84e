(* mix_pressure: multiprogrammed gang mixes under memory pressure.

   2- and 4-job gang mixes on the 8-CPU SGI machine, each under page
   coloring, CDPC and hash-aware CDPC, on a monolithic (1-slice,
   identity) and a 2-slice sandybridge-hashed external cache, with a
   shared frame pool smaller than the jobs' joint footprint so the
   second-chance reclaimer evicts and pages refault.  The only workload
   that reaches sched, vm reclaim and refault, the memsim slice/hash
   routing and the hash-aware colorer. *)

open Cell
module Mix = Pcolor.Sched.Mix
module Job = Pcolor.Sched.Job
module Scheduler = Pcolor.Sched.Scheduler
module Reclaim = Pcolor.Sched.Reclaim
module Ahash = Pcolor.Memsim.Ahash

let n_cpus = 8

let mixes = [ ("2job", [ "tomcatv"; "swim" ]); ("4job", [ "tomcatv"; "swim"; "hydro2d"; "mgrid" ]) ]

let policies = [ Run.Page_coloring; cdpc; Run.Cdpc_hash { fallback = `Page_coloring } ]

let llcs = [ ("identity", 1, Ahash.Identity); ("sandybridge", 2, Ahash.Sandybridge) ]

(* The pool holds this share of the jobs' joint data-set pages. *)
let pressure = 0.5

type cell = {
  label : string;
  benches : string list;
  policy : Run.policy_choice;
  llc : string;
  cfg : Config.t;
}

let cells =
  let base = Config.scale (Config.sgi_base ~n_cpus ()) scale in
  List.concat_map
    (fun (label, benches) ->
      List.concat_map
        (fun (llc, slices, hash) ->
          let cfg = Config.validate { base with Config.l2_slices = slices; l2_hash = hash } in
          List.map (fun policy -> { label; benches; policy; llc; cfg }) policies)
        llcs)
    mixes

let key c = Printf.sprintf "mix/%s/%s/%s" c.label c.llc (Run.policy_name c.policy)

let default_engine =
  (Run.default_setup ~cfg:(Config.sgi_base ()) ~make_program:(build "tomcatv")
     ~policy:Run.Page_coloring)
    .Run.engine

(* job specs and pool size per cell, built by [setup] *)
let prepared : (Job.spec list * int) array = Array.make (List.length cells) ([], 0)

let specs ~seed c =
  let specs =
    List.map
      (fun b -> Job.spec ~policy:c.policy ~seed ~engine_kind:default_engine ~name:b (build b))
      c.benches
  in
  let footprint =
    List.fold_left
      (fun acc b -> acc + Pcolor.Comp.Ir.data_set_bytes (build b ()))
      0 c.benches
  in
  let frames = int_of_float (pressure *. float_of_int (footprint / c.cfg.Config.page_size)) in
  (specs, frames)

let run_mix i c =
  let specs, frames = prepared.(i) in
  Span.span "sched.mix" (fun () -> Mix.run ~cfg:c.cfg ~sched:Scheduler.default ~mem_frames:frames specs)

let counts = zero_counts ()

let switches = ref 0

let evictions = ref 0

let second_chances = ref 0

let cell_array = Array.of_list cells

let n_cells = Array.length cell_array

let run ~seed:_ ~count i =
  let c = cell_array.(i) in
  let k = key c in
  Check.guard k (fun () ->
      let o, dt = timed (fun () -> run_mix i c) in
      let refs = refs_executed o.Mix.machine in
      let _, _, chances, evicted = Reclaim.stats o.Mix.reclaim in
      let outcome =
        String.concat "\n"
          (Printf.sprintf "%d %d %d" refs chances evicted
          :: List.map report_string (o.Mix.aggregate :: Array.to_list o.Mix.reports))
      in
      (* the workload exists to exercise reclaim: a mix that never
         evicts has lost its memory pressure *)
      let ok = Span.span "bench.check" (fun () -> evicted > 0 && Check.same k outcome) in
      if count then begin
        add_machine counts o.Mix.machine;
        add_report counts o.Mix.aggregate;
        switches := !switches + o.Mix.sched_stats.Scheduler.switches;
        evictions := !evictions + evicted;
        second_chances := !second_chances + chances
      end;
      { Check.latency_s = dt; refs; ok })

(* Set-up: the job specs (with the pool size from the programs'
   footprints) and one warm-up mix, checked like a timed one.  Returns
   the warm-up mix's result. *)
let setup ~seed () =
  List.iteri (fun i c -> prepared.(i) <- specs ~seed c) cells;
  [ run ~seed ~count:false 0 ]

let layers ~setup:_ ~pass ~probe:_ =
  [
    ("sched.mix_s", snd pass "sched.mix");
    ("sched.switches", float_of_int !switches);
    ("sched.reclaim_evictions", float_of_int !evictions);
    ("sched.second_chances", float_of_int !second_chances);
  ]
