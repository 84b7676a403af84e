(* One benchmark cell: a SPEC95fp kernel on one machine, CPU count,
   mapping policy and prefetch setting — what `pcolor run` simulates —
   plus the measurement helpers every workload shares. *)

module Run = Pcolor.Runtime.Run
module Config = Pcolor.Memsim.Config
module Machine = Pcolor.Memsim.Machine
module Mclass = Pcolor.Memsim.Mclass
module Spec = Pcolor.Workloads.Spec
module Report = Pcolor.Stats.Report
module Json = Pcolor.Obs.Json

(* Data-set/cache scale divisor for every workload: 1/16 of the paper's
   geometry keeps a full pass of the paper grid to a few host seconds,
   so one run times several passes. *)
let scale = 16

(* Scratch directory, relative to the checkout: tapes, span dumps and
   the last run's timing samples. *)
let work_dir = ".perfbench_work"

type machine = Sgi | Alpha

type t = {
  bench : string;
  machine : machine;
  n_cpus : int;
  policy : Run.policy_choice;
  prefetch : bool;
}

let cdpc = Run.Cdpc { fallback = `Page_coloring; via_touch = false }

(* the paper's Digital UNIX realization, used on the AlphaServer (§7) *)
let cdpc_touch = Run.Cdpc { fallback = `Bin_hopping; via_touch = true }

let make ?(prefetch = false) bench machine n_cpus policy = { bench; machine; n_cpus; policy; prefetch }

let machine_name = function Sgi -> "sgi" | Alpha -> "alpha"

(* Keys name cells in the claim table (paper_claims.json). *)
let key c =
  Printf.sprintf "%s/%s/%d/%s/%b" (machine_name c.machine) c.bench c.n_cpus
    (Run.policy_name c.policy) c.prefetch

let config c =
  let base =
    match c.machine with
    | Sgi -> Config.sgi_base ~n_cpus:c.n_cpus ()
    | Alpha -> Config.alphaserver ~n_cpus:c.n_cpus ()
  in
  Config.scale base scale

(* [build bench] is the program factory handed to the library; the span
   makes program construction visible as its own layer wherever the
   library calls it. *)
let build bench () =
  let d = Spec.find bench in
  Span.span "workloads.build" (fun () -> d.Spec.build ~scale ())

(* The engine is whatever [Run.default_setup] selects: the benchmark
   measures the path users run. *)
let setup ~seed ?(obs = Pcolor.Obs.Ctx.disabled) c =
  {
    (Run.default_setup ~cfg:(config c) ~make_program:(build c.bench) ~policy:c.policy) with
    prefetch = c.prefetch;
    seed;
    obs;
  }

(* The full observability context of `pcolor run --metrics-out
   --timeline`: metrics registry, conflict attribution and the
   cycle-epoch sampler. *)
let full_obs cfg =
  Pcolor.Obs.Ctx.create ~metrics:(Pcolor.Obs.Metrics.create ())
    ~attrib:
      (Pcolor.Obs.Attrib.create ~n_colors:(Config.n_colors cfg)
         ~n_classes:(List.length Mclass.all) ())
    ~sampler:(Machine.sampler_for cfg) ~sample:false ()

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- simulated counts (exact; identical on every host) ---- *)

type counts = {
  mutable refs : int; (* L1 hits + misses: executed measured-pass references *)
  mutable l1_misses : int;
  mutable l2_misses : int;
  mutable conflicts : int;
  mutable tlb_misses : int;
  mutable bus_occ_sum : float; (* Σ report bus occupancy *)
  mutable reports : int;
  mutable faults : int;
  mutable honored : int;
  mutable fallback : int;
}

let zero_counts () =
  {
    refs = 0;
    l1_misses = 0;
    l2_misses = 0;
    conflicts = 0;
    tlb_misses = 0;
    bus_occ_sum = 0.0;
    reports = 0;
    faults = 0;
    honored = 0;
    fallback = 0;
  }

(* [refs_executed m] is the measured-pass reference count, the work unit
   of every refs/s figure (as in the bench harness). *)
let refs_executed m =
  let total = ref 0 in
  for cpu = 0 to Machine.n_cpus m - 1 do
    let s = Machine.stats m ~cpu in
    total := !total + s.Machine.l1_hits + s.Machine.l1_misses
  done;
  !total

let add_machine c m =
  for cpu = 0 to Machine.n_cpus m - 1 do
    let s = Machine.stats m ~cpu in
    c.refs <- c.refs + s.Machine.l1_hits + s.Machine.l1_misses;
    c.l1_misses <- c.l1_misses + s.Machine.l1_misses;
    c.l2_misses <- c.l2_misses + Array.fold_left ( + ) 0 s.Machine.l2_miss_counts;
    c.conflicts <- c.conflicts + Mclass.get s.Machine.l2_miss_counts Mclass.Conflict;
    c.tlb_misses <- c.tlb_misses + s.Machine.tlb_misses
  done

let add_report c (r : Report.t) =
  c.bus_occ_sum <- c.bus_occ_sum +. r.Report.bus_occupancy;
  c.reports <- c.reports + 1;
  c.faults <- c.faults + r.Report.page_faults;
  c.honored <- c.honored + r.Report.hints_honored;
  c.fallback <- c.fallback + r.Report.hints_fallback

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let count_metrics c =
  [
    ("memsim.refs", float_of_int c.refs);
    ("memsim.l1_miss_ratio", ratio c.l1_misses c.refs);
    ("memsim.l2_miss_ratio", ratio c.l2_misses c.l1_misses);
    ("memsim.tlb_miss_ratio", ratio c.tlb_misses c.refs);
    ("memsim.conflict_share", ratio c.conflicts c.l2_misses);
    ("memsim.bus_occupancy", c.bus_occ_sum /. float_of_int (max 1 c.reports));
    ("vm.faults", float_of_int c.faults);
    ("vm.hint_honored_ratio", ratio c.honored (c.honored + c.fallback));
  ]

let report_string r = Json.to_string (Report.to_json r)
