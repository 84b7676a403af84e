(* paper_grid: the paper's evaluation cells with observability off.

   Ten SPEC95fp kernels on the 1 MB direct-mapped SGI machine at 1, 4
   and 16 CPUs under page coloring, bin hopping and CDPC (Figures 2, 6);
   tomcatv at 4 CPUs with prefetching (Figure 8); and every kernel on the
   AlphaServer at 1, 4 and 8 CPUs (Figures 7, 9 and Table 2).  Nearly all
   host time goes to the walker fill and the memory-system consume, so
   this is where engine and memsim speed-ups show.  It never touches
   obs, btrace, stats serialization or sched. *)

open Cell

let cells =
  let names = Spec.names in
  List.concat_map
    (fun b ->
      List.concat_map
        (fun p -> List.map (fun pol -> make b Sgi p pol) [ Run.Page_coloring; Run.Bin_hopping; cdpc ])
        [ 1; 4; 16 ])
    names
  @ [
      make ~prefetch:true "tomcatv" Sgi 4 Run.Page_coloring;
      make ~prefetch:true "tomcatv" Sgi 4 cdpc;
    ]
  @ List.concat_map
      (fun b ->
        [
          make b Alpha 1 Run.Page_coloring;
          make b Alpha 4 cdpc_touch;
          make b Alpha 8 Run.Page_coloring;
          make b Alpha 8 Run.Bin_hopping;
          make b Alpha 8 cdpc_touch;
        ])
      names

(* The four Figure 8 cells (tomcatv, 4 CPUs, page coloring and CDPC,
   with and without prefetching): paper_grid's warm-up pair of pairs.
   mix_pressure runs them once, untimed, for its [paper_err]. *)
let fig8_cells =
  List.map
    (fun (pol, prefetch) -> make ~prefetch "tomcatv" Sgi 4 pol)
    [ (Run.Page_coloring, false); (Run.Page_coloring, true); (cdpc, false); (cdpc, true) ]

(* first report seen per cell key, for the paper claims *)
let reports : (string, Report.t) Hashtbl.t = Hashtbl.create 256

let counts = zero_counts ()

(* [run_cell ~seed ~count c] simulates one cell through [Run.run] and
   checks it against every earlier run of the same cell; [count] adds
   its simulated counts to the workload's exact-count totals. *)
let run_cell ~seed ~count c =
  let k = key c in
  Check.guard k (fun () ->
      let o, dt = timed (fun () -> Span.span "runtime.run" (fun () -> Run.run (setup ~seed c))) in
      let refs = refs_executed o.Run.machine in
      let ok =
        Span.span "bench.check" (fun () ->
            Check.same k (Printf.sprintf "%d %s" refs (report_string o.Run.report)))
      in
      if not (Hashtbl.mem reports k) then Hashtbl.add reports k o.Run.report;
      if count then begin
        add_machine counts o.Run.machine;
        add_report counts o.Run.report
      end;
      { Check.latency_s = dt; refs; ok })

let warm_up ~seed () = List.map (run_cell ~seed ~count:false) fig8_cells

(* Set-up: the warm-up cells, then the compile-time front half
   ([Run.prepare]) of every cell.  Returns the warm-up cells' results. *)
let setup ~seed () =
  let results = warm_up ~seed () in
  List.iter
    (fun c -> ignore (Span.span "runtime.prepare" (fun () -> Run.prepare (setup ~seed c))))
    cells;
  results

let cell_array = Array.of_list cells

let n_cells = Array.length cell_array

let run ~seed ~count i = run_cell ~seed ~count cell_array.(i)

(* Traced-only probe: the compile-time stages [Run.prepare] chains,
   each called alone on a fresh program so it gets its own span. *)
let stage_probe ~seed:_ () =
  List.iteri
    (fun i c ->
      Span.set_cell i;
      let cfg = config c in
      let program = build c.bench () in
      let summary =
        Span.span "comp.summary" (fun () ->
            Pcolor.Comp.Ir.check_program program;
            Pcolor.Comp.Summary.extract ~page_size:cfg.Config.page_size program)
      in
      ignore
        (Span.span "cdpc.layout" (fun () ->
             Pcolor.Cdpc.Align.layout ~cfg ~mode:Pcolor.Cdpc.Align.Aligned
               ~groups:summary.Pcolor.Comp.Summary.groups program.Pcolor.Comp.Ir.arrays));
      match c.policy with
      | Run.Cdpc _ ->
        ignore
          (Span.span "cdpc.color" (fun () ->
               Pcolor.Cdpc.Colorer.generate_ablated ~ablation:Pcolor.Cdpc.Colorer.full_algorithm
                 ~cfg ~summary ~program ~n_cpus:cfg.Config.n_cpus))
      | _ -> ())
    cells

(* Per-layer host times.  [setup], [pass] and [probe] are (durations,
   self times) by span name over the traced set-up, one traced timed pass
   (mean over passes) and the traced probe. *)
let layers ~setup ~pass ~probe =
  let sdur, sself = setup and pdur, _ = probe and run_s = fst pass "runtime.run" in
  let prepare_s = sdur "runtime.prepare" in
  let run_self_s = run_s -. prepare_s in
  Printf.printf "  compile-time front half: Run.prepare is %.2f%% of Run.run per pass\n"
    (100.0 *. prepare_s /. run_s);
  [
    ("runtime.prepare_s", prepare_s);
    ("workloads.build_s", sself "workloads.build");
    ("comp.summary_s", pdur "comp.summary");
    ("cdpc.layout_s", pdur "cdpc.layout");
    ("cdpc.color_s", pdur "cdpc.color");
    ("runtime.run_self_s", run_self_s);
    ("runtime.ns_per_ref", 1e9 *. run_self_s /. float_of_int (max 1 counts.refs));
  ]
