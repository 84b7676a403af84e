(* Benchmark program: one workload per process, on one domain.

     main.exe --workload W --seed N --seconds S --trace 0|1

   Run from the root of the checkout.  Untraced (--trace 0): one set-up
   that also pays process page-in, then for S seconds a set-up repeat
   and a whole pass over the workload's cells, in turn; set-up time is
   the mean of those repeats.  Every end-to-end metric is printed, and
   the last stdout line is the JSON result.

   Traced (--trace 1): one traced set-up, then S seconds of passes in
   which every cell runs untraced and then traced, then traced-only
   probes.  The result carries the per-layer metrics (per pass, averaged
   over passes) and the tracing overhead (traced − untraced cell time per
   pass); the spans are written to .perfbench_work/spans-W.jsonl. *)

let workload = ref ""

let seed = ref 42

let seconds = ref 10.0

let trace = ref 0

let claims_path = "perfbench/paper_claims.json"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME paper_grid | mix_pressure");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1"

type workload = {
  setup : seed:int -> unit -> Check.result list;
      (** fixed set-up work; returns the results of the cells it runs *)
  paper_cells : seed:int -> unit -> Check.result list;
      (** cells run once, untimed, only so that [paper_err] has the cells
          its claims need *)
  n_cells : int;
  run : seed:int -> count:bool -> int -> Check.result;
      (** one cell; [count] adds its simulated counts to [counts] *)
  probe : seed:int -> unit -> Check.result list;
      (** traced-only extra measurements; their results count as cells *)
  counts : Cell.counts;
  layers :
    setup:(string -> float) * (string -> float) ->
    pass:(string -> float) * (string -> float) ->
    probe:(string -> float) * (string -> float) ->
    (string * float) list;
}

let workloads =
  [
    ( "paper_grid",
      {
        setup = Grid.setup;
        paper_cells = (fun ~seed:_ () -> []);
        n_cells = Grid.n_cells;
        run = Grid.run;
        probe =
          (fun ~seed () ->
            Grid.stage_probe ~seed ();
            Replay.probe ~seed ());
        counts = Grid.counts;
        layers =
          (fun ~setup ~pass ~probe -> Grid.layers ~setup ~pass ~probe @ Replay.layers (fst probe));
      } );
    ( "mix_pressure",
      {
        setup = Mixp.setup;
        paper_cells = Grid.warm_up;
        n_cells = Mixp.n_cells;
        run = Mixp.run;
        probe = (fun ~seed:_ () -> []);
        counts = Mixp.counts;
        layers = Mixp.layers;
      } );
  ]

(* linear-interpolated quantile, as Python's statistics.quantiles
   (inclusive method) *)
let quantile l q =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 1 then a.(0)
  else
    let h = q *. float_of_int (n - 1) in
    let i = int_of_float h in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let sum l = List.fold_left ( +. ) 0.0 l

let mean l = sum l /. float_of_int (List.length l)

(* [timed_passes w ~traced] runs whole passes over the workload's cells
   while another one fits in [!seconds], and in any case until there are
   [min_passes] passes and [min_cells] timed cells (the 90th-percentile
   cell latency then has at least ten cells beyond it).  In an untraced
   run a set-up repeat precedes each pass, so set-up time samples the
   same spells of host speed as the passes.  In a traced run each cell
   runs twice in a row, untraced and then traced as a root span "cell",
   so that host-speed drift cancels out of the tracing overhead. *)
let min_passes = 3

let min_cells = 100

type pass = {
  setup_s : float; (* the set-up repeat before the pass; 0 when traced *)
  setup_results : Check.result list;
  wall_s : float;
  untraced : Check.result list;
  traced : Check.result list;
}

let timed_passes w ~traced =
  let t_start = Cell.now () in
  let cell ~count i =
    Span.set_cell i;
    let r = w.run ~seed:!seed ~count i in
    if not traced then (r, None)
    else begin
      Span.recording := true;
      let t = Span.span "cell" (fun () -> w.run ~seed:!seed ~count:false i) in
      Span.recording := false;
      (r, Some t)
    end
  in
  let rec go i cells acc =
    let elapsed = Cell.now () -. t_start in
    let last = match acc with p :: _ -> p.setup_s +. p.wall_s | [] -> 0.0 in
    if i >= min_passes && cells >= min_cells && elapsed +. last > !seconds then List.rev acc
    else begin
      let setup_results, setup_s =
        if traced then ([], 0.0)
        else begin
          Gc.compact ();
          Cell.timed (w.setup ~seed:!seed)
        end
      in
      Gc.full_major ();
      let results, wall_s =
        Cell.timed (fun () -> List.init w.n_cells (fun c -> cell ~count:(i = 0) c))
      in
      Printf.eprintf "pass %d: setup %.3f s, cells %.3f s\n%!" i setup_s wall_s;
      let p =
        {
          setup_s;
          setup_results;
          wall_s;
          untraced = List.map fst results;
          traced = List.filter_map snd results;
        }
      in
      go (i + 1) (cells + w.n_cells) (p :: acc)
    end
  in
  go 0 0 []

(* [write_samples passes] keeps every timed sample of the run in
   .perfbench_work/samples-W.json: per pass, its set-up and wall time
   and each untraced cell's latency. *)
let write_samples passes =
  let module J = Pcolor.Obs.Json in
  let pass p =
    J.Obj
      [
        ("setup_s", J.Float p.setup_s);
        ("wall_s", J.Float p.wall_s);
        ("latency_s", J.Arr (List.map (fun r -> J.Float r.Check.latency_s) p.untraced));
      ]
  in
  let oc = open_out (Filename.concat Cell.work_dir ("samples-" ^ !workload ^ ".json")) in
  output_string oc (J.to_string (J.Arr (List.map pass passes)));
  close_out oc

let json_result ~attempted ~failed metrics =
  let module J = Pcolor.Obs.Json in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (failed = 0));
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (name, unit, v) -> (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ]))
                metrics) );
       ])

let ends_with ~suffix s =
  let n = String.length s and k = String.length suffix in
  n >= k && String.sub s (n - k) k = suffix

let unit_of name =
  if ends_with ~suffix:"ns_per_ref" name then "ns/ref"
  else if ends_with ~suffix:"bytes_per_ref" name then "B/ref"
  else if ends_with ~suffix:"_bytes" name then "B"
  else if ends_with ~suffix:"_s" name then "s"
  else if List.exists (fun suffix -> ends_with ~suffix name) [ "_ratio"; "_share"; "_occupancy" ]
  then "ratio"
  else "count"

let print_metrics metrics =
  List.iter (fun (name, unit, v) -> Printf.printf "  %-28s %14.6g %s\n" name v unit) metrics

let () =
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let claims = Claims.load claims_path in
  if not (Sys.file_exists Cell.work_dir) then Sys.mkdir Cell.work_dir 0o755;
  Printf.printf "workload %s, seed %d, %.0f s, trace %d, scale 1/%d\n%!" !workload !seed !seconds
    !trace Cell.scale;
  let traced = !trace = 1 in
  (* ---- set-up ---- *)
  let before =
    if traced then begin
      Span.recording := true;
      let rs = Span.span "setup" (w.setup ~seed:!seed) in
      Span.recording := false;
      rs
    end
    else
      (* the first set-up pays process page-in and heap growth; it is
         checked but not timed *)
      let paper = w.paper_cells ~seed:!seed () in
      paper @ w.setup ~seed:!seed ()
  in
  (* ---- timed phase ---- *)
  let passes = timed_passes w ~traced in
  let n_passes = float_of_int (List.length passes) in
  let results = List.concat_map (fun p -> p.untraced @ p.traced) passes in
  let checked = before @ List.concat_map (fun p -> p.setup_results) passes @ results in
  Printf.printf "  sim_digest %s\n" (Check.sim_digest ());
  write_samples passes;
  let failures rs = List.length (List.filter (fun r -> not r.Check.ok) rs) in
  let attempted = ref (List.length checked) and failed = ref (failures checked) in
  let metrics =
    if not traced then begin
      let attempted = !attempted and failed = !failed in
      let ok = List.filter (fun r -> r.Check.ok) results in
      let latencies = List.map (fun r -> r.Check.latency_s) ok in
      let paper_err = Claims.paper_err claims (Hashtbl.find_opt Grid.reports) in
      [
        ("setup_s", "s", mean (List.map (fun p -> p.setup_s) passes));
        ("wall_s", "s", mean (List.map (fun p -> p.wall_s) passes));
        ( "refs_per_s",
          "1/s",
          float_of_int (List.fold_left (fun a r -> a + r.Check.refs) 0 ok) /. sum latencies );
        ("cell_p50_s", "s", quantile latencies 0.5);
        ("cell_p90_s", "s", quantile latencies 0.9);
        ("paper_err", "ln", paper_err);
        ("pass_frac", "frac", 1.0 -. (float_of_int failed /. float_of_int (max 1 attempted)));
      ]
    end
    else begin
      Span.recording := true;
      let probe_results, stream_rows =
        Span.span "probe" (fun () ->
            let rs = w.probe ~seed:!seed () in
            (rs, Streams.rows ~seed:!seed ~reps:5))
      in
      Span.recording := false;
      attempted := !attempted + List.length probe_results;
      failed := !failed + failures probe_results;
      let per_pass (dur, self) = ((fun n -> dur n /. n_passes), fun n -> self n /. n_passes) in
      let pass = per_pass (Span.totals (Span.roots "cell")) in
      let layer_rows =
        w.layers ~setup:(Span.totals (Span.roots "setup")) ~pass
          ~probe:(Span.totals (Span.roots "probe"))
      in
      let untraced =
        sum (List.concat_map (fun p -> List.map (fun r -> r.Check.latency_s) p.untraced) passes)
        /. n_passes
      and traced_wall = fst pass "cell" in
      let self_sum = sum (List.map (snd pass) (List.filter (( <> ) "cell") (Span.names ()))) in
      Printf.printf
        "  layer self times cover %.1f%% of the traced cells; traced − untraced cells = %+.4f s per pass\n"
        (100.0 *. self_sum /. traced_wall) (traced_wall -. untraced);
      Span.write (Filename.concat Cell.work_dir ("spans-" ^ !workload ^ ".jsonl"));
      List.map
        (fun (n, v) -> (n, unit_of n, v))
        (layer_rows @ stream_rows @ Cell.count_metrics w.counts)
      @ [
          ("trace.untraced_wall_s", "s", untraced);
          ("trace.traced_wall_s", "s", traced_wall);
          ("trace.overhead_s", "s", traced_wall -. untraced);
          ("trace.self_sum_s", "s", self_sum);
        ]
    end
  in
  Printf.printf "  %d passes, %d cells attempted, %d failed\n" (List.length passes) !attempted
    !failed;
  print_metrics metrics;
  print_endline (json_result ~attempted:!attempted ~failed:!failed metrics)
