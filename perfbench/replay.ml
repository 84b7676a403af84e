(* Record↔replay through the observed path, as a probe of paper_grid's
   traced run.

   The probe records a btrace tape of every cell with the full
   observability context on (metrics, conflict attribution, timeline
   sampler) and keeps the live run's artifact.  Then, [rounds] times,
   it replays every tape twice in a row: with observability off, and
   with a fresh full context followed by the artifact serialization
   ([Run.artifact_json] + [Json.pretty]) that `pcolor replay
   --metrics-out --timeline` writes.  Back-to-back replays cancel
   host-speed drift out of obs.cost_s.  Every replayed artifact must
   equal the live one byte for byte.  This reaches the btrace writer and
   reader, obs and stats, which the grid's own cells never do. *)

open Cell
module Btrace = Pcolor.Runtime.Btrace

(* 31 cells: every kernel at 4 CPUs under page coloring and CDPC, the
   Figure 8 prefetch cells and the Figure 9 AlphaServer cells. *)
let cells =
  List.concat_map (fun b -> [ make b Sgi 4 Run.Page_coloring; make b Sgi 4 cdpc ]) Spec.names
  @ [
      make ~prefetch:true "tomcatv" Sgi 4 Run.Page_coloring;
      make ~prefetch:true "tomcatv" Sgi 4 cdpc;
    ]
  @ List.concat_map
      (fun b ->
        List.map (fun pol -> make b Alpha 8 pol) [ Run.Page_coloring; Run.Bin_hopping; cdpc_touch ])
      [ "swim"; "tomcatv"; "applu" ]

let rounds = 2

let tape_path i = Filename.concat work_dir (Printf.sprintf "cell%02d.btrace" i)

let header ~seed c =
  {
    Btrace.bench = c.bench;
    machine = machine_name c.machine;
    n_cpus = c.n_cpus;
    scale;
    policy = Run.policy_name c.policy;
    prefetch = c.prefetch;
    seed;
    cap = 2;
    provenance = "";
  }

let artifact o = Json.pretty (Run.artifact_json o)

let tape_bytes = ref 0

let refs = ref 0

let artifact_bytes = ref 0

(* [record ~seed i c] writes cell [i]'s tape and returns the live run's
   artifact. *)
let record ~seed i c =
  let oc = open_out_bin (tape_path i) in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let w = Btrace.create_writer oc (header ~seed c) in
      let o =
        Span.span "runtime.record" (fun () ->
            let o = Run.run ~recorder:(Btrace.recorder w) (setup ~seed ~obs:(full_obs (config c)) c) in
            Btrace.finish w;
            o)
      in
      tape_bytes := !tape_bytes + pos_out oc;
      artifact o)

let replay ~seed ~obs i c =
  let ic = open_in_bin (tape_path i) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> Btrace.replay (Btrace.open_reader ic) ~setup:(setup ~seed ~obs c))

(* [probe ~seed ()] returns one result per full-context replay and
   deletes the tapes. *)
let probe ~seed () =
  Fun.protect ~finally:(fun () ->
      List.iteri (fun i _ -> if Sys.file_exists (tape_path i) then Sys.remove (tape_path i)) cells)
  @@ fun () ->
  let live =
    List.mapi
      (fun i c ->
        Span.set_cell i;
        record ~seed i c)
      cells
  in
  List.concat_map
    (fun round ->
      List.mapi
        (fun i (c, live) ->
          Span.set_cell i;
          Check.guard (key c) (fun () ->
              ignore
                (Span.span "runtime.replay_bare" (fun () ->
                     replay ~seed ~obs:Pcolor.Obs.Ctx.disabled i c));
              let o, dt =
                timed (fun () ->
                    Span.span "runtime.replay" (fun () -> replay ~seed ~obs:(full_obs (config c)) i c))
              in
              let art = Span.span "stats.serialize" (fun () -> artifact o) in
              let r = refs_executed o.Run.machine in
              if round = 0 then begin
                refs := !refs + r;
                artifact_bytes := !artifact_bytes + String.length art
              end;
              { Check.latency_s = dt; refs = r; ok = art = live }))
        (List.combine cells live))
    (List.init rounds Fun.id)

(* Per-layer rows from the probe's span durations [pdur]. *)
let layers pdur =
  let per_round name = pdur name /. float_of_int rounds in
  let refs = float_of_int (max 1 !refs) in
  let replay_s = per_round "runtime.replay" in
  [
    ("runtime.record_s", pdur "runtime.record");
    ("runtime.tape_bytes_per_ref", float_of_int !tape_bytes /. refs);
    ("runtime.replay_s", replay_s);
    ("runtime.replay_ns_per_ref", 1e9 *. replay_s /. refs);
    ("obs.cost_s", replay_s -. per_round "runtime.replay_bare");
    ("stats.serialize_s", per_round "stats.serialize");
    ("stats.artifact_bytes", float_of_int !artifact_bytes);
  ]
