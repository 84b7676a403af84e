(* paper_err: how far the reproduction's headline ratios sit from the
   paper's, as mean |ln(measured / paper)| over the claims in
   paper_claims.json whose cells the workload ran.  The table is data,
   fixed in advance; each entry names its claim id, figure, paper value
   and the cells (keys of {!Cell.key}) its ratio is taken over. *)

module Json = Pcolor.Obs.Json
module Report = Pcolor.Stats.Report

type kind =
  | Speedup of { base : string; cell : string }  (** wall(base) / wall(cell) *)
  | Geomean_speedup of { base : string; cell : string; benches : string list }
      (** geometric mean over [benches] of wall(base) / wall(cell), with
          "{bench}" in both keys replaced by each name *)

type claim = { id : string; figure : string; paper : float; kind : kind }

let fail fmt = Printf.ksprintf failwith fmt

let load path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let json = match Json.parse text with Ok j -> j | Error e -> fail "%s: %s" path e in
  let str k o =
    match Option.bind (Json.member k o) Json.to_string_opt with
    | Some s -> s
    | None -> fail "%s: claim field %S missing" path k
  in
  let claim o =
    let kind =
      match str "kind" o with
      | "speedup" -> Speedup { base = str "base" o; cell = str "cell" o }
      | "geomean_speedup" ->
        let benches =
          match Json.member "benches" o with
          | Some (Json.Arr l) -> List.filter_map Json.to_string_opt l
          | _ -> fail "%s: claim %s has no benches" path (str "id" o)
        in
        Geomean_speedup { base = str "base" o; cell = str "cell" o; benches }
      | k -> fail "%s: unknown claim kind %S" path k
    in
    let paper =
      match Option.bind (Json.member "paper" o) Json.to_float_opt with
      | Some v when v > 0.0 -> v
      | _ -> fail "%s: claim %s needs a positive paper value" path (str "id" o)
    in
    { id = str "id" o; figure = str "figure" o; paper; kind }
  in
  match Json.member "claims" json with
  | Some (Json.Arr l) -> List.map claim l
  | _ -> fail "%s: no claims array" path

let subst bench k =
  match String.split_on_char '{' k with
  | [ pre; rest ] when String.length rest >= 6 && String.sub rest 0 6 = "bench}" ->
    pre ^ bench ^ String.sub rest 6 (String.length rest - 6)
  | _ -> k

(* [measure lookup c] is the claim's measured ratio, or [None] when a
   cell it needs was not run. *)
let measure lookup c =
  let wall k = Option.map (fun (r : Report.t) -> r.Report.wall_cycles) (lookup k) in
  let ratio base cell =
    match (wall base, wall cell) with Some b, Some x -> Some (b /. x) | _ -> None
  in
  match c.kind with
  | Speedup { base; cell } -> ratio base cell
  | Geomean_speedup { base; cell; benches } ->
    let rs = List.map (fun b -> ratio (subst b base) (subst b cell)) benches in
    if List.mem None rs then None
    else
      let logs = List.map (fun r -> log (Option.get r)) rs in
      Some (exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs)))

(* [paper_err claims lookup] prints one line per claim and returns the
   mean |ln(measured/paper)| over the claims covered. *)
let paper_err claims lookup =
  let covered =
    List.filter_map
      (fun c ->
        Option.map
          (fun v ->
            Printf.printf "  claim %-26s %-8s paper %.2fx measured %.3fx\n" c.id c.figure c.paper v;
            abs_float (log (v /. c.paper)))
          (measure lookup c))
      claims
  in
  if covered = [] then failwith "paper_err: no claim covered by this workload's cells";
  Printf.printf "  paper_err over %d of %d claims\n" (List.length covered) (List.length claims);
  List.fold_left ( +. ) 0.0 covered /. float_of_int (List.length covered)
