(* In-memory span recorder for the traced run.

   A span is one timed call into a library layer, made from the
   benchmark's own code: name (the layer-qualified call, e.g.
   "runtime.run"), start, end, parent span and the id of the cell it
   belongs to.  Spans are kept in memory and written out once, when the
   run ends.  With recording off, [span] is a direct call behind one
   branch, so untraced runs carry no tracing cost. *)

type s = {
  id : int;
  name : string;
  parent : int; (* -1 for a root *)
  root : int; (* id of the root ancestor (itself for a root) *)
  cell : int;
  t0 : float;
  mutable t1 : float;
}

let recording = ref false

let spans : s array ref = ref [||]

let count = ref 0

let stack : s list ref = ref []

let cell = ref (-1)

let set_cell c = cell := c

let push sp =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !count)) sp in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- sp;
  incr count

let span name f =
  if not !recording then f ()
  else begin
    let parent, root = match !stack with p :: _ -> (p.id, p.root) | [] -> (-1, !count) in
    let sp = { id = !count; name; parent; root; cell = !cell; t0 = Unix.gettimeofday (); t1 = nan } in
    push sp;
    stack := sp :: !stack;
    Fun.protect
      ~finally:(fun () ->
        sp.t1 <- Unix.gettimeofday ();
        stack := List.tl !stack)
      f
  end

let all () = Array.sub !spans 0 !count

(* [totals roots] sums, per span name, the durations and the self times
   (duration minus the part covered by direct children) of every span
   under the root spans [roots], the roots included. *)
let totals roots =
  let sp = all () in
  let under = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace under r ()) roots;
  let child_sum = Hashtbl.create 64 in
  let add tbl k v = Hashtbl.replace tbl k ((try Hashtbl.find tbl k with Not_found -> 0.0) +. v) in
  Array.iter
    (fun s -> if Hashtbl.mem under s.root && s.parent >= 0 then add child_sum s.parent (s.t1 -. s.t0))
    sp;
  let dur = Hashtbl.create 16 and self = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      if Hashtbl.mem under s.root then begin
        let d = s.t1 -. s.t0 in
        add dur s.name d;
        add self s.name (d -. try Hashtbl.find child_sum s.id with Not_found -> 0.0)
      end)
    sp;
  let get tbl k = try Hashtbl.find tbl k with Not_found -> 0.0 in
  (get dur, get self)

(* [names ()] is every span name recorded, sorted. *)
let names () = List.sort_uniq compare (Array.to_list (Array.map (fun s -> s.name) (all ())))

(* [roots name] is the ids of the root spans called [name], oldest first. *)
let roots name =
  Array.to_list (all ())
  |> List.filter_map (fun s -> if s.parent < 0 && s.name = name then Some s.id else None)

(* [write path] dumps every span as one JSON object per line, times in
   seconds relative to the first span. *)
let write path =
  let sp = all () in
  let base = if Array.length sp = 0 then 0.0 else sp.(0).t0 in
  let oc = open_out path in
  Array.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"cell\":%d,\"start_s\":%.9f,\"end_s\":%.9f}\n" s.id
        s.name s.parent s.cell (s.t0 -. base) (s.t1 -. base))
    sp;
  close_out oc
