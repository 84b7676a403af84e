(* Output checks shared by the workloads.

   The simulator is deterministic: a cell's report and reference count
   must come out identical every time the cell runs within a run (set-up
   warm-ups, every timed pass, traced and untraced).  The first outcome
   seen for a cell key is the reference; any later mismatch is a failed
   cell.  The digest of the reference outcomes, in first-seen order, is
   the run's [sim_digest]: a change meant only to speed the simulator up
   must leave it unchanged. *)

let seen : (string, string) Hashtbl.t = Hashtbl.create 256

let order : string list ref = ref []

(* [same key outcome] records [outcome] as the reference for [key] the
   first time and afterwards tells whether it matches. *)
let same key outcome =
  match Hashtbl.find_opt seen key with
  | Some v -> v = outcome
  | None ->
    Hashtbl.add seen key outcome;
    order := key :: !order;
    true

let sim_digest () =
  let b = Buffer.create 4096 in
  List.iter
    (fun k ->
      Buffer.add_string b k;
      Buffer.add_char b '\n';
      Buffer.add_string b (Hashtbl.find seen k);
      Buffer.add_char b '\n')
    (List.rev !order);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* One timed cell: [latency_s] is the host time of the simulate or
   replay call, what a user waits for the cell. *)
type result = { latency_s : float; refs : int; ok : bool }

let failed = { latency_s = 0.0; refs = 0; ok = false }

(* [guard name f] runs one cell; an exception is a failed cell, reported
   on stderr. *)
let guard name f =
  try f ()
  with e ->
    Printf.eprintf "cell %s failed: %s\n%!" name (Printexc.to_string e);
    failed
