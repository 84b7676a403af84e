(* Command-line boundary tests: a bad flag value is a usage error — exit
   2 with a message naming the flag — never an uncaught exception from
   inside a run (exit 125). *)

let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/pcolor_cli.exe"

(* [usage_error args flag] runs [pcolor run tomcatv args] and checks it
   exits 2 with [flag] named on stderr. *)
let usage_error args flag () =
  let err = Filename.temp_file "pcolor_cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s run tomcatv %s >/dev/null 2>%s" (Filename.quote cli) args
         (Filename.quote err))
  in
  let msg = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  Alcotest.(check int) "usage exit code" 2 code;
  let named =
    let n = String.length flag in
    let rec at i = i + n <= String.length msg && (String.sub msg i n = flag || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) ("message names " ^ flag) true named

let suite =
  [
    ( "cli",
      [
        Alcotest.test_case "--cpus 0 is a usage error" `Quick (usage_error "--cpus 0" "--cpus");
        Alcotest.test_case "--scale 3 is a usage error" `Quick (usage_error "--scale 3" "--scale");
        Alcotest.test_case "--scale 256 on sgi is a usage error" `Quick
          (usage_error "--scale 256" "--scale");
        Alcotest.test_case "--timeline=0 is a usage error" `Quick
          (usage_error "--timeline=0" "--timeline");
      ] );
  ]
