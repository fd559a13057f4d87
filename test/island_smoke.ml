(* CI smoke for the island-model search, part of `dune build @check`:
   a 2-island tune must produce the same history digest at -j 1, -j 2
   and -j 4 (jobs never change the trajectory at a fixed island count),
   and a session killed at a mid-run boundary then run again over its
   tuning log, at -j 1, -j 2 and -j 4, must verify the logged records,
   stitch a log byte-identical to the uninterrupted session's and land
   on its digest.  Both ungated and under the measurement gate (ratio
   0.2), on an even 128-trial split killed at boundary 1 and on an
   uneven 161-trial split (81/80 trials) killed at boundary 2, where
   island 1 finishes one boundary before island 0. *)

module Tl = Imtp.Tuning_log

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let smoke ~dir ~name ?measure_ratio ~seed ~trials ~kill_at () =
  let cfg = Imtp.default_config in
  let op = Imtp.Ops.mtv 128 256 in
  let header =
    Tl.session_header ~op_name:"mtv" ~sizes:[ 128; 256 ] ~seed ~trials
      ?measure_ratio ~islands:2 ()
  in
  (* One session over the log at [path]: every boundary's records are
     checked against the log and the new ones appended. *)
  let run ~jobs ?stop_at path =
    match Tl.open_session path ~header with
    | Error e ->
        fail "island smoke (%s): %s" name (Tl.session_error_to_string e)
    | Ok log ->
        let boundaries = ref 0 in
        let on_boundary records =
          incr boundaries;
          match Tl.append log records with
          | Ok () -> ()
          | Error e ->
              fail "island smoke (%s): %s" name (Tl.session_error_to_string e)
        in
        let stop () =
          match stop_at with Some k -> !boundaries > k | None -> false
        in
        let o =
          Imtp.Search.run ~seed ~jobs ~islands:2 ?measure_ratio ~on_boundary
            ~stop cfg op ~trials
        in
        Tl.close_session log;
        (o, Tl.verified log)
  in
  let digest = Imtp.Protocol.history_digest in
  let path file = Filename.concat dir file in
  let full_j2, _ = run ~jobs:2 (path "full.log") in
  let full_log = read_file (path "full.log") in
  List.iter
    (fun jobs ->
      if digest (fst (run ~jobs (path "jobs.log"))) <> digest full_j2 then
        fail "island smoke (%s): -j%d and -j2 digests differ at islands=2"
          name jobs;
      Sys.remove (path "jobs.log"))
    [ 1; 4 ];
  let killed, _ = run ~jobs:2 ~stop_at:kill_at (path "killed.log") in
  if not killed.Imtp.Search.interrupted then
    fail "island smoke (%s): stop callback did not interrupt the run" name;
  let killed_log = read_file (path "killed.log") in
  let logged = List.length (String.split_on_char '\n' killed_log) - 2 in
  if logged <= 0 || String.length killed_log >= String.length full_log then
    fail "island smoke (%s): killed with %d records, not mid-run" name logged;
  List.iter
    (fun jobs ->
      write_file (path "session.log") killed_log;
      let resumed, verified = run ~jobs (path "session.log") in
      if resumed.Imtp.Search.interrupted then
        fail "island smoke (%s): -j%d resumed run did not complete" name jobs;
      if verified <> logged then
        fail "island smoke (%s): -j%d verified %d of %d logged records" name
          jobs verified logged;
      if read_file (path "session.log") <> full_log then
        fail "island smoke (%s): -j%d stitched log differs from the \
              uninterrupted one" name jobs;
      if digest resumed <> digest full_j2 then
        fail
          "island smoke (%s): -j%d resumed digest differs from the \
           uninterrupted run"
          name jobs)
    [ 1; 2; 4 ];
  List.iter (fun f -> Sys.remove (path f))
    [ "full.log"; "killed.log"; "session.log" ];
  Printf.printf
    "island smoke ok (%s): islands=2, %d trials, killed with %d records \
     logged, resumed at -j1/2/4 to digest %s\n"
    name trials logged (digest full_j2)

let () =
  let dir = Filename.temp_file "imtp_island_smoke" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> Unix.rmdir dir) @@ fun () ->
  smoke ~dir ~name:"ungated" ~seed:23 ~trials:128 ~kill_at:1 ();
  smoke ~dir ~name:"gated" ~measure_ratio:0.2 ~seed:23 ~trials:128
    ~kill_at:1 ();
  smoke ~dir ~name:"ungated, uneven" ~seed:23 ~trials:161 ~kill_at:2 ();
  smoke ~dir ~name:"gated, uneven" ~measure_ratio:0.2 ~seed:23 ~trials:161
    ~kill_at:2 ()
