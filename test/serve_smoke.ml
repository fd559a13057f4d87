(* Process-level serving smoke, run as
   `serve_smoke.exe <imtp-cli> [--max-sessions N] [--jobs N]`
   (the daemon's flags, default 2 and 1): boots a real daemon process,
   drives it with the typed client and the `imtp client` subcommand,
   SIGKILLs it mid-tune once the session's tuning log holds several
   boundaries' records, and checks the search resumed from that log in
   a fresh daemon reproduces the uninterrupted run's history digest.
   Everything in here is fixed-seed. *)

module C = Imtp.Serve_client
module P = Imtp.Protocol
module Json = Imtp.Obs.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

let ok what = function
  | Ok v -> v
  | Error e -> fail "%s: %s" what (C.error_to_string e)

let jstr body field =
  match Json.member field body with
  | Some (Json.Str s) -> s
  | _ -> fail "missing string field %S in %s" field (Json.to_string body)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* The daemon process running now, if any: every exit, [fail]'s
   included, kills it. *)
let daemon = ref None

let reap pid =
  ignore (Unix.waitpid [] pid);
  daemon := None

let wait_for ?(timeout = 30.) ?(interval = 0.05) what pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then fail "timed out: %s" what
    else begin
      Thread.delay interval;
      go ()
    end
  in
  go ()

let () =
  let usage () =
    fail "usage: serve_smoke <path-to-imtp-cli> [--max-sessions N] [--jobs N]"
  in
  let cli, max_sessions, jobs =
    let rec flags ((cli, m, j) as acc) = function
      | [] -> acc
      | "--max-sessions" :: n :: rest when int_of_string_opt n <> None ->
          flags (cli, n, j) rest
      | "--jobs" :: n :: rest when int_of_string_opt n <> None ->
          flags (cli, m, n) rest
      | _ -> usage ()
    in
    match Array.to_list Sys.argv with
    | _ :: cli :: rest -> flags (cli, "2", "1") rest
    | _ -> usage ()
  in
  Printf.printf "daemon: --max-sessions %s --jobs %s\n%!" max_sessions jobs;
  let dir = Filename.temp_file "imtp_serve_smoke" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  at_exit (fun () ->
      Option.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !daemon;
      rm_rf dir);
  let socket = Filename.concat dir "d.sock" in
  let ckpt_dir = Filename.concat dir "ckpt" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let spawn_daemon () =
    let pid =
      Unix.create_process cli
        [|
          cli; "serve"; "--socket"; socket; "--checkpoint-dir"; ckpt_dir;
          "--max-sessions"; max_sessions; "--jobs"; jobs;
        |]
        devnull devnull devnull
    in
    daemon := Some pid;
    wait_for "daemon socket" (fun () ->
        match C.connect ~socket with
        | Ok c ->
            C.close c;
            true
        | Error _ -> false);
    pid
  in
  let tune ?(trials = 24) ?(seed = 11) ~session () =
    C.with_connection ~socket (fun c ->
        C.tune c
          {
            P.op = "mtv";
            sizes = [ 128; 256 ];
            trials;
            seed;
            measure_ratio = None;
          islands = None;
            session = Some session;
          })
  in

  (* 1. boot, and run two concurrent client tunes *)
  let pid = spawn_daemon () in
  let r1 = ref (Error (C.Transport "unset"))
  and r2 = ref (Error (C.Transport "unset")) in
  let t1 = Thread.create (fun () -> r1 := tune ~session:"smoke-a" ()) ()
  and t2 = Thread.create (fun () -> r2 := tune ~session:"smoke-b" ()) () in
  Thread.join t1;
  Thread.join t2;
  ignore (ok "concurrent tune a" !r1);
  ignore (ok "concurrent tune b" !r2);
  print_endline "two concurrent tunes: ok";

  (* 2. uninterrupted reference digest for the kill/resume spec, long
     enough (about 0.3 s on a warm engine) for the kill below to land
     mid-search *)
  let trials = 30000 in
  let reference =
    jstr (ok "reference tune" (tune ~trials ~session:"ref" ())) "history_digest"
  in
  Printf.printf "reference digest: %s\n%!" reference;

  (* 3. same spec under session "kill"; SIGKILL the daemon mid-search *)
  let victim = ref (Error (C.Transport "unset")) in
  let tv = Thread.create (fun () -> victim := tune ~trials ~session:"kill" ()) () in
  let log_path = Filename.concat ckpt_dir "kill.log" in
  (* One island: each boundary after the 16-trial initial population
     (boundary 0) is one 16-trial generation, logged in one write, so a
     record of trial 48 or later means boundaries 0 to 3 are on disk and
     the resume verifies lines from several appends. *)
  wait_for ~interval:0.005 "kill session's boundary-3 records" (fun () ->
      match Imtp.Tuning_log.load log_path with
      | Ok (_, entries) ->
          List.exists (fun e -> e.Imtp.Tuning_log.trial >= 48) entries
      | Error _ -> false);
  Unix.kill pid Sys.sigkill;
  reap pid;
  Thread.join tv;
  (match !victim with
  | Error (C.Transport _) -> ()
  | Error (C.Server (c, m)) ->
      fail "expected a transport error after SIGKILL, got %s: %s"
        (P.error_code_to_string c) m
  | Ok _ -> fail "tune reported success though its daemon was SIGKILLed");
  if not (Sys.file_exists log_path) then
    fail "session log did not survive the SIGKILL";
  print_endline "SIGKILL mid-tune: session log survived";

  (* 4. fresh daemon (reclaims the stale socket), resume the session *)
  let pid = spawn_daemon () in
  let rbody = ok "resumed tune" (tune ~trials ~session:"kill" ()) in
  (match Json.member "resumed_from" rbody with
  | Some (Json.Num n) when n > 0. ->
      Printf.printf "resumed: %.0f logged records verified\n%!" n
  | _ -> fail "resumed tune did not report resumed_from");
  let rd = jstr rbody "history_digest" in
  if rd <> reference then
    fail "resumed digest %s differs from reference %s" rd reference;
  if Sys.file_exists log_path then
    fail "session log not cleaned up after resumed completion";
  print_endline "resume: digest matches uninterrupted run";

  (* 5. `imtp client stats` as a subprocess prints a JSON object *)
  let stats_out = Filename.concat dir "stats.json" in
  let out_fd =
    Unix.openfile stats_out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let spid =
    Unix.create_process cli
      [| cli; "client"; "stats"; "--socket"; socket |]
      devnull out_fd devnull
  in
  Unix.close out_fd;
  (match Unix.waitpid [] spid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> fail "imtp client stats exited non-zero");
  let stats_text =
    let ic = open_in stats_out in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (match Json.of_string (String.trim stats_text) with
  | Ok body when Json.member "sessions" body <> None -> ()
  | Ok body -> fail "stats output lacks sessions: %s" (Json.to_string body)
  | Error m -> fail "stats output is not JSON: %s" m);
  print_endline "client stats subprocess: ok";

  (* 6. graceful shutdown *)
  (match C.with_connection ~socket C.shutdown with
  | Ok () -> ()
  | Error e -> fail "shutdown: %s" (C.error_to_string e));
  let _, status = Unix.waitpid [] pid in
  daemon := None;
  if status <> Unix.WEXITED 0 then fail "daemon exited non-zero after shutdown";
  if Sys.file_exists socket then fail "socket not removed on shutdown";
  Unix.close devnull;
  print_endline "serve smoke: OK"
