(* Process-level serving smoke, run as
   `serve_smoke.exe <imtp-cli> [--max-sessions N] [--jobs N]`
   (the daemon's flags, default 2 and 1): boots a real daemon process,
   drives it with the typed client and the `imtp client` subcommand,
   SIGKILLs it mid-tune once the session's checkpoint file has been
   rewritten in place, and checks the resumed search in a fresh daemon
   reproduces the uninterrupted run's history digest.  Everything in
   here is fixed-seed. *)

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

let wait_for ?(timeout = 30.) what pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then fail "timed out: %s" what
    else begin
      Thread.delay 0.05;
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

  (* 2. uninterrupted reference digest for the kill/resume spec *)
  let trials = 6000 in
  let reference =
    jstr (ok "reference tune" (tune ~trials ~session:"ref" ())) "history_digest"
  in
  Printf.printf "reference digest: %s\n%!" reference;

  (* 3. same spec under session "kill"; SIGKILL the daemon mid-search *)
  let victim = ref (Error (C.Transport "unset")) in
  let tv = Thread.create (fun () -> victim := tune ~trials ~session:"kill" ()) () in
  let ckpt_path = Filename.concat ckpt_dir "kill.ckpt" in
  (* The first checkpoint creates the file through a temp file and a
     rename; later ones rewrite its slots in place.  Killing only after
     boundary 3 makes the resume read a file the in-place path wrote. *)
  wait_for "kill session's boundary-3 checkpoint" (fun () ->
      match Imtp.Search_checkpoint.load ckpt_path with
      | Ok ck -> Imtp.Search.checkpoint_boundary ck >= 3
      | Error _ -> false);
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  Thread.join tv;
  (match !victim with
  | Error (C.Transport _) -> ()
  | Error (C.Server (c, m)) ->
      fail "expected a transport error after SIGKILL, got %s: %s"
        (P.error_code_to_string c) m
  | Ok _ -> fail "tune reported success though its daemon was SIGKILLed");
  if not (Sys.file_exists ckpt_path) then
    fail "checkpoint did not survive the SIGKILL";
  print_endline "SIGKILL mid-tune: checkpoint survived";

  (* 4. fresh daemon (reclaims the stale socket), resume the session *)
  let pid = spawn_daemon () in
  let rbody = ok "resumed tune" (tune ~trials ~session:"kill" ()) in
  (match Json.member "resumed_from" rbody with
  | Some (Json.Num n) when n > 0. ->
      Printf.printf "resumed from trial %.0f\n%!" n
  | _ -> fail "resumed tune did not report resumed_from");
  let rd = jstr rbody "history_digest" in
  if rd <> reference then
    fail "resumed digest %s differs from reference %s" rd reference;
  if Sys.file_exists ckpt_path then
    fail "checkpoint not cleaned up after resumed completion";
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
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> fail "daemon exited non-zero after shutdown");
  if Sys.file_exists socket then fail "socket not removed on shutdown";
  Unix.close devnull;
  Array.iter
    (fun f ->
      let p = Filename.concat ckpt_dir f in
      if Sys.file_exists p then Sys.remove p)
    (if Sys.file_exists ckpt_dir then Sys.readdir ckpt_dir else [||]);
  if Sys.file_exists ckpt_dir then Unix.rmdir ckpt_dir;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  print_endline "serve smoke: OK"
