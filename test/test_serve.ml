(* Serving tests: protocol framing and codecs over socketpairs, then a
   live in-process daemon driven through the typed client — including
   deliberately malformed traffic (the fuzz harness), concurrent
   sessions sharing one engine, admission backpressure, and
   interrupt-then-resume across two daemon lifetimes. *)

module P = Imtp_serve.Protocol
module Serve = Imtp_serve.Serve
module Client = Imtp_serve.Client
module Json = Imtp_obs.Obs.Json

let fail_client e = Alcotest.fail (Client.error_to_string e)

let ok = function Ok v -> v | Error e -> fail_client e

let jstr body field =
  match Json.member field body with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "missing string field %S in %s" field (Json.to_string body)

let jnum body field =
  match Json.member field body with
  | Some (Json.Num n) -> n
  | _ -> Alcotest.failf "missing number field %S in %s" field (Json.to_string body)

let jobj body field =
  match Json.member field body with
  | Some (Json.Obj _ as o) -> o
  | _ -> Alcotest.failf "missing object field %S in %s" field (Json.to_string body)

(* --- Framing over a socketpair --------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      let payloads =
        [ "x"; "{\"kind\":\"stats\"}"; String.make 60000 'q' ]
      in
      List.iter
        (fun p ->
          P.write_frame a p;
          match P.read_frame b with
          | Ok (Some got) -> Alcotest.(check string) "payload" p got
          | Ok None -> Alcotest.fail "unexpected EOF"
          | Error (_, m) -> Alcotest.fail m)
        payloads;
      Unix.close a;
      match P.read_frame b with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "phantom frame after close"
      | Error (_, m) -> Alcotest.failf "clean close misread as error: %s" m)

let test_frame_errors () =
  (* truncated length prefix *)
  with_socketpair (fun a b ->
      let n = Unix.write_substring a "\x00\x00" 0 2 in
      Alcotest.(check int) "wrote prefix fragment" 2 n;
      Unix.close a;
      match P.read_frame b with
      | Error (P.Bad_frame, _) -> ()
      | Error (c, m) ->
          Alcotest.failf "wrong code %s: %s" (P.error_code_to_string c) m
      | Ok _ -> Alcotest.fail "truncated prefix accepted");
  (* oversized length prefix *)
  with_socketpair (fun a b ->
      let n = Unix.write_substring a "\xff\xff\xff\xff" 0 4 in
      Alcotest.(check int) "wrote prefix" 4 n;
      match P.read_frame b with
      | Error (P.Too_large, _) -> ()
      | Error (c, m) ->
          Alcotest.failf "wrong code %s: %s" (P.error_code_to_string c) m
      | Ok _ -> Alcotest.fail "oversized frame accepted");
  (* zero-length frame *)
  with_socketpair (fun a b ->
      let n = Unix.write_substring a "\x00\x00\x00\x00" 0 4 in
      Alcotest.(check int) "wrote prefix" 4 n;
      match P.read_frame b with
      | Error (P.Bad_frame, _) -> ()
      | Error (c, m) ->
          Alcotest.failf "wrong code %s: %s" (P.error_code_to_string c) m
      | Ok _ -> Alcotest.fail "empty frame accepted");
  (* truncated payload *)
  with_socketpair (fun a b ->
      let n = Unix.write_substring a "\x00\x00\x00\x0ahello" 0 9 in
      Alcotest.(check int) "wrote fragment" 9 n;
      Unix.close a;
      match P.read_frame b with
      | Error (P.Bad_frame, _) -> ()
      | Error (c, m) ->
          Alcotest.failf "wrong code %s: %s" (P.error_code_to_string c) m
      | Ok _ -> Alcotest.fail "truncated payload accepted");
  (* empty payload refused at the writer too *)
  with_socketpair (fun a _ ->
      match P.write_frame a "" with
      | () -> Alcotest.fail "empty payload written"
      | exception Invalid_argument _ -> ())

let test_request_json_roundtrip () =
  let specs =
    [
      P.Hello 1;
      P.Run { op = "va"; sizes = [ 1000 ] };
      P.Tune
        {
          op = "gemv";
          sizes = [ 64; 256 ];
          trials = 24;
          seed = 7;
          measure_ratio = Some 0.2;
          islands = Some 4;
          session = Some "sess-a";
        };
      P.Tune
        {
          op = "mtv";
          sizes = [ 128; 256 ];
          trials = 48;
          seed = 11;
          measure_ratio = None;
          islands = None;
          session = None;
        };
      P.Replay { log = "/tmp/x.log"; sizes = [ 8; 64; 64 ] };
      P.Stats;
      P.Shutdown;
    ]
  in
  List.iter
    (fun req ->
      let s = Json.to_string (P.request_to_json req) in
      match P.request_of_string s with
      | Ok got ->
          if got <> req then Alcotest.failf "request did not roundtrip: %s" s
      | Error (_, m) -> Alcotest.failf "%s: %s" s m)
    specs

let test_response_json_roundtrip () =
  let resps =
    [
      P.Resp_ok (Json.Obj [ ("x", Json.Num 1.5); ("s", Json.Str "y") ]);
      P.Resp_error { code = P.Busy; message = "queue full" };
    ]
  in
  List.iter
    (fun r ->
      let s = Json.to_string (P.response_to_json r) in
      match P.response_of_string s with
      | Ok got ->
          if got <> r then Alcotest.failf "response did not roundtrip: %s" s
      | Error (_, m) -> Alcotest.failf "%s: %s" s m)
    resps

let test_error_code_table () =
  let all =
    [
      P.Bad_frame; P.Bad_version; P.Bad_request; P.Unknown_op; P.Engine_error;
      P.Busy; P.Shutting_down; P.Not_found; P.Too_large; P.Internal;
    ]
  in
  List.iter
    (fun c ->
      let s = P.error_code_to_string c in
      match P.error_code_of_string s with
      | Some got ->
          if got <> c then Alcotest.failf "%s did not roundtrip" s
      | None -> Alcotest.failf "%s unknown to its own table" s)
    all;
  Alcotest.(check bool) "unknown code rejected" true
    (P.error_code_of_string "no_such_code" = None)

let test_malformed_requests_typed () =
  let cases =
    [
      ("not json at all", P.Bad_request);
      ("{\"kind\":\"frobnicate\"}", P.Bad_request);
      ("{\"kind\":\"run\",\"op\":\"va\",\"sizes\":[0]}", P.Bad_request);
      ("{\"kind\":\"run\",\"op\":\"va\",\"sizes\":[1.5]}", P.Bad_request);
      ("{\"kind\":\"tune\",\"op\":\"va\",\"sizes\":[8],\"trials\":0,\"seed\":1}",
       P.Bad_request);
      ("[1,2,3]", P.Bad_request);
    ]
  in
  List.iter
    (fun (s, want) ->
      match P.request_of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed request %s" s
      | Error (code, _) ->
          if code <> want then
            Alcotest.failf "%s: got %s" s (P.error_code_to_string code))
    cases

(* --- Live daemon harness --------------------------------------------- *)

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rec rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let wait_for ?(timeout = 10.) ?(interval = 0.02) what pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay interval;
      go ()
    end
  in
  go ()

(* Start an in-process daemon, run [f] against its socket, always shut
   it down and join the daemon thread. *)
let with_daemon ?(config = fun c -> c) f =
  let dir = temp_dir "imtp_serve" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let socket = Filename.concat dir "d.sock" in
      let cfg =
        config
          {
            (Serve.default_config ~socket) with
            Serve.checkpoint_dir = Filename.concat dir "ckpt";
          }
      in
      let daemon_result = ref (Ok ()) in
      let th = Thread.create (fun () -> daemon_result := Serve.run cfg) () in
      wait_for "daemon socket"
        (fun () ->
          match Client.connect ~socket with
          | Ok c ->
              Client.close c;
              true
          | Error _ -> false);
      Fun.protect
        ~finally:(fun () ->
          (match Client.with_connection ~socket Client.shutdown with
          | Ok () | Error _ -> ());
          Thread.join th;
          match !daemon_result with
          | Ok () -> ()
          | Error m -> Alcotest.failf "daemon exited with: %s" m)
        (fun () -> f cfg socket))

let quick_tune ?(trials = 24) ?measure_ratio ~session c =
  Client.tune c
    {
      P.op = "mtv";
      sizes = [ 64; 128 ];
      trials;
      seed = 5;
      measure_ratio;
      islands = None;
      session = Some session;
    }

let test_daemon_run_and_stats () =
  with_daemon (fun _cfg socket ->
      let c = ok (Client.connect ~socket) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let body = ok (Client.run c ~op:"va" ~sizes:[ 1000 ]) in
          Alcotest.(check bool) "run validates" true
            (Json.member "valid" body = Some (Json.Bool true));
          (* semantic errors keep the connection usable *)
          (match Client.run c ~op:"no_such_op" ~sizes:[ 8 ] with
          | Error (Client.Server (P.Unknown_op, _)) -> ()
          | Error e -> fail_client e
          | Ok _ -> Alcotest.fail "unknown op accepted");
          (match Client.run c ~op:"va" ~sizes:[ 1; 2; 3; 4 ] with
          | Error (Client.Server (P.Bad_request, _)) -> ()
          | Error e -> fail_client e
          | Ok _ -> Alcotest.fail "bad arity accepted");
          (match Client.replay c ~log:"/nonexistent.log" ~sizes:[ 8 ] with
          | Error (Client.Server (P.Not_found, _)) -> ()
          | Error e -> fail_client e
          | Ok _ -> Alcotest.fail "missing log accepted");
          (* a logged schedule with a zero field is an engine error, not
             an internal one *)
          let log = Filename.temp_file "imtp_zero_rows" ".log" in
          Fun.protect
            ~finally:(fun () -> Sys.remove log)
            (fun () ->
              Out_channel.with_open_text log (fun oc ->
                  output_string oc
                    "# imtp-tuning-log op=mmtv\n\
                     trial=0 latency=2.1e-03 sd=32 rd=16 t=4 c=512 rows=0 \
                     unroll=0 ht=1 measured=1\n");
              match Client.replay c ~log ~sizes:[ 16; 64; 256 ] with
              | Error (Client.Server (P.Engine_error, m)) ->
                  Alcotest.(check bool)
                    ("a sketch error: " ^ m)
                    true
                    (String.starts_with ~prefix:"sketch: " m)
              | Error e -> fail_client e
              | Ok _ -> Alcotest.fail "rows=0 replayed");
          let stats = ok (Client.stats c) in
          ignore (jobj stats "engine");
          let pool = jobj stats "pool" in
          (match Json.member "peak_busy" pool with
          | Some (Json.Num n) ->
              Alcotest.(check bool) "peak_busy is a sane gauge" true (n >= 0.)
          | _ -> Alcotest.fail "pool stats missing peak_busy");
          ignore (jobj stats "sessions");
          ignore (jobj stats "metrics")))

(* Malformed traffic must produce typed errors, never kill the daemon.
   After every abuse below, a well-behaved client still gets stats. *)
let test_daemon_survives_malformed_traffic () =
  with_daemon (fun _cfg socket ->
      let raw () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket);
        fd
      in
      let expect_error fd want =
        match P.read_frame fd with
        | Ok (Some payload) -> (
            match P.response_of_string payload with
            | Ok (P.Resp_error { code; _ }) when code = want -> ()
            | Ok r ->
                Alcotest.failf "wanted %s, got %s"
                  (P.error_code_to_string want)
                  (Json.to_string (P.response_to_json r))
            | Error (_, m) -> Alcotest.fail m)
        | Ok None -> Alcotest.failf "connection closed before %s"
                       (P.error_code_to_string want)
        | Error (_, m) -> Alcotest.fail m
      in
      let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
      (* bad JSON in the first frame *)
      let fd = raw () in
      P.write_frame fd "this is not json";
      expect_error fd P.Bad_request;
      close fd;
      (* well-formed request that is not hello *)
      let fd = raw () in
      P.send_request fd P.Stats;
      expect_error fd P.Bad_request;
      close fd;
      (* wrong hello version *)
      let fd = raw () in
      P.send_request fd (P.Hello 999);
      expect_error fd P.Bad_version;
      close fd;
      (* partial length prefix then close *)
      let fd = raw () in
      ignore (Unix.write_substring fd "\x00\x00" 0 2);
      close fd;
      (* oversized frame after a valid hello *)
      let fd = raw () in
      P.send_request fd (P.Hello P.version);
      (match P.read_frame fd with
      | Ok (Some _) -> ()
      | _ -> Alcotest.fail "no hello ack");
      ignore (Unix.write_substring fd "\x7f\xff\xff\xff" 0 4);
      expect_error fd P.Too_large;
      close fd;
      (* seeded random garbage, assorted lengths *)
      let rng = Random.State.make [| 0xC0FFEE |] in
      for _ = 1 to 20 do
        let fd = raw () in
        let n = 1 + Random.State.int rng 64 in
        let junk =
          String.init n (fun _ -> Char.chr (Random.State.int rng 256))
        in
        (try ignore (Unix.write_substring fd junk 0 n)
         with Unix.Unix_error _ -> ());
        (* whatever the daemon answers (typed error or close) is fine —
           it just must not die *)
        (match P.read_frame fd with Ok _ | Error _ -> ());
        close fd
      done;
      (* the daemon is still standing *)
      let c = ok (Client.connect ~socket) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () -> ignore (ok (Client.stats c))))

(* Four clients tune the same spec under distinct session names with
   max_sessions = 2: all must complete (no starvation), their history
   digests must agree (determinism regardless of cache state), and the
   shared engine must serve later sessions from cache. *)
let test_concurrent_clients_share_cache () =
  with_daemon
    ~config:(fun c -> { c with Serve.max_sessions = 2; queue_limit = 16 })
    (fun _cfg socket ->
      let results = Array.make 4 (Error (Client.Transport "unset")) in
      let threads =
        Array.init 4 (fun i ->
            Thread.create
              (fun () ->
                results.(i) <-
                  Client.with_connection ~socket (fun c ->
                      quick_tune ~session:(Printf.sprintf "sess%d" i) c))
              ())
      in
      Array.iter Thread.join threads;
      let digests =
        Array.to_list results
        |> List.map (fun r ->
               let body = ok r in
               Alcotest.(check bool) "session completed" false
                 (Json.member "interrupted" body = Some (Json.Bool true));
               jstr body "history_digest")
      in
      (match digests with
      | d :: rest ->
          List.iteri
            (fun i d' ->
              Alcotest.(check string)
                (Printf.sprintf "digest %d matches" (i + 1))
                d d')
            rest
      | [] -> assert false);
      let stats = ok (Client.with_connection ~socket Client.stats) in
      let engine = jobj stats "engine" and sessions = jobj stats "sessions" in
      Alcotest.(check (float 0.)) "all four sessions completed" 4.
        (jnum sessions "completed");
      let hits = jnum engine "hits" and built = jnum engine "built" in
      Alcotest.(check bool)
        (Printf.sprintf "shared cache: hits %.0f > built %.0f" hits built)
        true
        (hits > built))

(* max_sessions = 1 and queue_limit = 1: with a slot holder and one
   queued waiter, a third tune must bounce with [Busy]; so must a
   duplicate of a running session name.  The holder is sized like
   "FIFO admission"'s (about a second on a cold engine) so that it
   outlasts the stats polls and connections made while it runs. *)
let test_admission_backpressure () =
  with_daemon
    ~config:(fun c -> { c with Serve.max_sessions = 1; queue_limit = 1 })
    (fun _cfg socket ->
      let stats_field obj field =
        let s = ok (Client.with_connection ~socket Client.stats) in
        jnum (jobj s obj) field
      in
      let slow = ref (Error (Client.Transport "unset")) in
      let t1 =
        Thread.create
          (fun () ->
            slow :=
              Client.with_connection ~socket
                (quick_tune ~trials:400_000 ~session:"holder"))
          ()
      in
      wait_for "holder to take the slot" (fun () ->
          stats_field "sessions" "active" = 1.);
      (* duplicate of a running session: immediate Busy, not queued *)
      (match
         Client.with_connection ~socket (quick_tune ~trials:4 ~session:"holder")
       with
      | Error (Client.Server (P.Busy, _)) -> ()
      | Error e -> fail_client e
      | Ok _ -> Alcotest.fail "duplicate session admitted");
      let waiter = ref (Error (Client.Transport "unset")) in
      let t2 =
        Thread.create
          (fun () ->
            waiter :=
              Client.with_connection ~socket
                (quick_tune ~trials:4 ~session:"waiter"))
          ()
      in
      wait_for "waiter to queue" (fun () ->
          stats_field "sessions" "queued" = 1.);
      (* queue is now full: third client is refused *)
      (match
         Client.with_connection ~socket (quick_tune ~trials:4 ~session:"extra")
       with
      | Error (Client.Server (P.Busy, _)) -> ()
      | Error e -> fail_client e
      | Ok _ -> Alcotest.fail "over-limit tune admitted");
      Thread.join t1;
      Thread.join t2;
      ignore (ok !slow);
      ignore (ok !waiter);
      Alcotest.(check bool) "busy rejections counted" true
        (stats_field "sessions" "rejected_busy" >= 2.))

(* max_sessions = 1: while one long tune holds the slot, three
   connections queue a tune each, one after another; they are admitted
   in arrival order, so their responses come back in it.  Each queued
   tune is a different op, so none is a run of cache hits that could
   overtake the answer of the one before it. *)
let test_fifo_admission () =
  with_daemon
    ~config:(fun c -> { c with Serve.max_sessions = 1 })
    (fun _cfg socket ->
      let sessions field =
        let s = ok (Client.with_connection ~socket Client.stats) in
        jnum (jobj s "sessions") field
      in
      let tune ~trials ~sizes session =
        Client.with_connection ~socket (fun c ->
            Client.tune c
              {
                P.op = "mtv";
                sizes;
                trials;
                seed = 5;
                measure_ratio = None;
                islands = None;
                session = Some session;
              })
      in
      let holder = ref (Error (Client.Transport "unset")) in
      let th =
        Thread.create
          (fun () ->
            holder := tune ~trials:400_000 ~sizes:[ 64; 128 ] "holder")
          ()
      in
      wait_for "holder to take the slot" (fun () -> sessions "active" = 1.);
      let m = Mutex.create () and arrived = ref [] in
      let queued =
        List.mapi
          (fun i (name, sizes) ->
            let t =
              Thread.create
                (fun () ->
                  let r = tune ~trials:8000 ~sizes name in
                  Mutex.protect m (fun () -> arrived := (name, r) :: !arrived))
                ()
            in
            wait_for
              (Printf.sprintf "%s to queue" name)
              (fun () -> sessions "queued" = float_of_int (i + 1));
            t)
          [
            ("first", [ 2048; 2048 ]);
            ("second", [ 1024; 2048 ]);
            ("third", [ 2048; 1024 ]);
          ]
      in
      Thread.join th;
      List.iter Thread.join queued;
      ignore (ok !holder);
      let arrived = List.rev !arrived in
      List.iter (fun (_, r) -> ignore (ok r)) arrived;
      Alcotest.(check (list string))
        "answered in arrival order"
        [ "first"; "second"; "third" ]
        (List.map fst arrived))

(* Interrupt-then-resume across daemon lifetimes, sharing one
   log dir: a shutdown mid-tune answers the client with
   [interrupted = true] and leaves the session log behind; a second
   daemon resuming that session must report [resumed_from] and land on
   the reference digest. *)
let test_daemon_resume_after_interrupt () =
  let dir = temp_dir "imtp_resume" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf (Filename.concat dir "ckpt");
      rm_rf dir)
    (fun () ->
      let socket = Filename.concat dir "d.sock" in
      let ckpt_dir = Filename.concat dir "ckpt" in
      let cfg =
        {
          (Serve.default_config ~socket) with
          Serve.checkpoint_dir = ckpt_dir;
        }
      in
      let trials = 4000 and session = "kill-me" in
      let spec =
        {
          P.op = "mtv";
          sizes = [ 64; 128 ];
          trials;
          seed = 5;
          measure_ratio = None;
          islands = None;
          session = Some session;
        }
      in
      let boot () =
        let result = ref (Ok ()) in
        let th = Thread.create (fun () -> result := Serve.run cfg) () in
        wait_for "daemon socket"
          (fun () ->
            match Client.connect ~socket with
            | Ok c ->
                Client.close c;
                true
            | Error _ -> false);
        (th, result)
      in
      let join (th, result) =
        Thread.join th;
        match !result with
        | Ok () -> ()
        | Error m -> Alcotest.failf "daemon exited with: %s" m
      in
      (* daemon #1: record the uninterrupted reference, then interrupt
         the same spec under another session via shutdown *)
      let d1 = boot () in
      let reference =
        jstr
          (ok
             (Client.with_connection ~socket (fun c ->
                  Client.tune c { spec with P.session = Some "reference" })))
          "history_digest"
      in
      let log_path = Filename.concat ckpt_dir (session ^ ".log") in
      let victim = ref (Error (Client.Transport "unset")) in
      let tv =
        Thread.create
          (fun () ->
            victim := Client.with_connection ~socket (fun c -> Client.tune c spec))
          ()
      in
      (* The victim runs on the engine the reference warmed, so its log
         may exist for only a few milliseconds. *)
      wait_for ~interval:0.001 "first log lines on disk" (fun () ->
          Sys.file_exists log_path);
      (match Client.with_connection ~socket Client.shutdown with
      | Ok () -> ()
      | Error e -> fail_client e);
      Thread.join tv;
      join d1;
      let vbody = ok !victim in
      Alcotest.(check bool) "victim answered as interrupted" true
        (Json.member "interrupted" vbody = Some (Json.Bool true));
      Alcotest.(check bool) "log survives the shutdown" true
        (Sys.file_exists log_path);
      let logged =
        match Imtp_autotune.Tuning_log.load log_path with
        | Ok (_, entries) -> List.length entries
        | Error m -> Alcotest.failf "session log: %s" m
      in
      (* daemon #2: resuming the session must finish on the reference
         digest and clean up its log *)
      let d2 = boot () in
      let rbody =
        ok (Client.with_connection ~socket (fun c -> Client.tune c spec))
      in
      (match Client.with_connection ~socket Client.shutdown with
      | Ok () -> ()
      | Error e -> fail_client e);
      join d2;
      (match Json.member "resumed_from" rbody with
      | Some (Json.Num n) when n > 0. ->
          Alcotest.(check int) "resumed_from counts the logged records"
            logged (int_of_float n)
      | v ->
          Alcotest.failf "resumed_from missing or null: %s"
            (match v with Some j -> Json.to_string j | None -> "absent"))
      ;
      Alcotest.(check string) "resumed digest matches uninterrupted run"
        reference
        (jstr rbody "history_digest");
      Alcotest.(check bool) "log removed after completion" false
        (Sys.file_exists log_path))

(* --- Session domains --------------------------------------------------- *)

(* Every admitted search runs on a session domain the daemon joins
   before [Serve.run] returns.  OCaml 5.1 refuses a 129th live domain,
   so 70 lifetimes of two overlapping sessions each fail here if a
   daemon leaves its session domains running; at most a few domains
   are alive at any time. *)
let test_session_domains_joined () =
  for cycle = 1 to 70 do
    with_daemon
      ~config:(fun c -> { c with Serve.max_sessions = 2 })
      (fun _cfg socket ->
        let results = Array.make 2 (Error (Client.Transport "unset")) in
        let threads =
          Array.init 2 (fun i ->
              Thread.create
                (fun () ->
                  results.(i) <-
                    Client.with_connection ~socket
                      (quick_tune ~trials:32
                         ~session:(Printf.sprintf "c%d-%d" cycle i)))
                ())
        in
        Array.iter Thread.join threads;
        Array.iter
          (fun r ->
            let body = ok r in
            Alcotest.(check bool) "session completed" false
              (Json.member "interrupted" body = Some (Json.Bool true)))
          results)
  done

(* A search that raises on its session domain answers its client as
   before: a ratio outside (0, 1] is [bad_request], a failing log
   write is [internal]; the daemon serves on. *)
let test_session_errors_cross_back () =
  with_daemon (fun cfg socket ->
      let c = ok (Client.connect ~socket) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (match quick_tune ~measure_ratio:1.5 ~session:"bad-ratio" c with
      | Error (Client.Server (P.Bad_request, m)) ->
          Alcotest.(check bool) ("names the ratio: " ^ m) true
            (String.length m > 0)
      | Error e -> fail_client e
      | Ok _ -> Alcotest.fail "measure_ratio 1.5 accepted");
      rm_rf cfg.Serve.checkpoint_dir;
      (match quick_tune ~session:"no-dir" c with
      | Error (Client.Server (P.Internal, _)) -> ()
      | Error e -> fail_client e
      | Ok _ -> Alcotest.fail "tune succeeded without a log directory");
      Unix.mkdir cfg.Serve.checkpoint_dir 0o700;
      ignore (ok (quick_tune ~session:"after" c)))

(* A session's log answers for its request: a log written for another
   request is [bad_request] and stays as it was, a log whose records
   the re-run does not make is [internal]. *)
let test_session_log_guards_request () =
  with_daemon (fun cfg socket ->
      let c = ok (Client.connect ~socket) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let write name text =
        let path = Filename.concat cfg.Serve.checkpoint_dir (name ^ ".log") in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc text);
        path
      in
      let header seed =
        Printf.sprintf
          "# imtp-tuning-log op=mtv sizes=64x128 seed=%d trials=24 islands=1\n"
          seed
      in
      let other = write "other" (header 6) in
      (match quick_tune ~session:"other" c with
      | Error (Client.Server (P.Bad_request, _)) -> ()
      | Error e -> fail_client e
      | Ok _ -> Alcotest.fail "resumed another request's log");
      Alcotest.(check string) "log left as it was" (header 6)
        (In_channel.with_open_bin other In_channel.input_all);
      ignore
        (write "forged"
           (header 5
           ^ "trial=0 latency=1.000000000e+00 sd=1 rd=1 t=1 c=1 rows=1 \
              unroll=0 ht=1 measured=1\n"));
      (match quick_tune ~session:"forged" c with
      | Error (Client.Server (P.Internal, m)) ->
          let sub = "forged.log:2:" in
          Alcotest.(check bool) ("names the line: " ^ m) true
            (List.exists
               (fun i -> String.sub m i (String.length sub) = sub)
               (List.init (String.length m - String.length sub + 1) Fun.id))
      | Error e -> fail_client e
      | Ok _ -> Alcotest.fail "a divergent log was accepted");
      ignore (ok (quick_tune ~session:"after" c)))

(* Derived session names keep the exact gate ratio: specs that differ
   only in it are different sessions. *)
let test_derived_session_names () =
  with_daemon (fun _cfg socket ->
      let c = ok (Client.connect ~socket) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let session measure_ratio =
        jstr
          (ok
             (Client.tune c
                {
                  P.op = "mtv";
                  sizes = [ 64; 128 ];
                  trials = 24;
                  seed = 5;
                  measure_ratio = Some measure_ratio;
                  islands = None;
                  session = None;
                }))
          "session"
      in
      List.iter
        (fun (a, b) ->
          let na = session a and nb = session b in
          Alcotest.(check bool)
            (Printf.sprintf "%s and %s differ" na nb)
            true (na <> nb))
        [ (0.2, 0.204); (0.001, 0.004) ];
      Alcotest.(check string) "readable ratio" "mtv-64x128-s5-t24-r0.2"
        (session 0.2))

(* A shutdown while a session runs on the single session domain of
   [max_sessions = 1]: the search stops at its next boundary, logs its
   records through it and answers [interrupted: true]. *)
let test_shutdown_mid_session () =
  let dir = temp_dir "imtp_stop" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let socket = Filename.concat dir "d.sock" in
  let cfg =
    {
      (Serve.default_config ~socket) with
      Serve.checkpoint_dir = Filename.concat dir "ckpt";
      max_sessions = 1;
    }
  in
  let result = ref (Ok ()) in
  let th = Thread.create (fun () -> result := Serve.run cfg) () in
  wait_for "daemon socket" (fun () ->
      match Client.connect ~socket with
      | Ok c ->
          Client.close c;
          true
      | Error _ -> false);
  let trials = 4000 in
  let log = Filename.concat cfg.Serve.checkpoint_dir "long.log" in
  let answer = ref (Error (Client.Transport "unset")) in
  let tv =
    Thread.create
      (fun () ->
        answer := Client.with_connection ~socket (quick_tune ~trials ~session:"long"))
      ()
  in
  wait_for "first log lines" (fun () -> Sys.file_exists log);
  (match Client.with_connection ~socket Client.shutdown with
  | Ok () -> ()
  | Error e -> fail_client e);
  Thread.join tv;
  Thread.join th;
  (match !result with Ok () -> () | Error m -> Alcotest.failf "daemon: %s" m);
  let body = ok !answer in
  Alcotest.(check bool) "answered as interrupted" true
    (Json.member "interrupted" body = Some (Json.Bool true));
  match Imtp_autotune.Tuning_log.load log with
  | Error m -> Alcotest.failf "session log: %s" m
  | Ok (_, entries) ->
      let logged = List.length entries in
      Alcotest.(check bool)
        (Printf.sprintf "log stops mid-run (%d records for %d trials)" logged
           trials)
        true
        (logged > 0 && logged < trials)

(* [max_sessions] above the limit is refused before the daemon starts
   anything: no socket, no domain. *)
let test_max_sessions_limit () =
  let dir = temp_dir "imtp_limit" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let socket = Filename.concat dir "d.sock" in
  let cfg n =
    {
      (Serve.default_config ~socket) with
      Serve.checkpoint_dir = Filename.concat dir "ckpt";
      max_sessions = n;
    }
  in
  List.iter
    (fun n ->
      match Serve.run (cfg n) with
      | _ -> Alcotest.failf "max_sessions %d accepted" n
      | exception Invalid_argument _ -> ())
    [ 0; Serve.max_sessions_limit + 1; max_int ];
  Alcotest.(check int) "limit" 32 Serve.max_sessions_limit;
  Alcotest.(check bool) "no socket" false (Sys.file_exists socket);
  Alcotest.(check bool) "no log dir" false
    (Sys.file_exists (Filename.concat dir "ckpt"))

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "frame errors are typed" `Quick test_frame_errors;
          Alcotest.test_case "request json roundtrip" `Quick
            test_request_json_roundtrip;
          Alcotest.test_case "response json roundtrip" `Quick
            test_response_json_roundtrip;
          Alcotest.test_case "error-code table" `Quick test_error_code_table;
          Alcotest.test_case "malformed requests typed" `Quick
            test_malformed_requests_typed;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "run, errors, stats" `Quick
            test_daemon_run_and_stats;
          Alcotest.test_case "survives malformed traffic" `Quick
            test_daemon_survives_malformed_traffic;
          Alcotest.test_case "4 clients share one cache" `Quick
            test_concurrent_clients_share_cache;
          Alcotest.test_case "admission backpressure" `Quick
            test_admission_backpressure;
          Alcotest.test_case "FIFO admission" `Quick test_fifo_admission;
          Alcotest.test_case "interrupt + resume across daemons" `Quick
            test_daemon_resume_after_interrupt;
          Alcotest.test_case "session log guards its request" `Quick
            test_session_log_guards_request;
          Alcotest.test_case "derived names keep the exact ratio" `Quick
            test_derived_session_names;
        ] );
      ( "session domains",
        [
          Alcotest.test_case "joined across 70 daemon lifetimes" `Quick
            test_session_domains_joined;
          Alcotest.test_case "errors cross back" `Quick
            test_session_errors_cross_back;
          Alcotest.test_case "shutdown mid-session" `Quick
            test_shutdown_mid_session;
          Alcotest.test_case "max_sessions limit" `Quick test_max_sessions_limit;
        ] );
    ]
