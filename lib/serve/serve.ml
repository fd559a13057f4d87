(* Tuning-as-a-service daemon, and the request code the one-shot CLI
   shares with it.  One process owns one Engine (memo cache +
   compiled-executor cache + domain pool) and serves any number of
   clients over a Unix-domain socket speaking Protocol frames.
   Connections get a systhread each and carry one request at a time;
   tune sessions wait in one FIFO queue for a session domain, and every
   session appends its records to its tuning log at search boundaries,
   so a killed daemon's session resumes by re-running its search
   against that log. *)

module Obs = Imtp_obs.Obs
module Json = Obs.Json
module Engine = Imtp_engine.Engine
module Pool = Imtp_engine.Pool
module Search = Imtp_autotune.Search
module Tuning_log = Imtp_autotune.Tuning_log
module Sketch = Imtp_engine.Sketch
module Measure = Imtp_autotune.Measure
module Ops = Imtp_workload.Ops
module Op = Imtp_workload.Op
module Stats = Imtp_upmem.Stats
module P = Protocol

type config = {
  socket : string;
  checkpoint_dir : string;
  max_sessions : int;
  queue_limit : int;
}

(* Session domains plus the pool's at most 63 workers must stay under
   OCaml's 128-domain limit. *)
let max_sessions_limit = 32

let default_config ~socket =
  {
    socket;
    checkpoint_dir = "imtp-checkpoints";
    max_sessions = 2;
    queue_limit = 16;
  }

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type error = P.error_code * string

let ( let* ) = Result.bind

let build_op name sizes =
  if not (List.mem name Ops.all_names) then
    Error
      ( P.Unknown_op,
        Printf.sprintf "unknown op %S (expected one of: %s)" name
          (String.concat ", " Ops.all_names) )
  else
    match Ops.by_name name ~sizes with
    | op -> Ok op
    | exception (Invalid_argument m | Failure m) -> Error (P.Bad_request, m)

type run_result = { valid : bool; stats : Stats.t }

let run_op engine machine op =
  match Engine.build engine op (Sketch.default_for machine op) with
  | Error e -> Error (P.Engine_error, Engine.error_to_string e)
  | Ok art ->
      let inputs = Ops.random_inputs op in
      let outs, _ = Engine.execute art.Engine.program ~inputs in
      let got = List.assoc (fst op.Op.output) outs in
      Ok
        {
          valid = Imtp_tensor.Tensor.same_values got (Op.reference op inputs);
          stats = art.Engine.stats;
        }

type replay_result = {
  op_name : string;
  entries : int;
  best : Tuning_log.entry;
  remeasured_s : float;
}

let replay engine ~log ~sizes =
  if not (Sys.file_exists log) then Error (P.Not_found, log ^ ": no such file")
  else
    match Tuning_log.load log with
    | Error m -> Error (P.Bad_request, m)
    | Ok (hdr, entries) -> (
        let op_name = hdr.Tuning_log.op_name in
        let* op = build_op op_name sizes in
        match Tuning_log.best entries with
        | None -> Error (P.Engine_error, log ^ ": no measured entries")
        | Some best -> (
            match Engine.measure engine op best.Tuning_log.params with
            | Error e -> Error (P.Engine_error, Engine.error_to_string e)
            | Ok m ->
                Ok
                  {
                    op_name;
                    entries = List.length entries;
                    best;
                    remeasured_s = m.Engine.latency_s;
                  }))

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type ledger = {
  mutable started : int;
  mutable completed : int;
  mutable interrupted : int;
  mutable resumed : int;
  mutable rejected_busy : int;
}

(* A tune session's search, waiting in [state.jobs] until a session
   domain takes it.  [run] never raises. *)
type job = {
  run : unit -> unit;
  mutable taken : bool;
  mutable finished : bool;
}

type state = {
  cfg : config;
  machine : Imtp_upmem.Config.t;
  engine : Engine.t;
  m : Mutex.t;  (* guards every mutable field below *)
  work : Condition.t;  (* a job was queued, or the daemon is closing *)
  changed : Condition.t;  (* a job finished, or the daemon is stopping *)
  stopping : bool Atomic.t;  (* polled by searches on session domains *)
  (* Tune sessions waiting for a session domain, oldest first.  Up to
     [max_sessions] domains, spawned on first need, take them in this
     order and park on [work] between sessions; [idle] counts the
     parked ones and [running] the jobs they hold. *)
  jobs : job Queue.t;
  mutable running : int;
  mutable idle : int;
  mutable domains : unit Domain.t list;
  mutable closing : bool;
  active_sessions : (string, unit) Hashtbl.t;
  ledger : ledger;
}

let make_state ?(machine = Imtp_upmem.Config.default) cfg =
  {
    cfg;
    machine;
    engine = Engine.create machine;
    m = Mutex.create ();
    work = Condition.create ();
    changed = Condition.create ();
    stopping = Atomic.make false;
    jobs = Queue.create ();
    running = 0;
    idle = 0;
    domains = [];
    closing = false;
    active_sessions = Hashtbl.create 16;
    ledger =
      {
        started = 0;
        completed = 0;
        interrupted = 0;
        resumed = 0;
        rejected_busy = 0;
      };
  }

(* ------------------------------------------------------------------ *)
(* Session domains                                                     *)
(* ------------------------------------------------------------------ *)

(* Take the oldest job, run it, repeat.  A stopping daemon starts no
   more jobs: their waiters take the ones still queued back out. *)
let rec session_domain state =
  Mutex.lock state.m;
  while
    (Queue.is_empty state.jobs || Atomic.get state.stopping)
    && not state.closing
  do
    state.idle <- state.idle + 1;
    Condition.wait state.work state.m;
    state.idle <- state.idle - 1
  done;
  if state.closing then Mutex.unlock state.m
  else begin
    let job = Queue.pop state.jobs in
    job.taken <- true;
    state.running <- state.running + 1;
    Mutex.unlock state.m;
    job.run ();
    Mutex.lock state.m;
    job.finished <- true;
    state.running <- state.running - 1;
    Condition.broadcast state.changed;
    Mutex.unlock state.m;
    session_domain state
  end

(* [f ()] on a session domain, after every job queued before it has
   been taken; the calling thread waits.  A job that would make the
   queue longer than [queue_limit] is refused with [busy]; one still
   queued when the daemon stops never runs.  A domain is
   spawned when the job would find no parked domain free, up to
   [max_sessions].  [f]'s exception, if any, is re-raised here with its
   backtrace. *)
let on_session_domain state f =
  let outcome = ref None in
  let run () =
    outcome :=
      Some
        (match f () with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ()))
  in
  let job = { run; taken = false; finished = false } in
  let queued =
    Mutex.protect state.m @@ fun () ->
    if Atomic.get state.stopping then
      Error (P.Shutting_down, "daemon is shutting down")
    else if Queue.length state.jobs >= state.cfg.queue_limit then begin
      state.ledger.rejected_busy <- state.ledger.rejected_busy + 1;
      Error
        ( P.Busy,
          Printf.sprintf "tune queue is full (%d waiting, limit %d)"
            (Queue.length state.jobs) state.cfg.queue_limit )
    end
    else begin
      (* Spawned first, so a failed spawn leaves no orphan job. *)
      if
        Queue.length state.jobs >= state.idle
        && List.length state.domains < state.cfg.max_sessions
      then
        state.domains <-
          Domain.spawn (fun () -> session_domain state) :: state.domains;
      Queue.push job state.jobs;
      Condition.signal state.work;
      while
        (not job.finished) && (job.taken || not (Atomic.get state.stopping))
      do
        Condition.wait state.changed state.m
      done;
      if job.finished then Ok ()
      else begin
        let rest = Queue.create () in
        Queue.iter (fun j -> if j != job then Queue.push j rest) state.jobs;
        Queue.clear state.jobs;
        Queue.transfer rest state.jobs;
        Error (P.Shutting_down, "daemon is shutting down")
      end
    end
  in
  match (queued, !outcome) with
  | Error e, _ -> Error e
  | Ok (), Some (Ok v) -> Ok v
  | Ok (), Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
  | Ok (), None -> assert false

(* Once no session can be queued any more: unpark and join every
   session domain. *)
let close_session_domains state =
  let domains =
    Mutex.protect state.m (fun () ->
        state.closing <- true;
        Condition.broadcast state.work;
        state.domains)
  in
  List.iter Domain.join domains

(* ------------------------------------------------------------------ *)
(* Request handlers                                                    *)
(* ------------------------------------------------------------------ *)

let jint n = Json.Num (float_of_int n)
let jfloat f = Json.Num f
let jstr s = Json.Str s
let jbool b = Json.Bool b

let handle_run state ~op ~sizes =
  let* op_t = build_op op sizes in
  let* r = run_op state.engine state.machine op_t in
  let s = r.stats in
  Ok
    (Json.Obj
       [
         ("op", jstr op);
         ("valid", jbool r.valid);
         ("total_s", jfloat (Stats.total_s s));
         ("h2d_s", jfloat s.Stats.h2d_s);
         ("kernel_s", jfloat s.Stats.kernel_s);
         ("d2h_s", jfloat s.Stats.d2h_s);
         ("host_s", jfloat s.Stats.host_s);
         ("dpus_used", jint s.Stats.dpus_used);
         ("tasklets_used", jint s.Stats.tasklets_used);
       ])

let valid_session_name s =
  s <> "" && s.[0] <> '.'
  && String.length s <= 128
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
         | _ -> false)
       s

let derived_session (t : P.tune_spec) =
  Printf.sprintf "%s-%s-s%d-t%d%s%s" t.op
    (String.concat "x" (List.map string_of_int t.sizes))
    t.seed t.trials
    (match t.measure_ratio with
    | None -> ""
    | Some r -> "-r" ^ Tuning_log.ratio_to_string r)
    (match t.islands with
    | None -> ""
    | Some k -> Printf.sprintf "-k%d" k)

(* A resumed session's re-run made a record its log does not hold. *)
exception Diverged of Tuning_log.session_error

let handle_tune state (t : P.tune_spec) =
  let* op_t = build_op t.op t.sizes in
  let* session =
    match t.session with
    | Some s when not (valid_session_name s) ->
        Error
          ( P.Bad_request,
            Printf.sprintf
              "invalid session name %S (want [A-Za-z0-9._-]+, no leading dot)"
              s )
    | Some s -> Ok s
    | None -> Ok (derived_session t)
  in
  let claimed =
    Mutex.protect state.m (fun () ->
        if Hashtbl.mem state.active_sessions session then begin
          state.ledger.rejected_busy <- state.ledger.rejected_busy + 1;
          false
        end
        else begin
          Hashtbl.replace state.active_sessions session ();
          true
        end)
  in
  if not claimed then
    Error (P.Busy, Printf.sprintf "session %S is already running" session)
  else
    Fun.protect
      ~finally:(fun () ->
        Mutex.protect state.m (fun () ->
            Hashtbl.remove state.active_sessions session))
    @@ fun () ->
    let log_path =
      Filename.concat state.cfg.checkpoint_dir (session ^ ".log")
    in
    let header =
      Tuning_log.session_header ~op_name:t.op ~sizes:t.sizes ~seed:t.seed
        ~trials:t.trials ?measure_ratio:t.measure_ratio
        ~islands:(Option.value t.islands ~default:1)
        ()
    in
    let* log =
      Tuning_log.open_session log_path ~header
      |> Result.map_error (fun e ->
             (P.Bad_request, Tuning_log.session_error_to_string e))
    in
    Fun.protect ~finally:(fun () -> Tuning_log.close_session log) @@ fun () ->
    let resuming = Tuning_log.logged log > 0 in
    let on_boundary records =
      match Tuning_log.append log records with
      | Ok () -> ()
      | Error e -> raise (Diverged e)
    in
    let search () =
      Mutex.protect state.m (fun () ->
          state.ledger.started <- state.ledger.started + 1;
          if resuming then state.ledger.resumed <- state.ledger.resumed + 1);
      Obs.incr "serve.sessions.started";
      if resuming then Obs.incr "serve.sessions.resumed";
      Search.run ~seed:t.seed ?measure_ratio:t.measure_ratio
        ?islands:t.islands ~engine:state.engine ~on_boundary
        ~stop:(fun () -> Atomic.get state.stopping)
        state.machine op_t ~trials:t.trials
    in
    match on_session_domain state search with
    | exception Invalid_argument m -> Error (P.Bad_request, m)
    | exception Diverged e ->
        Error (P.Internal, Tuning_log.session_error_to_string e)
    | Error _ as refused -> refused
    | Ok outcome ->
        Mutex.protect state.m (fun () ->
            if outcome.Search.interrupted then
              state.ledger.interrupted <- state.ledger.interrupted + 1
            else state.ledger.completed <- state.ledger.completed + 1);
        Obs.incr
          (if outcome.Search.interrupted then "serve.sessions.interrupted"
           else "serve.sessions.completed");
        if not outcome.Search.interrupted then (
          try Sys.remove log_path with Sys_error _ -> ());
        let best =
          match outcome.Search.best with
          | None -> Json.Null
          | Some b ->
              Json.Obj
                [
                  ( "params",
                    jstr (Tuning_log.params_to_string b.Measure.params) );
                  ("describe", jstr (Sketch.describe b.Measure.params));
                  ("latency_s", jfloat b.Measure.latency_s);
                ]
        in
        Ok
          (Json.Obj
             [
               ("session", jstr session);
               ("op", jstr t.op);
               ("trials", jint t.trials);
               ("history_len", jint (List.length outcome.Search.history));
               ("history_digest", jstr (P.history_digest outcome));
               ("best", best);
               ("interrupted", jbool outcome.Search.interrupted);
               ( "resumed_from",
                 if resuming then jint (Tuning_log.verified log) else Json.Null
               );
               ("islands", jint outcome.Search.islands);
               ("measured_trials", jint outcome.Search.measured_trials);
               ("cache_hits", jint outcome.Search.cache_hits);
               ("elapsed_s", jfloat outcome.Search.elapsed_s);
             ])

let handle_replay state ~log ~sizes =
  let* r = replay state.engine ~log ~sizes in
  Ok
    (Json.Obj
       [
         ("op", jstr r.op_name);
         ("entries", jint r.entries);
         ("logged_latency_s", jfloat r.best.Tuning_log.latency_s);
         ("remeasured_latency_s", jfloat r.remeasured_s);
         ("params", jstr (Tuning_log.params_to_string r.best.Tuning_log.params));
       ])

let stats_body state =
  let active, queued, l =
    Mutex.protect state.m (fun () ->
        ( state.running,
          Queue.length state.jobs,
          {
            started = state.ledger.started;
            completed = state.ledger.completed;
            interrupted = state.ledger.interrupted;
            resumed = state.ledger.resumed;
            rejected_busy = state.ledger.rejected_busy;
          } ))
  in
  let c = Engine.counters state.engine in
  let p = Pool.stats () in
  let metrics =
    List.filter_map
      (function
        | Obs.Counter (name, v) -> Some (name, jint v)
        | Obs.Gauge (name, v) -> Some (name, jfloat v)
        | Obs.Histogram _ | Obs.Span _ -> None)
      (Obs.metrics ())
  in
  Json.Obj
    [
      ( "engine",
        Json.Obj
          [
            ("lookups", jint c.Engine.lookups);
            ("hits", jint c.Engine.hits);
            ("misses", jint c.Engine.misses);
            ("evictions", jint c.Engine.evictions);
            ("built", jint c.Engine.built);
            ("failed", jint c.Engine.failed);
            ("costed", jint c.Engine.costed);
            ("hit_rate", jfloat (Engine.hit_rate c));
          ] );
      ( "pool",
        Json.Obj
          [
            ("maps", jint p.Pool.maps);
            ("tasks", jint p.Pool.tasks);
            ("busy_s", jfloat p.Pool.busy_s);
            ("domains_spawned", jint p.Pool.domains_spawned);
            ("peak_busy", jint p.Pool.peak_busy);
            ("default_jobs", jint (Pool.default_jobs ()));
          ] );
      ( "sessions",
        Json.Obj
          [
            ("started", jint l.started);
            ("completed", jint l.completed);
            ("interrupted", jint l.interrupted);
            ("resumed", jint l.resumed);
            ("rejected_busy", jint l.rejected_busy);
            ("active", jint active);
            ("queued", jint queued);
          ] );
      ("metrics", Json.Obj metrics);
    ]

let dispatch state req =
  Obs.incr "serve.requests";
  let result =
    match req with
    | P.Hello _ ->
        Error (P.Bad_request, "unexpected hello (version already negotiated)")
    | P.Run { op; sizes } ->
        Obs.incr "serve.requests.run";
        handle_run state ~op ~sizes
    | P.Tune t ->
        Obs.incr "serve.requests.tune";
        handle_tune state t
    | P.Replay { log; sizes } ->
        Obs.incr "serve.requests.replay";
        handle_replay state ~log ~sizes
    | P.Stats ->
        Obs.incr "serve.requests.stats";
        Ok (stats_body state)
    | P.Shutdown ->
        Obs.incr "serve.requests.shutdown";
        Ok (Json.Obj [ ("stopping", jbool true) ])
  in
  match result with
  | Ok body -> P.Resp_ok body
  | Error (code, message) -> P.Resp_error { code; message }

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

let initiate_shutdown state =
  Mutex.protect state.m (fun () ->
      Atomic.set state.stopping true;
      Condition.broadcast state.changed)

let stopping state = Atomic.get state.stopping

let hello_exchange state fd =
  match P.read_frame fd with
  | Ok None -> false
  | Error (code, message) ->
      (try P.send_response fd (P.Resp_error { code; message }) with _ -> ());
      false
  | Ok (Some payload) -> (
      match P.request_of_string payload with
      | Ok (P.Hello v) when v = P.version ->
          P.send_response fd
            (P.Resp_ok
               (Json.Obj
                  [
                    ("version", jint P.version);
                    ("server", jstr "imtp");
                    ("max_frame", jint P.max_frame);
                    ("stopping", jbool (stopping state));
                  ]));
          true
      | Ok (P.Hello v) ->
          P.send_response fd
            (P.Resp_error
               {
                 code = P.Bad_version;
                 message =
                   Printf.sprintf "server speaks protocol version %d, not %d"
                     P.version v;
               });
          false
      | Ok _ ->
          P.send_response fd
            (P.Resp_error
               {
                 code = P.Bad_request;
                 message = "first frame on a connection must be hello";
               });
          false
      | Error (code, message) ->
          (try P.send_response fd (P.Resp_error { code; message })
           with _ -> ());
          false)

(* Between requests the handler polls [select] so a draining daemon
   can close idle connections; a request in flight always gets its
   response first. *)
let handle_conn state fd =
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  try
    if hello_exchange state fd then begin
      let rec loop () =
        match Unix.select [ fd ] [] [] 0.5 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | [], _, _ -> if not (stopping state) then loop ()
        | _ -> (
            match P.read_frame fd with
            | Ok None -> ()
            | Error (code, message) ->
                (try P.send_response fd (P.Resp_error { code; message })
                 with _ -> ())
            | Ok (Some payload) -> (
                match P.request_of_string payload with
                | Error (code, message) ->
                    P.send_response fd (P.Resp_error { code; message });
                    loop ()
                | Ok req ->
                    let resp =
                      try dispatch state req
                      with e ->
                        P.Resp_error
                          {
                            code = P.Internal;
                            message = Printexc.to_string e;
                          }
                    in
                    P.send_response fd resp;
                    (match req with
                    | P.Shutdown -> initiate_shutdown state
                    | _ -> loop ())))
      in
      loop ()
    end
  with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let claim_socket path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      try
        Unix.connect probe (Unix.ADDR_UNIX path);
        true
      with Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then
      Error (Printf.sprintf "%s: a daemon is already listening" path)
    else begin
      (* Stale socket from a killed daemon: reclaim it. *)
      (try Sys.remove path with Sys_error _ -> ());
      Ok ()
    end
  end
  else Ok ()

(* A peer that disappears mid-write must surface as EPIPE (handled at
   each send site), not as a process-killing SIGPIPE. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let run ?machine cfg =
  if cfg.max_sessions < 1 then invalid_arg "Serve.run: max_sessions < 1";
  if cfg.max_sessions > max_sessions_limit then
    invalid_arg
      (Printf.sprintf "Serve.run: max_sessions > %d" max_sessions_limit);
  if cfg.queue_limit < 1 then invalid_arg "Serve.run: queue_limit < 1";
  ignore_sigpipe ();
  mkdir_p cfg.checkpoint_dir;
  match claim_socket cfg.socket with
  | Error m -> Error m
  | Ok () ->
      let state = make_state ?machine cfg in
      Fun.protect ~finally:(fun () -> close_session_domains state) @@ fun () ->
      let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (match Unix.bind lfd (Unix.ADDR_UNIX cfg.socket) with
      | () -> ()
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close lfd with Unix.Unix_error _ -> ());
          failwith (cfg.socket ^ ": " ^ Unix.error_message e));
      (* Sockets answer to whoever can connect — keep it owner-only. *)
      Unix.chmod cfg.socket 0o600;
      Unix.listen lfd 16;
      let conns = ref [] in
      let rec accept_loop () =
        if not (stopping state) then begin
          (match Unix.select [ lfd ] [] [] 0.2 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | [], _, _ -> ()
          | _ -> (
              match Unix.accept lfd with
              | fd, _ ->
                  conns := Thread.create (handle_conn state) fd :: !conns
              | exception Unix.Unix_error _ -> ()));
          accept_loop ()
        end
      in
      accept_loop ();
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      List.iter Thread.join !conns;
      (try Sys.remove cfg.socket with Sys_error _ -> ());
      Ok ()
