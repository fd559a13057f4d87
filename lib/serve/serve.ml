(* Tuning-as-a-service daemon.  One process owns one Engine (memo
   cache + compiled-executor cache + domain pool) and serves any
   number of clients over a Unix-domain socket speaking Protocol
   frames.  Connections get a systhread each; tune sessions pass
   through an admission scheduler (bounded queue, per-client
   round-robin) before they may run, each admitted search runs on a
   session domain of its own, and every session checkpoints to disk at
   generation boundaries so a killed daemon resumes bit-identically. *)

module Obs = Imtp_obs.Obs
module Json = Obs.Json
module Engine = Imtp_engine.Engine
module Pool = Imtp_engine.Pool
module Search = Imtp_autotune.Search
module Checkpoint = Imtp_autotune.Checkpoint
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
  checkpoint_every : int;
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
    checkpoint_every = 1;
  }

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

(* The session domains: up to [max_sessions] of them, spawned on first
   need and parked on [work] between sessions.  A domain takes the
   oldest posted job; [idle] counts the domains waiting on [work]. *)
type runner = {
  rm : Mutex.t;
  work : Condition.t;
  jobs : (unit -> unit) Queue.t;
  mutable idle : int;
  mutable domains : unit Domain.t list;
  mutable closing : bool;
}

type state = {
  cfg : config;
  machine : Imtp_upmem.Config.t;
  engine : Engine.t;
  m : Mutex.t;
  cv : Condition.t;
  stopping : bool Atomic.t;  (* polled by searches on session domains *)
  runner : runner;
  (* Admission scheduler: [queues] maps a client id to its waiting
     tickets in arrival order; [order] cycles the clients that have at
     least one waiting ticket; [granted] holds tickets whose waiters
     may proceed.  A client appears in [order] at most once, and goes
     to the back after each grant — per-client round-robin. *)
  mutable running : int;
  mutable queued : int;
  queues : (int, int Queue.t) Hashtbl.t;
  order : int Queue.t;
  granted : (int, unit) Hashtbl.t;
  mutable next_ticket : int;
  active_sessions : (string, unit) Hashtbl.t;
  ledger : ledger;
}

let make_state ?(machine = Imtp_upmem.Config.default) cfg =
  {
    cfg;
    machine;
    engine = Engine.create machine;
    m = Mutex.create ();
    cv = Condition.create ();
    stopping = Atomic.make false;
    runner =
      {
        rm = Mutex.create ();
        work = Condition.create ();
        jobs = Queue.create ();
        idle = 0;
        domains = [];
        closing = false;
      };
    running = 0;
    queued = 0;
    queues = Hashtbl.create 16;
    order = Queue.create ();
    granted = Hashtbl.create 16;
    next_ticket = 0;
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

let rec session_domain r =
  Mutex.lock r.rm;
  while Queue.is_empty r.jobs && not r.closing do
    r.idle <- r.idle + 1;
    Condition.wait r.work r.rm;
    r.idle <- r.idle - 1
  done;
  let job = Queue.take_opt r.jobs in
  Mutex.unlock r.rm;
  match job with
  | None -> ()
  | Some job ->
      job ();
      session_domain r

(* [f ()] on a session domain; the calling thread waits on the job's
   own condition, which releases this domain for other threads.  A
   domain is spawned when the job would find no idle domain free, up
   to [limit]; admission keeps the jobs in flight within that bound,
   and a job posted before a finishing domain parks again is taken by
   it.
   [f]'s exception, if any, is re-raised here with its backtrace. *)
let on_session_domain r ~limit f =
  let m = Mutex.create () and finished = Condition.create () in
  let result = ref None in
  let job () =
    let outcome =
      match f () with
      | v -> Ok v
      | exception e -> Error (e, Printexc.get_raw_backtrace ())
    in
    Mutex.protect m (fun () ->
        result := Some outcome;
        Condition.signal finished)
  in
  Mutex.protect r.rm (fun () ->
      (* Spawned first, so a failed spawn leaves no orphan job. *)
      if Queue.length r.jobs >= r.idle && List.length r.domains < limit then
        r.domains <- Domain.spawn (fun () -> session_domain r) :: r.domains;
      Queue.push job r.jobs;
      Condition.signal r.work);
  let rec await () =
    match !result with
    | Some outcome -> outcome
    | None ->
        Condition.wait finished m;
        await ()
  in
  match Mutex.protect m await with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

(* Once no session can be posted any more: unpark and join every
   session domain. *)
let close_runner r =
  let domains =
    Mutex.protect r.rm (fun () ->
        r.closing <- true;
        Condition.broadcast r.work;
        r.domains)
  in
  List.iter Domain.join domains

(* ------------------------------------------------------------------ *)
(* Admission scheduling (all under [state.m])                          *)
(* ------------------------------------------------------------------ *)

let rec pump state =
  if state.running < state.cfg.max_sessions && not (Queue.is_empty state.order)
  then begin
    let c = Queue.pop state.order in
    (match Hashtbl.find_opt state.queues c with
    | None -> ()
    | Some q ->
        let ticket = Queue.pop q in
        if Queue.is_empty q then Hashtbl.remove state.queues c
        else Queue.push c state.order;
        Hashtbl.replace state.granted ticket ();
        state.running <- state.running + 1;
        state.queued <- state.queued - 1);
    Condition.broadcast state.cv;
    pump state
  end

let withdraw state client ticket =
  match Hashtbl.find_opt state.queues client with
  | None -> ()
  | Some q ->
      let keep = Queue.create () in
      Queue.iter
        (fun t -> if t <> ticket then Queue.push t keep else state.queued <- state.queued - 1)
        q;
      if Queue.is_empty keep then Hashtbl.remove state.queues client
      else Hashtbl.replace state.queues client keep

let acquire state client =
  Mutex.lock state.m;
  let r =
    if Atomic.get state.stopping then
      Error (P.Shutting_down, "daemon is shutting down")
    else if state.queued >= state.cfg.queue_limit then begin
      state.ledger.rejected_busy <- state.ledger.rejected_busy + 1;
      Error
        ( P.Busy,
          Printf.sprintf "tune queue is full (%d waiting, limit %d)"
            state.queued state.cfg.queue_limit )
    end
    else begin
      let ticket = state.next_ticket in
      state.next_ticket <- ticket + 1;
      (match Hashtbl.find_opt state.queues client with
      | Some q -> Queue.push ticket q
      | None ->
          let q = Queue.create () in
          Queue.push ticket q;
          Hashtbl.replace state.queues client q;
          Queue.push client state.order);
      state.queued <- state.queued + 1;
      pump state;
      while
        (not (Hashtbl.mem state.granted ticket)) && not (Atomic.get state.stopping)
      do
        Condition.wait state.cv state.m
      done;
      if Hashtbl.mem state.granted ticket then begin
        Hashtbl.remove state.granted ticket;
        Ok ()
      end
      else begin
        withdraw state client ticket;
        Error (P.Shutting_down, "daemon is shutting down")
      end
    end
  in
  Mutex.unlock state.m;
  r

let release state =
  Mutex.lock state.m;
  state.running <- state.running - 1;
  pump state;
  Condition.broadcast state.cv;
  Mutex.unlock state.m

(* ------------------------------------------------------------------ *)
(* Request handlers                                                    *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind
let jint n = Json.Num (float_of_int n)
let jfloat f = Json.Num f
let jstr s = Json.Str s
let jbool b = Json.Bool b

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

let handle_run state ~op ~sizes =
  let* op_t = build_op op sizes in
  match Engine.build state.engine op_t (Sketch.default_for state.machine op_t) with
  | Error e -> Error (P.Engine_error, Engine.error_to_string e)
  | Ok art ->
      let inputs = Ops.random_inputs op_t in
      let outs, _ = Engine.execute art.Engine.program ~inputs in
      let got = List.assoc (fst op_t.Op.output) outs in
      let want = Op.reference op_t inputs in
      let valid = Imtp_tensor.Tensor.same_values got want in
      let s = art.Engine.stats in
      Ok
        (Json.Obj
           [
             ("op", jstr op);
             ("valid", jbool valid);
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
    | Some r -> Printf.sprintf "-r%.0f" (100. *. r))
    (match t.islands with
    | None -> ""
    | Some k -> Printf.sprintf "-k%d" k)

let handle_tune state ~client (t : P.tune_spec) =
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
    let ckpt_path =
      Filename.concat state.cfg.checkpoint_dir (session ^ ".ckpt")
    in
    let* resume =
      if Sys.file_exists ckpt_path then
        match Checkpoint.load ckpt_path with
        | Ok ck -> Ok (Some ck)
        | Error m -> Error (P.Internal, m)
      else Ok None
    in
    let* () = acquire state client in
    Fun.protect ~finally:(fun () -> release state)
    @@ fun () ->
    Mutex.protect state.m (fun () ->
        state.ledger.started <- state.ledger.started + 1;
        if resume <> None then state.ledger.resumed <- state.ledger.resumed + 1);
    Obs.incr "serve.sessions.started";
    if resume <> None then Obs.incr "serve.sessions.resumed";
    let writer = Checkpoint.writer ckpt_path in
    match
      Fun.protect ~finally:(fun () -> Checkpoint.close writer) @@ fun () ->
      on_session_domain state.runner ~limit:state.cfg.max_sessions (fun () ->
          Search.run ~seed:t.seed ?measure_ratio:t.measure_ratio
            ?islands:t.islands ~engine:state.engine ?resume
            ~on_checkpoint:(Checkpoint.write writer)
            ~checkpoint_every:state.cfg.checkpoint_every
            ~stop:(fun () -> Atomic.get state.stopping)
            state.machine op_t ~trials:t.trials)
    with
    | exception Invalid_argument m -> Error (P.Bad_request, m)
    | outcome ->
        Mutex.protect state.m (fun () ->
            if outcome.Search.interrupted then
              state.ledger.interrupted <- state.ledger.interrupted + 1
            else state.ledger.completed <- state.ledger.completed + 1);
        Obs.incr
          (if outcome.Search.interrupted then "serve.sessions.interrupted"
           else "serve.sessions.completed");
        if not outcome.Search.interrupted then (
          try Sys.remove ckpt_path with Sys_error _ -> ());
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
                 match outcome.Search.resumed_from with
                 | None -> Json.Null
                 | Some k -> jint k );
               ("islands", jint outcome.Search.islands);
               ("measured_trials", jint outcome.Search.measured_trials);
               ("cache_hits", jint outcome.Search.cache_hits);
               ("elapsed_s", jfloat outcome.Search.elapsed_s);
             ])

let handle_replay state ~log ~sizes =
  if not (Sys.file_exists log) then Error (P.Not_found, log ^ ": no such file")
  else
    match Tuning_log.load log with
    | Error m -> Error (P.Bad_request, m)
    | Ok (hdr, entries) -> (
        let op_name = hdr.Tuning_log.op_name in
        let* op_t = build_op op_name sizes in
        match Tuning_log.best entries with
        | None -> Error (P.Engine_error, log ^ ": no measured entries")
        | Some e -> (
            match Engine.measure state.engine op_t e.Tuning_log.params with
            | Error err -> Error (P.Engine_error, Engine.error_to_string err)
            | Ok m ->
                Ok
                  (Json.Obj
                     [
                       ("op", jstr op_name);
                       ("entries", jint (List.length entries));
                       ("logged_latency_s", jfloat e.Tuning_log.latency_s);
                       ("remeasured_latency_s", jfloat m.Engine.latency_s);
                       ( "params",
                         jstr (Tuning_log.params_to_string e.Tuning_log.params)
                       );
                     ])))

let stats_body state =
  let active, queued, l =
    Mutex.protect state.m (fun () ->
        ( state.running,
          state.queued,
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

let dispatch state ~client req =
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
        handle_tune state ~client t
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
  Mutex.lock state.m;
  Atomic.set state.stopping true;
  Condition.broadcast state.cv;
  Mutex.unlock state.m

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
let handle_conn state fd client =
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
                      try dispatch state ~client req
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
  if cfg.checkpoint_every < 1 then invalid_arg "Serve.run: checkpoint_every < 1";
  ignore_sigpipe ();
  mkdir_p cfg.checkpoint_dir;
  match claim_socket cfg.socket with
  | Error m -> Error m
  | Ok () ->
      let state = make_state ?machine cfg in
      Fun.protect ~finally:(fun () -> close_runner state.runner) @@ fun () ->
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
      let next_client = ref 0 in
      let rec accept_loop () =
        if not (stopping state) then begin
          (match Unix.select [ lfd ] [] [] 0.2 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | [], _, _ -> ()
          | _ -> (
              match Unix.accept lfd with
              | fd, _ ->
                  let client = !next_client in
                  incr next_client;
                  conns :=
                    Thread.create (fun () -> handle_conn state fd client) ()
                    :: !conns
              | exception Unix.Unix_error _ -> ()));
          accept_loop ()
        end
      in
      accept_loop ();
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      List.iter Thread.join !conns;
      (try Sys.remove cfg.socket with Sys_error _ -> ());
      Ok ()
