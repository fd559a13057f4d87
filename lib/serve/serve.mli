(** Tuning-as-a-service: the [imtp serve] daemon.

    One process owns one {!Imtp_engine.Engine} — memo cache, compiled
    executors and the domain pool — and serves any number of clients
    over a Unix-domain socket speaking {!Protocol} frames.  Because
    every session goes through the shared engine, a candidate built
    for one client is a cache hit for every other client tuning the
    same operator: the whole point of serving over re-spawning.

    {b Concurrency.}  Each accepted connection gets a systhread and
    carries one request at a time: the daemon answers a request before
    it reads the connection's next frame.  [run]/[replay]/[stats]
    execute inline on the connection thread; a [tune] session joins one
    FIFO queue and runs once every session queued before it has
    started.  At most [max_sessions] sessions run in parallel, each
    with its whole search, log writes included, on a {e session
    domain}: the daemon keeps up to [max_sessions] of them, spawned on
    first need, parked between sessions and joined before {!run}
    returns, while the connection thread waits and the daemon's own
    domain stays free for socket I/O; above the host's core count they
    oversubscribe it.  A tune that would make the queue longer than
    [queue_limit] is refused with {!Protocol.Busy} — backpressure, not
    unbounded buffering — and so is one naming a session that is
    already running.

    {b Session logs.}  Every tune session appends its search records to
    the tuning log [checkpoint_dir/<session>.log] at search boundaries,
    one write per boundary, deletes the file on normal completion, and
    leaves it behind on interruption — a kill −9 included.  The log's
    header line is a pure function of the request, so a later tune
    naming the same session with another request is [bad_request].  The
    same request resumes: it runs the search again, checks every record
    against the logged line ({!Imtp_autotune.Tuning_log.open_session}
    has the contract), and appends the records past them.  A record
    that differs from its logged line is [internal].

    {b Shutdown.}  A [shutdown] request is acknowledged, then the
    daemon stops accepting, answers every tune still queued with
    [shutting_down], asks running searches to stop at their next
    boundary (each logs that boundary's records and answers its client
    with [interrupted = true]), closes drained connections, removes the
    socket and returns.

    {b Requests.}  Running an op and replaying a log are the functions
    below; the one-shot [imtp run|replay|...] commands call them too
    and print as text what the daemon answers as JSON. *)

type config = {
  socket : string;  (** Unix-domain socket path to listen on. *)
  checkpoint_dir : string;
      (** directory for session logs; created if missing. *)
  max_sessions : int;
      (** tune sessions running in parallel, one session domain each
          (1 to {!max_sessions_limit}). *)
  queue_limit : int;
      (** waiting tune requests before refusing with [busy] (>= 1). *)
}

val max_sessions_limit : int
(** 32: session domains plus the {!Imtp_engine.Pool}'s at most 63
    worker domains stay under OCaml's limit of 128 live domains. *)

val default_config : socket:string -> config
(** [checkpoint_dir = "imtp-checkpoints"], [max_sessions = 2],
    [queue_limit = 16]. *)

val run : ?machine:Imtp_upmem.Config.t -> config -> (unit, string) result
(** Run the daemon until a [shutdown] request; blocks the calling
    thread.  [machine] (default {!Imtp_upmem.Config.default}) is the
    simulated machine every session tunes for.  The socket file is
    created mode 0600 (it answers to whoever can connect); a stale
    socket left by a killed daemon is reclaimed, but a {e live} one is
    an [Error] without touching it.
    @raise Invalid_argument on non-positive [config] knobs or
    [max_sessions > max_sessions_limit], before anything is started. *)

(** {2 Requests} *)

type error = Protocol.error_code * string
(** The wire's error code and message of a failed request. *)

val build_op : string -> int list -> (Imtp_workload.Op.t, error) result
(** The named op at the given extents: an unknown name is
    [unknown_op]; a wrong arity or a non-positive extent is
    [bad_request]. *)

type run_result = {
  valid : bool;  (** the executed output equals the reference's. *)
  stats : Imtp_upmem.Stats.t;  (** the modeled latency breakdown. *)
}

val run_op :
  Imtp_engine.Engine.t ->
  Imtp_upmem.Config.t ->
  Imtp_workload.Op.t ->
  (run_result, error) result
(** Build the op's default schedule for the machine on the engine,
    execute it on random inputs and validate it against the reference.
    A build failure is [engine_error]. *)

type replay_result = {
  op_name : string;  (** the op the log's header names. *)
  entries : int;  (** records in the log. *)
  best : Imtp_autotune.Tuning_log.entry;
      (** its best measured record ({!Imtp_autotune.Tuning_log.best}). *)
  remeasured_s : float;  (** that schedule measured again, seconds. *)
}

val replay :
  Imtp_engine.Engine.t ->
  log:string ->
  sizes:int list ->
  (replay_result, error) result
(** Load a tuning log and measure its best record again at the given
    extents.  A missing file is [not_found], an unreadable log
    [bad_request], an op the header names {!build_op}'s error, and a
    log without a measured record or a schedule that does not build
    [engine_error]. *)
