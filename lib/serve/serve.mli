(** Tuning-as-a-service: the [imtp serve] daemon.

    One process owns one {!Imtp_engine.Engine} — memo cache, compiled
    executors and the domain pool — and serves any number of clients
    over a Unix-domain socket speaking {!Protocol} frames.  Because
    every session goes through the shared engine, a candidate built
    for one client is a cache hit for every other client tuning the
    same operator: the whole point of serving over re-spawning.

    {b Concurrency.}  Each accepted connection gets a systhread.
    [run]/[replay]/[stats] execute inline on the connection thread;
    [tune] first passes an admission scheduler that caps concurrent
    sessions at [max_sessions], bounds the waiting line at
    [queue_limit] (excess requests are refused with
    {!Protocol.Busy} — backpressure, not unbounded buffering), and
    grants freed slots to waiting {e clients} round-robin, so a client
    that queued fifty tunes cannot starve one that queued one.  An
    admitted session's whole search, log writes included, runs
    on a {e session domain}: the daemon keeps up to [max_sessions] of
    them, spawned on first need, parked between sessions and joined
    before {!run} returns, while the connection thread waits and the
    daemon's own domain stays free for socket I/O.  [max_sessions] is
    therefore the number of searches that run in parallel; above the
    host's core count they oversubscribe it.

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
    daemon stops accepting, asks running searches to stop at their
    next boundary (each logs that boundary's records and answers its
    client with [interrupted = true]), closes drained
    connections, removes the socket and returns. *)

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
