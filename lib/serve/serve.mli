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
    that queued fifty tunes cannot starve one that queued one.

    {b Checkpoints.}  Every tune session checkpoints its search state
    to [checkpoint_dir/<session>.ckpt] at generation boundaries,
    deletes the file on normal completion, and leaves it behind on
    interruption — a kill −9 included.  The file holds two
    digest-checked slots: a save rewrites, in place, the one that does
    not hold the newest valid checkpoint, and a load takes the newest
    valid one, so a kill mid-write leaves the previous checkpoint
    loadable (the first save creates the file by temp file + rename;
    {!Imtp_autotune.Checkpoint} has the layout).  A later tune naming the same session resumes
    from the file and replays the remaining trials bit-identically
    ({!Imtp_autotune.Search.checkpoint} has the contract).

    {b Shutdown.}  A [shutdown] request is acknowledged, then the
    daemon stops accepting, asks running searches to stop at their
    next generation boundary (each emits a final checkpoint and
    answers its client with [interrupted = true]), closes drained
    connections, removes the socket and returns. *)

type config = {
  socket : string;  (** Unix-domain socket path to listen on. *)
  checkpoint_dir : string;
      (** directory for session checkpoints; created if missing. *)
  max_sessions : int;  (** concurrent tune sessions (>= 1). *)
  queue_limit : int;
      (** waiting tune requests before refusing with [busy] (>= 1). *)
  checkpoint_every : int;
      (** checkpoint period in search generations (>= 1). *)
}

val default_config : socket:string -> config
(** [checkpoint_dir = "imtp-checkpoints"], [max_sessions = 2],
    [queue_limit = 16], [checkpoint_every = 1]. *)

val run : ?machine:Imtp_upmem.Config.t -> config -> (unit, string) result
(** Run the daemon until a [shutdown] request; blocks the calling
    thread.  [machine] (default {!Imtp_upmem.Config.default}) is the
    simulated machine every session tunes for.  The socket file is
    created mode 0600 (it answers to whoever can connect); a stale
    socket left by a killed daemon is reclaimed, but a {e live} one is
    an [Error] without touching it.
    @raise Invalid_argument on non-positive [config] knobs. *)
