(** A persistent [Domain]-based worker pool for parallel candidate
    evaluation.

    One process-global pool is created lazily on the first parallel
    {!map} and grown to the largest job count ever requested; worker
    domains park on a condition variable between jobs, and an [at_exit]
    hook shuts them down so the process never hangs on live domains.
    Each call gates participation to [jobs] domains (the submitting
    thread counts as one), so [~jobs:2] uses exactly two even when the
    pool holds more.

    Multiple jobs may be in flight at once: submissions append to a
    queue, and idle workers claim tasks from whichever queued job still
    has unclaimed work and participation tickets.  Concurrent
    submitters (the serving daemon's sessions) therefore overlap their
    batches instead of serializing them.  A
    task that itself calls {!map} submits a nested job; since every
    submitter participates in its own job, nested maps always progress
    and cannot deadlock the queue. *)

val default_jobs : unit -> int
(** The effective job count when a caller doesn't pass one explicitly:
    the {!set_default_jobs} override if set, else a positive integer
    [IMTP_JOBS] from the environment, else
    [Domain.recommended_domain_count ()]; always clamped to [1, 64]. *)

val set_default_jobs : int -> unit
(** Override {!default_jobs} for the rest of the process (the CLI's
    [-j]/[--jobs] flag).  Clamped to [1, 64]. *)

val map : jobs:int -> (int -> 'a) -> int -> 'a array
(** [map ~jobs f n] computes [[| f 0; ...; f (n-1) |]] with up to
    [jobs] participants claiming task indices from a shared atomic
    counter.  [~jobs:1] runs the plain sequential loop on the calling
    thread — no domains are spun up.  If any [f i] raises, the
    exception from the smallest such index is re-raised after all
    claimed tasks finish; [f] must be domain-safe when [jobs > 1]. *)

val map_stats : jobs:int -> (int -> 'a) -> int -> 'a array * (int * float) array
(** Like {!map}, also returning one [(tasks_run, busy_seconds)] entry
    per participant that ran at least one task — the raw material for
    utilization telemetry.  Every non-empty call also publishes the
    [pool.utilization] gauge: summed participant busy time over
    [wall_clock * jobs], i.e. how much of the requested parallelism the
    map actually used. *)

(** {2 Cumulative ledger} *)

type stats = {
  maps : int;  (** non-empty {!map}/{!map_stats} calls so far. *)
  tasks : int;  (** tasks run across all of them. *)
  busy_s : float;  (** summed per-worker busy seconds. *)
  domains_spawned : int;  (** worker domains ever spawned (≤ 63). *)
  peak_busy : int;
      (** highest number of map participants (worker domains plus
          submitting threads, inline runs included) ever busy at the
          same instant — the pool's observed peak concurrency. *)
}
(** Process-lifetime pool activity.  Monotonic — never reset. *)

val stats : unit -> stats
(** A consistent snapshot of the ledger.  Safe to call from any thread
    at any time, including while a job is in flight (in-flight work is
    counted when its map returns) — the serving daemon's [stats]
    endpoint reads this. *)
