(** Seeded differential-testing campaigns.

    A campaign derives one sub-seed per case from the campaign seed, so
    any single case can be rebuilt (and re-failed) from [seed] and its
    index alone.  Rejected draws — schedules the lowering refuses — are
    redrawn a bounded number of times and counted, never treated as
    failures. *)

type coverage = {
  split : int;
  reorder : int;
  bind : int;
  rfactor : int;
  unroll : int;
  parallel : int;
  cache_read : int;
  cache_write : int;
}
(** How many checked cases exercised each schedule primitive.
    [cache_read] counts [cache_read]+[compute_at] pairs and
    [cache_write] counts [cache_write]+[reverse_compute_at] pairs,
    since the generator always emits them together. *)

type outcome = {
  cases : int;  (** cases actually checked (excludes rejected draws). *)
  rejected : int;  (** draws discarded because lowering refused them. *)
  configs_checked : int;  (** total (case, pass-config) pairs compared. *)
  coverage : coverage;
  failures : (int * Oracle.case * Oracle.failure) list;
      (** (case index, minimized case, failure), oldest first. *)
}

val case_of_seed : seed:int -> index:int -> Oracle.case option
(** Draw the case a campaign with [seed] would check at [index]:
    redraws on rejection like {!run} does, [None] if every redraw was
    rejected. *)

val run :
  ?jobs:int ->
  ?progress:(int -> unit) ->
  ?shrink:bool ->
  seed:int ->
  cases:int ->
  unit ->
  outcome
(** Run a campaign of [cases] checked cases, distributed over up to
    [jobs] worker domains (default {!Imtp_engine.Pool.default_jobs});
    every case is fully determined by [(seed, index)], so failures,
    coverage and counts are identical at any job count.  [progress] is
    called with each finished case index (serialized, but not
    necessarily in index order when [jobs > 1]).  Failing cases are minimized with {!Shrink.minimize}
    unless [shrink] is [false]. *)

val report_failure : int -> Oracle.case -> Oracle.failure -> string
(** A self-contained reproducer: case seed and index, workload,
    surviving schedule steps, the replayed schedule trace, the failure,
    and the unoptimized lowered program. *)

val summary : seed:int -> outcome -> string
(** One-paragraph campaign summary followed by reproducers for every
    failure. *)
