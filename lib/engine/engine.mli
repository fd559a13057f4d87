(** The build/measure engine: one cached, batched code path from a
    schedule candidate to its latency statistics.

    Every consumer of the compilation pipeline — the measurement
    harness, the evolutionary search, the tuner, the differential
    fuzzer and the CLI — goes through this module, so the staged
    pipeline

    {v params -> sched -> lowered program -> pass-optimized program -> stats v}

    exists exactly once.  Results are memoized in a table keyed by the
    operator ({!op_key}), the sketch parameters, the pass
    configuration, the resident inputs and the verify toggle, so
    repeated candidates (common under mutation-based evolutionary
    search) are served from cache instead of being re-lowered and
    re-costed.  Failures are typed (and cached too, so a re-proposed
    invalid candidate is rejected without recompilation).

    The table holds one entry per key: the candidate's {!prepared}
    prefix (or its error), with the model features and the simulator's
    outcome once computed, and the key's own measurement once taken.  {!build}, {!measure} and
    {!batch} are {!prepare} / {!prepare_batch} followed by the cost
    stage on the same entry.

    {2 Prefix sharing}

    Many parameter settings instantiate to the same schedule: the
    sketch clamps tasklets and caching tiles to the per-DPU slice, and
    [host_threads] only matters to a host reduction over spatial DPU
    blocks.  A second index, keyed by the candidate's canonical tiling
    ({!Sketch.canonical}) with the same pass configuration, resident
    inputs and verify toggle, points at the prefix each entry holds.
    A new key whose canonical key is indexed files an entry on that
    prefix and builds nothing: it counts as a hit ([shared]), so
    [misses = built + failed] prefixes.  Features and the simulator's
    outcome go with the prefix, so the cost stage runs once per tiling;
    [costed] still counts one measurement per key measured, as
    hardware would take one per candidate, so every counter and ledger
    reads as without sharing.

    A prefix build, a prefix's simulation or a key's measurement runs
    at most once: a requester that finds one in flight on another
    domain waits for it instead of repeating it, so [built] and
    [costed] do not depend on thread timing.

    {2 Thread safety and parallel batches}

    An engine is domain-safe: one mutex guards the memo table, the
    prefix index and the counters, and all stage work runs outside it,
    so a batch can dispatch candidates across a {!Pool} of worker domains
    ([?jobs], default {!Pool.default_jobs}).  Parallelism never changes
    answers: a batch looks every slot up in list order under the lock
    before any work starts (a later duplicate of a key finds the entry
    an earlier slot filed, and is a hit), draws one value from the
    caller's [rng] and gives candidate [i] the derived stream
    [Rng.stream ~base ~index:i], so results, order, latencies and the
    integer counters are identical at any job count, and [~jobs:1]
    runs the same path inline on the calling domain with no domains
    spun up. *)

(** Why a candidate failed to build, stage by stage. *)
type error =
  | Sketch_invalid of string
      (** {!Sketch.instantiate} rejected the parameters. *)
  | Verifier_rejected of Verifier.rejection
      (** the UPMEM code verifier rejected the schedule or program. *)
  | Lower_failed of string  (** lowering refused the schedule. *)
  | Cost_failed of string  (** the timing model could not evaluate. *)

val error_to_string : error -> string
(** Stable one-line rendering, prefixed by the failing stage
    (["sketch: ..."], ["verifier: ..."], ["lower: ..."], ["cost: ..."]). *)

type artifact = {
  program : Imtp_tir.Program.t;  (** after the PIM-aware passes. *)
  stats : Imtp_upmem.Stats.t;  (** deterministic latency breakdown. *)
}
(** What the staged pipeline keeps of one candidate: the program its
    callers execute and the statistics they rank it by. *)

type measurement = {
  artifact : artifact;
  latency_s : float;
      (** the tuning objective: [Stats.total_s artifact.stats], with
          multiplicative measurement noise when an [rng] was given. *)
}

type prepared = {
  pkey : string;  (** the cache key of the candidate's entry. *)
  pprogram : Imtp_tir.Program.t;  (** after the PIM-aware passes. *)
}
(** Everything the pipeline produces {e before} the cost stage — the
    cheap prefix (sketch, verify, lower, passes) whose lowered TIR the
    learned cost model's feature extraction walks.  {!simulate} turns a
    prepared candidate into a full {!measurement} on demand; candidates
    a ranking model skips never pay for the simulator. *)

type counters = {
  lookups : int;
      (** candidate requests: one per {!prepare}, {!build}, {!measure}
          and batch slot.  {!simulate} continues a request already
          counted and is not a lookup. *)
  hits : int;
      (** lookups whose key already had an entry, or that filed a new
          entry on an existing prefix ([shared]). *)
  misses : int;
      (** lookups that filed an entry on a new prefix:
          [misses = built + failed] minus failed measurements. *)
  shared : int;
      (** the hits that filed a new entry on the prefix of a
          canonical-equal candidate: builds the prefix index saved. *)
  evictions : int;
      (** table resets: a full table (4096 keys) is reset rather than
          grown. *)
  built : int;  (** prepared prefixes constructed. *)
  failed : int;
      (** typed errors constructed (and cached): failed prefixes and
          measurements. *)
  costed : int;
      (** measurements: exactly one per measured entry, though entries
          sharing a prefix share one run of the cost stage.
          Measurement gating is judged against this ledger — a gated
          search must show the same best latency with far fewer
          [costed]. *)
}
(** The engine's cache ledger.  Stage wall-clock times are not kept
    here: every stage run is an [engine.<stage>] span and one
    observation of the [engine.stage.<stage>_s] histogram
    ({!Imtp_obs.Obs}). *)

type ledger
(** One caller's own share of {!counters}: the [hits] of the lookups
    it made and the [costed] measurements its calls took.  A search
    passes one to every {!prepare}, {!prepare_batch} and {!simulate}
    call, so runs sharing an engine (the daemon's concurrent sessions)
    each count only their own work.  A run that found a measurement in
    flight for another caller waits for it and charges nothing; alone on an engine, a caller's ledger equals the
    engine's [hits] and [costed] deltas.  Domain-safe. *)

val ledger : unit -> ledger
(** A ledger at zero. *)

val ledger_hits : ledger -> int
val ledger_costed : ledger -> int

type t
(** An engine instance: one machine configuration plus its memo table
    and counters.  Create a fresh engine per independent search run for
    run-local deduplication, or share one across runs to reuse builds. *)

val create : Imtp_upmem.Config.t -> t
(** The memo table holds up to 4096 keys — a candidate prepared and
    then simulated takes one; the next new key resets it (counted in
    [evictions]), the prefix index with it. *)

val counters : t -> counters
(** A consistent snapshot, taken under the engine lock — safe to diff
    against a later snapshot even while worker domains are updating. *)

val hit_rate : counters -> float
(** [hits / lookups], 0 when no lookups. *)

val noise_amplitude : float
(** Relative measurement noise (±2 %) applied when an [rng] is given. *)

(** {2 Canonical structural hashing} *)

val op_key : Imtp_workload.Op.t -> string
(** Canonical serialization of an operator definition (name, dtype,
    axes, tensor bindings, element expression). *)

(** {2 The staged pipeline} *)

val compile_sched :
  ?options:Imtp_lower.Lowering.options ->
  ?passes:Imtp_passes.Pipeline.config ->
  Imtp_upmem.Config.t ->
  Imtp_schedule.Sched.t ->
  (Imtp_tir.Program.t, error) result
(** Uncached schedule-level entry: lower, then run the passes.  No
    verification — this is the facade ([Imtp.compile]) path. *)

val lower :
  ?options:Imtp_lower.Lowering.options ->
  Imtp_schedule.Sched.t ->
  (Imtp_tir.Program.t, error) result
(** Uncached raw lowering, traced as an [engine.lower] span — for
    schedules that do not come from sketch parameters, e.g. the fuzz
    oracle's replayed step lists. *)

val estimate :
  Imtp_upmem.Config.t -> Imtp_tir.Program.t -> (Imtp_upmem.Stats.t, error) result
(** Uncached cost-model entry ([Cost_failed] instead of an exception). *)

val optimize :
  Imtp_upmem.Config.t ->
  ?passes:Imtp_passes.Pipeline.config ->
  Imtp_tir.Program.t ->
  Imtp_tir.Program.t
(** Run the pass pipeline, traced as an [engine.passes] span. *)

val build :
  t ->
  ?passes:Imtp_passes.Pipeline.config ->
  ?skip_inputs:string list ->
  ?verify:bool ->
  Imtp_workload.Op.t ->
  Sketch.params ->
  (artifact, error) result
(** {!prepare} one candidate, then run the cost stage on it unless its
    entry already holds a cost outcome.  [verify] (default [true]) may
    be disabled for experiments that deliberately sweep beyond
    hardware limits. *)

val measure :
  t ->
  ?rng:Rng.t ->
  ?passes:Imtp_passes.Pipeline.config ->
  ?skip_inputs:string list ->
  ?verify:bool ->
  Imtp_workload.Op.t ->
  Sketch.params ->
  (measurement, error) result
(** {!build} plus the measurement objective.  [rng] draws fresh ±2 %
    multiplicative noise per call — also on cache hits, modelling
    run-to-run variation of a real re-measurement — while the cached
    [stats] stay bit-identical. *)

val execute :
  Imtp_tir.Program.t ->
  inputs:(string * Imtp_tensor.Tensor.t) list ->
  (string * Imtp_tensor.Tensor.t) list * Imtp_tir.Eval.counters
(** Run a built program on its functional executor ({!Imtp_tir.Exec},
    compiled by default, the interpreter under [IMTP_EXEC=interp]),
    inside an [engine.execute] span whose [executor] attribute records
    which backend served the run. *)

val batch :
  t ->
  ?jobs:int ->
  ?rng:Rng.t ->
  ?passes:Imtp_passes.Pipeline.config ->
  ?skip_inputs:string list ->
  ?verify:bool ->
  Imtp_workload.Op.t ->
  Sketch.params list ->
  (Sketch.params * (measurement, error) result) list
(** {!prepare_batch}, then the measurement of every key the batch
    holds that has none yet — once per key, in the first slot holding
    it (the cost stage once per prefix), on
    the same pool dispatch (up to [jobs] domains, default
    {!Pool.default_jobs}; [~jobs:1] stays on the calling domain).
    Results keep candidate order and are bit-identical at any job
    count.  With an [rng], exactly one value is drawn from it per
    call and candidate [i]'s ±2 % noise comes from
    [Rng.stream ~base ~index:i] (see the determinism contract above).
    The [engine.batch] span records [jobs], [hits], [misses], [shared],
    [domains_used] and a per-domain [utilization] breakdown. *)

(** {2 The prepared (cost-free) prefix}

    The measurement-gated search builds every candidate only up to the
    optimized program ({!prepare}/{!prepare_batch}), extracts model
    features from that TIR, and pays for the cost stage ({!simulate})
    only on the fraction the model ranks worth measuring. *)

val prepare :
  t ->
  ?ledger:ledger ->
  ?passes:Imtp_passes.Pipeline.config ->
  ?skip_inputs:string list ->
  ?verify:bool ->
  Imtp_workload.Op.t ->
  Sketch.params ->
  (prepared, error) result
(** The candidate's entry prefix: one lookup, and on a miss the
    sketch, verify, lower and passes stages (unless a canonical-equal
    candidate's prefix is shared), without the cost stage.  Cache-hit,
    shared and fresh-built candidates yield the same program, hence
    bit-identical features.  The [engine.prepare] span records [hit],
    [shared] and [ok]. *)

val prepare_batch :
  t ->
  ?ledger:ledger ->
  ?jobs:int ->
  ?passes:Imtp_passes.Pipeline.config ->
  ?skip_inputs:string list ->
  ?verify:bool ->
  Imtp_workload.Op.t ->
  Sketch.params list ->
  (Sketch.params * (prepared, error) result) list
(** Prepare a whole generation across up to [jobs] domains, under the
    determinism contract above (one lookup per slot, in list order):
    results, order and the hit/miss ledger are bit-identical at any job
    count.  Draws nothing from any rng — ranking a population must
    leave the caller's noise stream untouched.  The
    [engine.prepare_batch] span records [hits], [misses] and [shared]
    besides the pool telemetry of {!batch}. *)

val features : t -> prepared -> float array
(** [Features.of_program p.pprogram], memoized with the prefix of
    [p.pkey]'s entry: the vector is a pure function of the program, so
    a memoized one — also one extracted for a canonical-equal
    candidate — is bit-identical to a fresh extraction.  It takes no slot of its own,
    goes with its entry on eviction and leaves {!counters} untouched.
    The returned array is shared with the entry: callers must not
    mutate it. *)

val simulate :
  t -> ?ledger:ledger -> ?rng:Rng.t -> prepared -> (measurement, error) result
(** Run the cost stage on a prepared candidate (or serve its entry's
    cost outcome) and apply the measurement objective, with the same
    ±2 % noise semantics as {!measure}.  Not a lookup: the request was
    counted by the {!prepare} that produced [p].  Each uncached call is
    one measurement, counted in [counters.costed], whose simulator run
    is shared with the entries of [p]'s prefix; concurrent calls on one
    entry take it once. *)
