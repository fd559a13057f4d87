(** Balanced evolutionary search (§5.2.3), optionally measurement-gated
    by a learned cost model over lowered TIR ({!Cost_learn}), sharded
    island-model style across the domain pool.

    The joint host+kernel space contains two design-space families —
    with and without [rfactor] — whose early measurements differ
    systematically (inter-DPU parallelism dominates), biasing a plain
    evolutionary search toward the rfactor family and prematurely
    dropping the other.  Two countermeasures, individually toggleable
    for the Fig. 13 ablation:

    - {b balanced sampling}: during the first 40 % of trials the
      parent pool takes equal proportions of top candidates from both
      families;
    - {b adaptive ε-greedy}: the exploration rate starts at 0.5 and
      decays linearly to 0.05 over the first 40 % of trials (a plain
      search uses 0.05 throughout).

    Candidates are built and costed through {!Imtp_engine.Engine} in
    one loop: each generation is prepared as one engine batch
    ({!Imtp_engine.Engine.prepare_batch}), the candidates not measured
    before are selected, and the selected ones are simulated on the
    pool ({!Imtp_engine.Engine.simulate}).  Duplicate proposals (common
    under mutation) are served from the engine's content-addressed
    cache instead of being re-lowered.

    {2 Islands}

    With [islands = k > 1] the trial budget splits across [k]
    sub-populations ("islands"), each evolving independently on its own
    thread with its own deterministic rng substream
    ([Rng.stream ~base:seed ~index:island]).  Islands step generations
    {e asynchronously} — there is no global per-generation barrier —
    and rendezvous only every 2 generations at a
    {e migration boundary}, where each island:

    - publishes its population (the ring successor's migration source),
    - merges its epoch's model observations into the one shared
      {!Cost_learn} model (folded in deterministic (boundary, island)
      order by whichever island reaches the boundary first) and adopts
      a copy of the merged model,
    - imports the top {e elites} of its ring predecessor
      (island [(i+k-1) mod k]) into its population.

    Determinism contract: for a fixed [islands] value the outcome is a
    pure function of the seed — [~islands:k ~jobs:n] is bit-identical
    to [~islands:k ~jobs:1], because every island's evolution depends
    only on its own substream and on snapshots exchanged at fixed
    boundaries.  One island runs through the same loop with a boundary
    after every generation (there is nothing to migrate) and the
    historical [Rng.create ~seed] stream, so it reproduces pre-island
    traces byte-for-byte.  Note that {e different} island counts are
    different searches.  [islands] defaults to 1, never to the job
    count or to anything in the environment, so a default search is the
    same on every host.

    {2 Measurement gating}

    With [measure_ratio = Some r], the selection step ranks the
    prepared candidates (built up to the optimized program, no
    simulator) by the online {!Cost_learn} model, and only the top
    [ceil (r * n)] are forwarded to the simulator; the rest join the
    population and the history carrying their predicted cost.
    The model refits from the accumulated measured trials once per
    generation.  Gating is a pure function of the trial history and the
    seed — preparation draws no randomness, ranking is stable with ties
    broken by proposal order, and measured-noise streams are indexed by
    proposal slot exactly as in {!Imtp_engine.Engine.batch} — so
    [~jobs:n] equivalence and log replay are preserved.  With
    [measure_ratio = None] (the default) every candidate not measured
    before is selected and no model features are extracted. *)

type strategy = { balanced_sampling : bool; adaptive_epsilon : bool }

val tvm_default : strategy
(** Neither technique (baseline evolutionary search). *)

val imtp_default : strategy
(** Both techniques. *)

type record = {
  trial : int;
      (** 0-based trial index the candidate was proposed at, local to
          its island. *)
  island : int;  (** which island proposed it (0 when [islands = 1]). *)
  params : Sketch.params;  (** the candidate. *)
  latency_s : float;
      (** its (noisy) measured latency — or, for a gated-out candidate
          ([measured = false]), the model's predicted latency. *)
  best_so_far : float;
      (** running best {e measured} latency on the proposing island,
          inclusive. *)
  measured : bool;
      (** whether the simulator actually ran for this record (always
          [true] in an ungated search). *)
  predicted_s : float option;
      (** the model's predicted latency at ranking time, when a trained
          model scored this candidate (for measured trials this is the
          prediction {e before} measurement — the gate's audit trail). *)
}
(** One trial, as recorded in the search history (and in
    {!Tuning_log} files). *)

type island_stats = {
  island : int;
  island_trials : int;  (** trials this island consumed. *)
  island_generations : int;
  island_measured : int;
  island_skipped : int;
  island_invalid : int;
  island_migrations : int;  (** elites imported from the ring. *)
  island_best_s : float option;  (** island-local best measured latency. *)
}
(** Per-island tallies, reported in {!outcome.per_island}. *)

type outcome = {
  best : Measure.result option;  (** best measured candidate, if any. *)
  history : record list;
      (** chronological within each island, islands concatenated in
          index order (with [islands = 1]: plain chronological). *)
  invalid_candidates : int;  (** candidates rejected by the verifier. *)
  rejections : (string * int) list;
      (** rejection tally grouped by verifier constraint name
          ([dpus]/[tasklets]/[mram]/[wram]/[iram]/[dma]) or failing
          engine stage ([sketch]/[lower]/[cost]), sorted by count
          descending; sums to [invalid_candidates]. *)
  measured : int;  (** distinct candidates actually measured. *)
  measured_trials : int;
      (** simulator executions this run actually paid for, counted in
          the run's own {!Imtp_engine.Engine.ledger} (cumulative across
          a resume): cache hits, duplicates, gated-out candidates and
          cost stages another run on a shared engine executed all cost
          zero.  The measurement gate's acceptance metric — a gated run
          must reach the same best with far fewer of these. *)
  skipped : int;
      (** distinct candidates the gate recorded with a predicted cost
          instead of measuring (0 in an ungated search). *)
  cache_hits : int;
      (** this run's own engine-cache hits (its ledger's, cumulative
          across a resume) — trials whose build was deduplicated
          instead of recompiled (duplicate proposals, candidates
          sharing the built prefix of a canonical-equal one, and warm
          entries when a shared engine is passed in).  Concurrent runs
          on one engine do not count each other's lookups. *)
  elapsed_s : float;
      (** wall-clock duration of the whole run — recorded in tuning-log
          headers so replayed logs can report trials/sec.  For a
          resumed run this includes the killed run's recorded time. *)
  interrupted : bool;
      (** the run was stopped by its [stop] callback before exhausting
          the trial budget; a final checkpoint was emitted, and the
          confirmation pass (if gated) was deferred to the resumption. *)
  resumed_from : int option;
      (** the trial count of the checkpoint this run resumed from
          ([None] for a from-scratch run). *)
  islands : int;  (** the effective island count the run used. *)
  per_island : island_stats list;  (** one entry per island, in order. *)
}
(** Everything a search run produces.  The run also emits telemetry
    through {!Imtp_obs.Obs}: a [search.run] span enclosing [search.init]
    and per-generation [search.generation] spans (with population /
    acceptance / island attributes), per-island [search.island] spans,
    a per-generation [search.rank] span under
    gating (with size/selected attributes), the [search.*] counters
    (including [search.measured_trials], [search.skipped] and
    [search.migrations]), and the [search.best_latency_s] /
    [search.model_abs_log_err] / [search.trials_per_s] gauges — see
    DESIGN.md's "Observability" section for the full taxonomy. *)

(** {2 Checkpoints}

    A checkpoint is a complete snapshot of the search's state at a
    boundary — a generation boundary when [islands = 1], a migration
    boundary when [islands > 1]: every island's rng draw position, cost
    model, population, deduplication tables, history and tallies, plus
    the shared learned model as merged through that boundary.  Resuming
    from it replays the killed run's remaining trials {e bit-identically}
    — same history records (and therefore the same tuning-log lines),
    same best, same measured/skipped/invalid counts — because
    everything the search does downstream is a pure function of that
    state.  Only the engine-cache ledger differs: a resumed run starts
    against whatever engine it is given (typically a cold one), so
    [cache_hits] counts real hits in each process while
    [measured_trials] still accumulates across the kill (simulator
    executions actually paid for, before plus after).

    Checkpoints are plain marshalable data; {!Checkpoint} gives them a
    durable on-disk form. *)

type checkpoint
(** Serialized search state at a boundary. *)

val checkpoint_format : int
(** Layout version embedded in every checkpoint; {!run} rejects
    checkpoints written by an incompatible build. *)

val checkpoint_trial : checkpoint -> int
(** How many trials the snapshot had consumed (summed over islands). *)

val checkpoint_trials : checkpoint -> int
(** The run's total trial budget. *)

val checkpoint_seed : checkpoint -> int
(** The run's seed. *)

val checkpoint_measure_ratio : checkpoint -> float option
(** The run's measurement-gate ratio, if gated. *)

val checkpoint_islands : checkpoint -> int
(** The run's effective island count. *)

val checkpoint_boundary : checkpoint -> int
(** The boundary the snapshot was taken at: 0 after the initial
    population, then one per boundary (with [islands = 1], per
    generation). *)

val run :
  ?strategy:strategy ->
  ?seed:int ->
  ?jobs:int ->
  ?islands:int ->
  ?skip_inputs:string list ->
  ?use_cost_model:bool ->
  ?measure_ratio:float ->
  ?engine:Imtp_engine.Engine.t ->
  ?resume:checkpoint ->
  ?on_checkpoint:(checkpoint -> unit) ->
  ?checkpoint_every:int ->
  ?stop:(unit -> bool) ->
  Imtp_upmem.Config.t ->
  Imtp_workload.Op.t ->
  trials:int ->
  outcome
(** Run [trials] measurements.  Deterministic for a given seed and
    island count at any [jobs] value: generations go through
    {!Imtp_engine.Engine.prepare_batch} plus pooled
    {!Imtp_engine.Engine.simulate}, whose results are independent of
    how many domains build them, and islands
    exchange state only at fixed migration boundaries.

    [jobs] (default {!Imtp_engine.Pool.default_jobs}) bounds the worker
    domains per engine batch.  [islands] (default 1; clamped to
    [1, 64] and to at most [trials / 16] so every island can seed an
    initial population) shards the search island-model style.
    Candidates are built with every PIM-aware pass on
    ({!Imtp_passes.Pipeline.all_on}).  [use_cost_model] (default
    true) lets the parameter-space {!Cost_model} rank candidate
    mutations before proposal; disabling it falls back to unguided
    mutation (an ablation of Fig. 5's "evolutionary search guided by a
    cost model").  [measure_ratio] (default [None]: measure everything)
    turns on TIR-level
    measurement gating at the given simulator fraction; must be in
    (0, 1].  [engine] (default: a fresh engine for [cfg]) carries the
    build cache; pass a shared engine to reuse builds across runs — the
    search still measures (and records) each distinct candidate once
    per run.  The engine must be domain-safe when [islands > 1] (the
    default engine is).

    [on_checkpoint] (with [checkpoint_every], default 1, in generations
    for [islands = 1] and migration boundaries otherwise) receives a
    deep snapshot after the initial population and at boundaries; the
    callback runs holding the islands' rendezvous lock, so keep it
    cheap (write the file, return).  [resume] restarts from such a
    snapshot: the initial-sampling phase is skipped and the
    checkpoint's own seed, strategy, gating, island count and trial
    budget override the caller's (anything else could not be
    bit-identical) — only [op], which must hash to the checkpoint's
    recorded operator, and the execution knobs ([jobs], [engine],
    checkpointing) are taken from the call.  [stop]
    is polled at every boundary, after that boundary's periodic
    checkpoint; when it returns [true] the run ends there (emitting the
    boundary's checkpoint if the cadence skipped it) and returns early
    with [outcome.interrupted = true].

    @raise Invalid_argument if [measure_ratio] is outside (0, 1], if
    [checkpoint_every < 1], or if [resume]
    belongs to a different operator or checkpoint format. *)
