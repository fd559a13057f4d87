(** Balanced evolutionary search (§5.2.3), optionally measurement-gated
    by a learned cost model over lowered TIR ({!Cost_learn}), optionally
    sharded island-model style.

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
    sub-populations ("islands"), each with its own deterministic rng
    substream ([Rng.stream ~base:seed ~index:island]), population and
    deduplication tables.  The run steps its islands in lockstep on the
    calling thread: each generation, every island with budget left
    proposes from its own rng, all islands' proposals are prepared in
    one engine batch, each island selects and draws its noise base,
    and all islands' selected candidates are simulated in one pool map.
    Every 2 generations comes a {e migration boundary}, where the run,
    in this order:

    - folds the epoch's model observations into the one shared
      {!Cost_learn} model in island order, and every island continues
      from a copy of the merged model;
    - gives each island the top {e elites} of its ring predecessor's
      (island [(i+k-1) mod k]) pre-migration population; an island
      whose budget ran out at an earlier boundary supplies its final
      population and receives nothing;
    - hands the records made since the previous boundary to
      [on_boundary], then polls [stop].

    Determinism contract: for a fixed [islands] value the outcome is a
    pure function of the seed — [~islands:k ~jobs:n] is bit-identical
    to [~islands:k ~jobs:1] by construction, because the order of every
    island's draws, merges and migrations is fixed and [jobs] only
    spreads a batch's work.  One island runs through the same loop with
    a boundary after every generation (there is nothing to migrate) and
    the historical [Rng.create ~seed] stream, so it reproduces
    pre-island traces byte-for-byte.  Note that {e different} island
    counts are different searches.  [islands] defaults to 1, never to
    the job count or to anything in the environment, so a default
    search is the same on every host.

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
          the run's own {!Imtp_engine.Engine.ledger}: cache hits,
          duplicates, gated-out candidates and cost stages another run
          on a shared engine executed all cost zero.  The measurement
          gate's acceptance metric — a gated run must reach the same
          best with far fewer of these. *)
  skipped : int;
      (** distinct candidates the gate recorded with a predicted cost
          instead of measuring (0 in an ungated search). *)
  cache_hits : int;
      (** this run's own engine-cache hits (its ledger's) — trials
          whose build was deduplicated instead of recompiled (duplicate
          proposals, candidates sharing the built prefix of a
          canonical-equal one, and warm entries when a shared engine is
          passed in).  Concurrent runs
          on one engine do not count each other's lookups. *)
  elapsed_s : float;
      (** wall-clock duration of the run — recorded in tuning-log
          headers so replayed logs can report trials/sec. *)
  interrupted : bool;
      (** the run was stopped by its [stop] callback before exhausting
          the trial budget; the stopping boundary's records were handed
          to [on_boundary], and the confirmation pass (if gated) was
          not run. *)
  islands : int;  (** the effective island count the run used. *)
  per_island : island_stats list;  (** one entry per island, in order. *)
}
(** Everything a search run produces.  The run also emits telemetry
    through {!Imtp_obs.Obs}: a [search.run] span enclosing per-island
    [search.init] spans and per-generation [search.generation] spans
    (with population / acceptance attributes summed over the islands
    stepping it), a per-island [search.rank] span in each generation
    under gating (with size/selected attributes), the [search.*] counters
    (including [search.measured_trials], [search.skipped] and
    [search.migrations]), and the [search.best_latency_s] /
    [search.model_abs_log_err] / [search.trials_per_s] gauges — see
    DESIGN.md's "Observability" section for the full taxonomy. *)

val run :
  ?strategy:strategy ->
  ?seed:int ->
  ?jobs:int ->
  ?islands:int ->
  ?skip_inputs:string list ->
  ?use_cost_model:bool ->
  ?measure_ratio:float ->
  ?engine:Imtp_engine.Engine.t ->
  ?on_boundary:(record list -> unit) ->
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
    step in a fixed lockstep order.

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
    per run.  The engine must be domain-safe when [jobs > 1] (the
    default engine is).

    [on_boundary] is called at every boundary — after the initial
    population (boundary 0), then after every generation when
    [islands = 1] and after every migration otherwise — with every
    record made since the previous boundary, in the order the run made
    them.  A run's boundaries and records are a pure function of its
    arguments, so a caller that logs each batch
    ({!Tuning_log.open_session}) can resume a killed run by running it
    again over its log and checking each batch against the logged
    lines.  The search waits for the callback, so keep it cheap, and
    an exception it raises ends the run and propagates out of [run].
    The gated confirmation pass after the last boundary reaches no
    callback: its records are only in {!outcome.history}.  [stop] is
    polled at every boundary, after [on_boundary]; when it returns
    [true] the run ends there and returns early with
    [outcome.interrupted = true].

    @raise Invalid_argument if [measure_ratio] is outside (0, 1]. *)
