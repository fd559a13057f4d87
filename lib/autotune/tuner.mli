(** Top-level autotuning entry point: run the balanced evolutionary
    search, then return the winner's engine artifact — the optimized
    program and its deterministic (noise-free) latency breakdown —
    without rebuilding it, since the search already compiled it into
    the engine cache. *)

type result = {
  params : Sketch.params;
  program : Imtp_tir.Program.t;
  stats : Imtp_upmem.Stats.t;
  search : Search.outcome;
  cache : Imtp_engine.Engine.counters;
      (** the engine's cache ledger at the end of the tuning run. *)
}

val tune :
  ?strategy:Search.strategy ->
  ?seed:int ->
  ?jobs:int ->
  ?islands:int ->
  ?trials:int ->
  ?skip_inputs:string list ->
  ?measure_ratio:float ->
  ?engine:Imtp_engine.Engine.t ->
  Imtp_upmem.Config.t ->
  Imtp_workload.Op.t ->
  (result, string) Result.t
(** Defaults: IMTP strategy, 128 trials, a fresh engine, and
    [Imtp_engine.Pool.default_jobs] worker domains per generation batch
    ([jobs] — results are identical at any value for a fixed
    [islands]).  [islands] shards the search island-model style across
    the pool (see {!Search.run}; it defaults to 1, whatever the job
    count or the environment).  [measure_ratio]
    (default off) enables {!Search.run}'s learned-model measurement
    gate at the given simulator fraction.  [Error] only when no valid
    candidate was found at all.  Pass a shared [engine]
    to reuse builds across repeated tunes of the same op. *)

val describe : result -> string
(** One line summarizing the winning configuration (Table 3 format:
    DPUs per dimension type, tasklets, caching tile size). *)
