module Dtype = Imtp_tensor.Dtype
module Value = Imtp_tensor.Value
module Shape = Imtp_tensor.Shape
module Tensor = Imtp_tensor.Tensor
module Reference = Imtp_tensor.Reference
module Config = Imtp_upmem.Config
module Timing = Imtp_upmem.Timing
module Dpu_model = Imtp_upmem.Dpu_model
module Transfer = Imtp_upmem.Transfer
module Host_model = Imtp_upmem.Host_model
module Stats = Imtp_upmem.Stats
module Var = Imtp_tir.Var
module Expr = Imtp_tir.Expr
module Stmt = Imtp_tir.Stmt
module Tir_buffer = Imtp_tir.Buffer
module Program = Imtp_tir.Program
module Printer = Imtp_tir.Printer
module Codegen_c = Imtp_tir.Codegen_c
module Analysis = Imtp_tir.Analysis
module Simplify = Imtp_tir.Simplify
module Eval = Imtp_tir.Eval
module Exec = Imtp_tir.Exec
module Cost = Imtp_tir.Cost
module Op = Imtp_workload.Op
module Ops = Imtp_workload.Ops
module Nets = Imtp_workload.Nets
module Gptj = Imtp_workload.Gptj
module Sched = Imtp_schedule.Sched
module Lowering = Imtp_lower.Lowering
module Passes = Imtp_passes.Pipeline
module Dma_elim = Imtp_passes.Dma_elim
module Loop_tighten = Imtp_passes.Loop_tighten
module Branch_hoist = Imtp_passes.Branch_hoist
module Pass_metrics = Imtp_passes.Metrics
module Obs = Imtp_obs.Obs
module Engine = Imtp_engine.Engine
module Pool = Imtp_engine.Pool
module Rng = Imtp_engine.Rng
module Sketch = Imtp_engine.Sketch
module Verifier = Imtp_engine.Verifier
module Measure = Imtp_autotune.Measure
module Cost_model = Imtp_autotune.Cost_model
module Cost_learn = Imtp_autotune.Cost_learn
module Search = Imtp_autotune.Search
module Tuner = Imtp_autotune.Tuner
module Tuning_log = Imtp_autotune.Tuning_log
module Protocol = Imtp_serve.Protocol
module Serve = Imtp_serve.Serve
module Serve_client = Imtp_serve.Client
module Fuzz = Imtp_fuzz.Driver
module Fuzz_oracle = Imtp_fuzz.Oracle
module Fuzz_shrink = Imtp_fuzz.Shrink
module Gen_workload = Imtp_fuzz.Gen_workload
module Gen_sched = Imtp_fuzz.Gen_sched
module Fuzz_graph = Imtp_fuzz.Graph_fuzz
module Gen_passes = Imtp_fuzz.Gen_passes
module Graph = Imtp_graph.Graph
module Hbm_pim = Imtp_hbmpim.Hbm_pim
module Prim = Imtp_baselines.Prim
module Simplepim = Imtp_baselines.Simplepim

let default_config = Config.default

let autotune ?(config = default_config) ?trials ?seed ?skip_inputs op =
  Tuner.tune ?trials ?seed ?skip_inputs config op

let compile ?(config = default_config) ?options ?passes sched =
  match Engine.compile_sched ?options ?passes config sched with
  | Ok prog -> prog
  | Error (Engine.Lower_failed m) -> raise (Lowering.Lower_error m)
  | Error e -> invalid_arg (Engine.error_to_string e)

let execute ?inputs program op =
  let inputs =
    match inputs with Some i -> i | None -> Ops.random_inputs op
  in
  fst (Engine.execute program ~inputs)

let estimate ?(config = default_config) program =
  match Engine.estimate config program with
  | Ok stats -> stats
  | Error (Engine.Cost_failed m) -> raise (Cost.Error m)
  | Error e -> invalid_arg (Engine.error_to_string e)
