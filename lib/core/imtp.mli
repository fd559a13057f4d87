(** IMTP — search-based code generation for in-memory tensor programs.

    An OCaml reproduction of the IMTP/ATiM compiler (ISCA'25): an
    autotuning tensor compiler targeting the UPMEM processing-in-DRAM
    architecture, built on a behavioural+timing UPMEM simulator.

    The aliases below re-export the full API surface; the functions at
    the bottom are the one-call workflow most users need:

    {[
      let op = Imtp.Ops.va 1_000_000 in
      match Imtp.autotune op with
      | Error m -> prerr_endline m
      | Ok r ->
          Format.printf "tuned: %s@." (Imtp.Tuner.describe r);
          let outputs = Imtp.execute r.Imtp.Tuner.program op in
          ...
    ]} *)

(* Substrates *)
module Dtype = Imtp_tensor.Dtype
module Value = Imtp_tensor.Value
module Shape = Imtp_tensor.Shape
module Tensor = Imtp_tensor.Tensor
module Reference = Imtp_tensor.Reference

(* UPMEM machine model *)
module Config = Imtp_upmem.Config
module Timing = Imtp_upmem.Timing
module Dpu_model = Imtp_upmem.Dpu_model
module Transfer = Imtp_upmem.Transfer
module Host_model = Imtp_upmem.Host_model
module Stats = Imtp_upmem.Stats

(* Tensor IR *)
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

(* Workloads, schedules, lowering, passes *)
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

(* Observability: tracing spans + metrics registry *)
module Obs = Imtp_obs.Obs

(* Build/measure engine and autotuner *)
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

(* Serving: the tuning daemon, its wire protocol, and the client *)
module Protocol = Imtp_serve.Protocol
module Serve = Imtp_serve.Serve
module Serve_client = Imtp_serve.Client

(* Differential fuzzing *)
module Fuzz = Imtp_fuzz.Driver
module Fuzz_oracle = Imtp_fuzz.Oracle
module Fuzz_shrink = Imtp_fuzz.Shrink
module Gen_workload = Imtp_fuzz.Gen_workload
module Gen_sched = Imtp_fuzz.Gen_sched
module Fuzz_graph = Imtp_fuzz.Graph_fuzz
module Gen_passes = Imtp_fuzz.Gen_passes

(* Baselines *)
module Graph = Imtp_graph.Graph
module Hbm_pim = Imtp_hbmpim.Hbm_pim
module Prim = Imtp_baselines.Prim
module Simplepim = Imtp_baselines.Simplepim

val default_config : Config.t
(** The paper's 2,048-DPU UPMEM server. *)

val autotune :
  ?config:Config.t ->
  ?trials:int ->
  ?seed:int ->
  ?skip_inputs:string list ->
  Op.t ->
  (Tuner.result, string) Result.t
(** Search-based compilation: explore the joint host+kernel space and
    return the best program found (default 128 trials). *)

val compile :
  ?config:Config.t ->
  ?options:Lowering.options ->
  ?passes:Passes.config ->
  Sched.t ->
  Program.t
(** Manual-schedule compilation: lower and apply the PIM-aware passes.
    @raise Lowering.Lower_error on unsupported schedules. *)

val execute :
  ?inputs:(string * Tensor.t) list ->
  Program.t ->
  Op.t ->
  (string * Tensor.t) list
(** Run a compiled program on the functional executor — the closure
    compiler {!Exec} by default, the tree-walking interpreter under
    [IMTP_EXEC=interp]; both are bit-identical by contract.  Missing
    inputs are generated deterministically ({!Ops.random_inputs}).
    Returns all host buffers, including the output. *)

val estimate : ?config:Config.t -> Program.t -> Stats.t
(** Simulated latency breakdown of one execution. *)
