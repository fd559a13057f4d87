(** Graph-level compilation: tensor programs composed into a dataflow
    graph, fused across nodes, tuned jointly, and linked into ONE
    combined multi-kernel program with MRAM-resident intermediates.

    The per-op path pays a full host round-trip between nodes (§2.1:
    "even when data transfer between DPUs is required, it is routed via
    the host CPU").  The graph compiler removes it twice over:

    - {b epilogue fusion}: an elementwise consumer whose single input
      covers its producer's output folds into the producer — as a body
      composition when the producer is itself elementwise, or as a
      TIR-lowered epilogue on the producer's write-back when the
      producer reduces — so the intermediate never exists at all;
    - {b MRAM residency}: when producer and consumer schedules
      partition the intermediate identically (same ordered DPU block
      signature, same per-axis MRAM tile extents), the producer skips
      its device-to-host gather and the consumer reads the producer's
      tile in place, its own host-to-device transfer skipped.

    Intermediates consumed exactly once may be fused away or kept
    device-resident; nodes nobody consumes are graph outputs and always
    materialize on the host. *)

type t

type tid
(** A symbolic tensor in the graph. *)

val create : string -> t

val input : t -> name:string -> shape:int list -> tid
(** Declare an external input.  @raise Invalid_argument on duplicate
    names and on reserved names ([node<digit>...] — the node-output
    namespace; an input named ["node0"] used to shadow node 0's
    output). *)

val add : t -> Imtp_workload.Op.t -> args:(string * tid) list -> tid
(** [add g op ~args] appends a node applying [op]; [args] binds each of
    the op's named inputs to a graph tensor.  Shapes are checked.
    Returns the node's output tensor.  Construction is O(1) amortized
    per node (array-backed).  @raise Invalid_argument on missing
    bindings or shape mismatches. *)

val shape_of : t -> tid -> int list
val node_count : t -> int
val tid_name : tid -> string
(** The graph-tensor name: the input's name, or ["node<i>"]. *)

val inputs : t -> (string * int list) list
val pp : Format.formatter -> t -> unit

val of_spec : Imtp_workload.Nets.t -> t * (string * tid) list
(** Build a graph from a whole-model spec; also returns the
    spec-node-id -> graph-tensor map. *)

(** Compiled graphs. *)
module Compiled : sig
  type graph = t
  type t

  val compile :
    ?trials:int ->
    ?seed:int ->
    ?jobs:int ->
    ?islands:int ->
    ?measure_ratio:float ->
    ?fuse:bool ->
    ?resident:bool ->
    ?engine:Imtp_engine.Engine.t ->
    Imtp_upmem.Config.t ->
    graph ->
    (t, string) Result.t
  (** Fuse ([fuse], default on), tune every distinct fused op once
      under one shared engine — nodes with the same canonical
      structural key ({!Imtp_engine.Engine.op_key}) share one search —
      splitting [trials] (default 96) across the unique ops, plan MRAM
      residency ([resident], default on; consumers may be re-selected
      from the residency-compatible sub-space, and an edge only commits
      when it wins the modeled cost), and link everything into one
      combined program.  [jobs]/[islands]/[measure_ratio] thread to the
      per-op searches.  Pass [engine] to share builds across compiles. *)

  (** {2 Residency re-selection scans} *)

  type scans = {
    alternatives :
      int -> Imtp_engine.Sketch.params -> Imtp_engine.Sketch.params list;
        (** [alternatives i winner]: the first 32 points of plan node
            [i]'s space, other than [winner], whose schedule does not
            rfactor — the producer alternatives to its tuned winner. *)
    compatible :
      int -> (Imtp_schedule.Sched.t -> bool) -> Imtp_engine.Sketch.params list;
        (** [compatible i ok]: the first 48 points of plan node [i]'s
            space whose schedule passes [ok] — a consumer's
            residency-compatible candidates. *)
    tilings : unit -> int;
        (** Distinct canonical tilings indexed so far (the
            [graph.residency] span's [tilings]). *)
  }
  (** The residency planner's two walks over a plan node's
      {!Imtp_engine.Sketch.space}, in space order.  A point whose
      tiling or schedule cannot be built ([Invalid_argument] or
      [Failure]) matches neither, and so does a schedule on which [ok]
      raises either.  Plan nodes are numbered in plan order. *)

  val indexed_scans :
    Imtp_upmem.Config.t -> Imtp_workload.Op.t array -> scans
  (** The scans {!compile} uses for the plan nodes' (fused) ops: each
      space is walked only as far as a scan needs, each distinct
      canonical tiling ({!Imtp_engine.Sketch.canonical}) is
      instantiated once per compile and tested once per scan. *)

  val compile_with :
    scans:(Imtp_upmem.Config.t -> Imtp_workload.Op.t array -> scans) ->
    ?trials:int ->
    ?seed:int ->
    ?jobs:int ->
    ?islands:int ->
    ?measure_ratio:float ->
    ?fuse:bool ->
    ?resident:bool ->
    ?engine:Imtp_engine.Engine.t ->
    Imtp_upmem.Config.t ->
    graph ->
    (t, string) Result.t
  (** {!compile} with [scans] in place of {!indexed_scans}: any scans
      with the documented results give the same compile, which is how
      the planner is tested differentially. *)

  val run :
    t ->
    inputs:(string * Imtp_tensor.Tensor.t) list ->
    (string * Imtp_tensor.Tensor.t) list
  (** Execute the combined program end-to-end (compiled executor by
      default, the interpreter under [IMTP_EXEC=interp]); returns the
      graph inputs plus every materialized node output keyed
      ["node<i>"] ([i] the node's original index; fused-away and
      MRAM-resident intermediates have no host value).
      @raise Invalid_argument when an input is missing or mis-shaped. *)

  val run_counted :
    t ->
    inputs:(string * Imtp_tensor.Tensor.t) list ->
    (string * Imtp_tensor.Tensor.t) list * Imtp_tir.Eval.counters
  (** {!run} plus the executor's transfer/DMA counters — the oracle and
      the benches read host-transfer volumes from here. *)

  val program : t -> Imtp_tir.Program.t
  (** The combined multi-kernel program (for differential testing). *)

  val estimate : t -> Imtp_upmem.Stats.t
  (** Modeled latency of the combined program (one cost-model pass over
      the whole linked program, not a per-node sum). *)

  val node_stats : t -> (string * Imtp_upmem.Stats.t) list
  (** Per-node estimates under the final lowering options, keyed
      ["node<i>:<op+op+...>"]. *)

  val fused_count : t -> int
  (** Original nodes folded into their producers. *)

  val resident_count : t -> int
  (** Producer->consumer edges kept in MRAM. *)

  val plan : t -> (Imtp_engine.Sketch.params * string list * bool) list
  (** Per plan node, in plan order: the committed schedule parameters,
      the inputs read from MRAM in place, and whether the output stays
      in MRAM. *)

  val describe : t -> string list
  (** Human-readable plan: per node the fused chain, winning schedule
      parameters and residency role. *)
end
