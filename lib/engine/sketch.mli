(** Sketch generation (§5.2.1): parameterized schedule templates that
    repurpose the TVM schedule primitives for UPMEM.

    A sketch fixes the code structure (which axes are split and bound
    to DPUs/tasklets, where caches live, whether reduction is
    hierarchical); the {!params} fill in the tunable values.  Together
    they populate the joint host+kernel search space:

    - host-to-DPU data distribution: spatial/reduction DPU counts,
      i.e. the [split]/[reorder]/[bind] tiling of Table 2;
    - reduction strategy: [reduction_dpus > 1] selects [rfactor]
      (hierarchical reduction);
    - multi-level tiling and intra-DPU caching: [tasklets],
      [cache_elems], [rows_per_tasklet], [unroll_inner];
    - post-processing: [host_threads], the [parallel] of Table 2. *)

type params = {
  spatial_dpus : int;  (** DPUs along the (outer) spatial dimension. *)
  reduction_dpus : int;  (** DPUs along the reduction dimension;
                             > 1 enables rfactor. *)
  tasklets : int;
  cache_elems : int;  (** innermost caching-tile length, in elements. *)
  rows_per_tasklet : int;  (** spatial rows handled per tasklet
                               iteration (matrix/batched ops). *)
  unroll_inner : bool;
  host_threads : int;
      (** host post-processing parallelism: rfactor templates with
          spatial DPU blocks apply [Sched.parallel] to the row loop of
          the host's final reduction when it is > 1. *)
}

val default_params : params

val default_for : Imtp_upmem.Config.t -> Imtp_workload.Op.t -> params
(** The untuned schedule [imtp run], [lower], [codegen] and the
    daemon's [run] build: up to 256 spatial DPUs, 8 tasklets and
    32-element caching tiles; a pure reduction puts those DPUs on its
    reduction axis. *)

type family =
  | Elementwise  (** one spatial axis, no reduction (VA, GEVA). *)
  | Tasklet_reduce  (** pure reduction (RED). *)
  | Mat_vec  (** one spatial + one reduction axis (MTV, GEMV). *)
  | Batched  (** two spatial + one reduction axis with a rank-3 input
                 (TTV, MMTV). *)
  | Mat_mat  (** two spatial + one reduction axis over rank-2 inputs
                 (GEMM) — an extension family beyond the paper's
                 evaluation. *)
  | Grid_map  (** two spatial axes, no reduction (rowdiv, 2-D scaling):
                  outer axis on the X grid dimension, inner axis tiled
                  like {!Elementwise} along Y. *)

val family_of : Imtp_workload.Op.t -> family
(** @raise Invalid_argument for iteration domains outside the
    supported families. *)

type tiling = {
  splits : int list list;
      (** the factors of each [split] the family's template applies, in
          template order, after clamping tasklets, caching tiles and
          rows to the per-DPU slice. *)
  rfactor : bool;  (** whether the schedule reduces hierarchically. *)
  unroll : bool;
  host_threads : int;
      (** the host's final-reduction parallelism, or 0 when the
          schedule has no host reduction over spatial DPU blocks;
          {!instantiate} emits [Sched.parallel] exactly when it is
          > 1. *)
}
(** The effective tiling a sketch builds its schedule from. *)

val canonical : Imtp_workload.Op.t -> params -> tiling
(** The tiling {!instantiate} builds from: [instantiate op p] reads
    [p] only through [canonical op p], so parameters with equal tilings
    give the same schedule, and (for equal lowering options) the same
    lowered program.  Arithmetic only — no schedule is constructed.
    [canonical op] reads the op once, so a caller tiling many points of
    one op applies it once.
    @raise Invalid_argument as {!family_of}, when applied to [op], and
    naming the field when a field of [p] is below 1. *)

val instantiate : Imtp_workload.Op.t -> params -> Imtp_schedule.Sched.t
(** Build the schedule for the op's family from [canonical op p].
    The resulting DPU grid may be smaller than requested when the
    tensor has fewer tiles than DPUs. *)

val lower_options : params -> Imtp_lower.Lowering.options
(** {!Imtp_lower.Lowering.default_options} for every [params]: the
    schedule carries the host parallelism itself.  Kept only for the
    frozen benchmark replay ([bench/suite/replay.ml]); new code uses
    {!Imtp_lower.Lowering.default_options} directly. *)

val describe : params -> string

type table = private {
  family : family;
  spatial_choices : int array;
  reduction_choices : int array;
  rfactor_choices : int array;  (** the [reduction_choices] above 1. *)
  tasklet_choices : int array;
  cache_choices : int array;  (** caching-tile lengths, ascending. *)
  rows_choices : int array;
  host_thread_choices : int array;
  work : float;  (** [Imtp_workload.Op.total_flops] of the op. *)
}
(** The value sets one (config, op) pair samples from, each in its
    enumeration order.  Shared and read-only: never mutate its
    arrays. *)

val table : Imtp_upmem.Config.t -> Imtp_workload.Op.t -> table
(** The op's sampling table, built on first use and memoized for the
    last few (config, op) pairs by physical identity, so a search pays
    for the value sets once rather than on every draw.
    @raise Invalid_argument as {!family_of}. *)

val space : Imtp_upmem.Config.t -> Imtp_workload.Op.t -> params list
(** The full (pruned) discrete parameter space used for exhaustive
    searches in tests, each point listed once; the evolutionary search
    samples from the same value sets. *)

val space_seq : Imtp_upmem.Config.t -> Imtp_workload.Op.t -> params Seq.t
(** {!space} in the same order, enumerated on demand: a walk that stops
    early builds only the points it reached.
    @raise Invalid_argument as {!family_of}, when called. *)

val random : Rng.t -> Imtp_upmem.Config.t -> Imtp_workload.Op.t -> params
(** One fresh draw from the op's {!table}: one {!Rng.pick_array} per
    field (a {!Rng.bool} for [unroll_inner]), then the family's fixed
    fields. *)

val mutate : Rng.t -> Imtp_upmem.Config.t -> Imtp_workload.Op.t -> params -> params
(** Randomly re-draw one tunable field from the op's {!table}. *)

val uses_rfactor : params -> bool
