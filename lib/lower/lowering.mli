(** Lowering of schedules to loop-based TIR programs (§5.2.2).

    Produces a {!Imtp_tir.Program.t} with:
    - one DPU kernel whose loop nest follows the schedule order (DPU
      bindings, tasklet binding, serial/unrolled loops, WRAM cache
      allocations with per-element guarded DMA loads/stores);
    - per-DPU address calculation baked into index expressions (MRAM
      tiles are locally padded — allocated in multiples of tile sizes —
      so local addresses are outer indices times tile strides plus
      inner indices);
    - host data-transfer loops, optionally coalesced (bulk transfer)
      and bank-parallel, and broadcast for DPU-invariant inputs;
    - hierarchical-reduction code when the schedule [rfactor]s a
      DPU-bound reduction segment: per-DPU partials gathered into a
      host buffer and a (optionally multi-threaded) host final
      reduction loop.

    The program is emitted simplified, in one pass: every expression
    is what {!Imtp_tir.Simplify.expr} returns for it, and no serial
    loop of extent 1 or below remains.

    The generated kernel is the {e unoptimized} form: cache movement is
    per-element guarded DMA.  The PIM-aware passes of {!Imtp_passes}
    then eliminate the boundary checks and vectorize the DMA — keeping
    the pipeline faithful to the paper, where those optimizations are
    separate TIR passes. *)

exception Lower_error of string

type options = {
  bulk_transfer : bool;
      (** coalesce contiguous transfer rows (Fig. 7(c)). *)
  parallel_transfer : bool;
      (** bank-parallel push/broadcast transfers (Fig. 7(d)); serial
          per-DPU copies otherwise. *)
  skip_input_transfer : string list;
      (** inputs resident in MRAM across launches (§5.4 weight reuse):
          their H2D transfer is omitted. *)
  skip_output_transfer : bool;
      (** omit the device-to-host gather of the output: the graph
          compiler's MRAM-residency path, where the consumer kernel of
          the same combined program reads the producer's tile in place.
          Ignored for rfactor schedules (partials must reach the
          host). *)
}

val default_options : options
(** bulk and parallel transfers on, nothing resident. *)

val lower : ?options:options -> Imtp_schedule.Sched.t -> Imtp_tir.Program.t
(** @raise Lower_error when the schedule is outside the supported
    structure: DPU-bound loops must form an outermost prefix (followed
    by the optional tasklet loop), each axis's DPU-bound segments must
    be its outermost segments, every tensor needs a placed cache, cache
    locations must dominate the segments they cover, and a DPU-bound
    reduction segment must be the [rfactor] loop.

    Host post-processing parallelism (Table 2 "Post-processing") is a
    schedule primitive: a [Sched.parallel] annotation on a trailing
    kernel loop lowers to a serial per-tasklet loop inside the kernel,
    and the largest such thread count runs the hierarchical-reduction
    loop on the host as [Host_parallel n] ([Serial] without one). *)

val partial_buffer_name : string
(** Name of the host buffer holding gathered per-DPU partials when
    hierarchical reduction is generated. *)

val output_buffer_elems : Imtp_schedule.Sched.t -> int
