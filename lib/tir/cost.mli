(** Analytic timing of a lowered program on the simulated UPMEM machine.

    This is the "hardware measurement" of the autotuning loop: the host
    statement is walked to accumulate transfer, launch and
    post-processing costs; each launched kernel is summarized into a
    per-DPU chunk profile and timed by {!Imtp_upmem.Dpu_model}.  The
    walk is analytic (loop extents multiply), so evaluation cost is
    independent of tensor sizes.

    Interior-DPU worst case: boundary checks are assumed taken, so
    their issue-slot cost is charged even where a boundary DPU would
    skip work — exactly the penalty the PIM-aware passes remove. *)

exception Error of string

val measure : Imtp_upmem.Config.t -> Program.t -> Imtp_upmem.Stats.t
(** @raise Error on non-constant loop extents that cannot be resolved,
    or malformed programs. *)

val kernel_cycles : Imtp_upmem.Config.t -> Program.t -> Program.kernel -> float
(** Cycles of one kernel launch (exposed for the Fig. 3/12 kernel-only
    experiments). *)

val kernel_profile :
  Imtp_upmem.Config.t -> Program.t -> Program.kernel -> Imtp_upmem.Dpu_model.profile
(** The chunk profile backing {!kernel_cycles}, for tests and
    diagnostics. *)

type dma_counts = {
  dma_ops : int;  (** DMA instructions executed across the whole grid. *)
  dma_elems : int;  (** elements moved by MRAM<->WRAM DMA. *)
}

val dma_counts : Program.t -> dma_counts
(** Exact analytic DMA traffic of a program: every kernel launch is
    enumerated loop iteration by loop iteration (guards evaluate under
    the enumeration, so skipped boundary work is excluded), summing DMA
    executions and element counts over all DPUs and tasklets.  The
    result must agree exactly with the [dma_ops]/[dma_elems] fields of
    {!Eval.run_counted} — the fuzz oracle cross-validates the two.

    @raise Error on non-constant loop extents, undecidable guards, or
    programs whose enumeration exceeds the node budget. *)

type xfer_counts = {
  xfer_elems_h2d : int;
      (** host-to-DPU elements; a broadcast counts once per DPU. *)
  xfer_elems_d2h : int;  (** DPU-to-host elements. *)
}

val xfer_counts : Program.t -> xfer_counts
(** Exact analytic host transfer traffic, the twin of {!dma_counts}:
    host loops are enumerated and guards evaluated.  A [Broadcast_x]
    counts its elements once for each of {!Program.dpus_used} DPUs, as
    {!Eval.run_counted} does.  The result must agree exactly with the
    [xfer_elems_h2d]/[xfer_elems_d2h] fields of {!Eval.run_counted};
    the fuzz oracle cross-validates the two.

    @raise Error on non-constant loop extents or undecidable guards. *)

val dma_estimate : Program.t -> dma_counts
(** Analytic DMA traffic: like the timing walk, loop extents multiply
    instead of being enumerated, guards are assumed taken (an [If]
    contributes its heavier branch) and a variable-length transfer is
    resolved with enclosing loop variables at 0.  An interior-DPU upper
    bound on {!dma_counts} whose evaluation cost is independent of
    tensor sizes — cheap enough to run on every candidate of a search,
    which is exactly what the learned cost model's feature extraction
    does.  Never raises: unresolvable extents count as 1, unknown
    kernels as 0. *)
