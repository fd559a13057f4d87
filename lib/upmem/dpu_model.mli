(** Round-robin list-schedule timing model of one DPU executing a tiled
    kernel.

    A kernel is abstracted as a stream of "chunks" — one iteration of
    the WRAM caching loop — distributed over the active tasklets.  Each
    chunk issues a fixed set of MRAM↔WRAM DMA transfers (serialized on
    the DPU's single DMA engine, blocking the issuing tasklet) followed
    by a burst of compute occupying issue slots in the shared in-order
    pipeline.  This captures the two first-order effects the paper's
    optimizations exploit: tasklet-level latency hiding (why small
    caching tiles win on small per-DPU slices) and issue-slot pressure
    (why boundary-check branches hurt).

    The schedule gives each chunk to the earliest-ready tasklet.  Every
    assigned ready time is [engine_free + compute] (with no DMAs, the
    tasklet's previous ready time + compute), [engine_free] never
    decreases, and float rounding is monotone, so the earliest-ready
    tasklet is always the one served longest ago: chunk [k] runs on
    tasklet [k mod tasklets].  The model is therefore one round-robin
    pass costing O(min(chunks, 4096) × DMAs per chunk). *)

type profile = {
  tasklets : int;  (** active tasklets, 1..24; 0 is treated as 1. *)
  chunks : int;  (** total caching-loop iterations on this DPU. *)
  dma_bytes : (int * float) list;
      (** DMA transfers issued per chunk as (bytes, count) pairs; a
          fractional count amortizes transfers that happen at a coarser
          loop level than the chunk loop. *)
  compute_slots : float;  (** non-DMA issue slots per chunk. *)
  prologue_slots : float;  (** per-tasklet setup before the loop. *)
  epilogue_slots : float;  (** per-tasklet work after the loop
                               (e.g. partial-result handshake). *)
}

val kernel_cycles : Config.t -> profile -> float
(** Simulated cycles until the last tasklet finishes.  Chunk counts
    beyond 4096 are handled by steady-state extrapolation from the
    marginal rate between 2048 and 4096 chunks, so cost evaluation
    stays O(1) in tensor size.  Raises [Invalid_argument] on negative
    [chunks]. *)

val issue_period : Config.t -> tasklets:int -> float
(** Cycles between two issue opportunities of one tasklet: the revolver
    period when the pipeline is unsaturated, else the round-robin share. *)
