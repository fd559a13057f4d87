(** DMA-aware boundary-check elimination (§5.3.1).

    Removes boundary checks that guard pure WRAM↔MRAM data movement —
    safe because MRAM tiles are locally padded (allocated in multiples
    of tile sizes) and the checks guarding the computation itself and
    the host readout are kept — and then vectorizes the resulting
    unconditional per-element copy loops into single DMA instructions
    with static sizes (subject to the 2 KB DMA limit; oversized loops
    are strip-vectorized to the largest legal chunk). *)

val rewrite :
  max_dma_bytes:int -> elem_size:(string -> int) -> Imtp_tir.Stmt.t ->
  Imtp_tir.Stmt.t
(** [elem_size] maps a WRAM buffer name to its element size in bytes
    (used for the DMA size cap). *)

val run : Imtp_upmem.Config.t -> Imtp_tir.Program.t -> Imtp_tir.Program.t
(** Apply to every kernel of the program. *)
