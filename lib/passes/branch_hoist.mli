(** Invariant branch hoisting (§5.3.3).

    Integrates loop unswitching with partial dead-code elimination:

    - a boundary check invariant in the enclosing loop variable is
      hoisted out of the loop (unswitching);
    - DMA transfers whose data is only consumed under a sibling
      boundary check are sunk beneath it (PDE — sound because the TIR
      lowering guarantees all consumers of the loop live under the
      loop's boundary constraint), which unlocks hoisting the check
      past further loop levels and WRAM allocations.

    The combination reduces the dynamic instances of the check and of
    the DMA/compute operations it guards (Fig. 8(d)). *)

val rewrite : Imtp_tir.Stmt.t -> Imtp_tir.Stmt.t
val run : Imtp_tir.Program.t -> Imtp_tir.Program.t

