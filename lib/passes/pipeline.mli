(** PIM-aware pass pipeline with per-pass toggles (the Fig. 12
    ablation: DMA / DMA+LT / DMA+LT+BH). *)

type config = {
  dma_elim : bool;  (** DMA-aware boundary-check elimination. *)
  loop_tighten : bool;  (** loop-bound tightening. *)
  branch_hoist : bool;  (** invariant branch hoisting + PDE. *)
}

val all_on : config
(** The three §5.3 passes: the default everywhere. *)

val all_off : config

val ablations : (string * config) list
(** The four configurations of Fig. 12, in order:
    none, DMA, DMA+LT, DMA+LT+BH. *)

val all_configs : (string * config) list
(** Every toggle combination (8 entries), named by {!config_name}; the
    sampling space of the fuzz subsystem's pass-config generator. *)

val config_name : config -> string
(** Canonical name, e.g. ["none"], ["dma+bh"], ["dma+lt+bh"]. *)

val run : ?config:config -> Imtp_upmem.Config.t -> Imtp_tir.Program.t -> Imtp_tir.Program.t
(** Apply the enabled passes (in the order DMA-elimination →
    loop-bound tightening → branch hoisting, each followed by
    simplification) to every kernel.  Defaults to {!all_on}. *)
