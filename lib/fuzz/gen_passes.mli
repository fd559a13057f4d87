(** Random pass-configuration and lowering-option sampling.

    The oracle always checks the four Fig. 12 ablations; {!random}
    additionally draws from the full 8-point toggle lattice of
    {!Imtp_passes.Pipeline.all_configs} so pass interactions outside
    the paper's ablation path (e.g. branch hoisting without loop
    tightening) are exercised too. *)

val ablations : (string * Imtp_passes.Pipeline.config) list
(** {!Imtp_passes.Pipeline.ablations}, re-exported for the oracle. *)

val random : Imtp_engine.Rng.t -> string * Imtp_passes.Pipeline.config
(** Uniform over all eight toggle combinations. *)

val random_options : Imtp_engine.Rng.t -> Imtp_lower.Lowering.options
(** Random transfer coalescing and bank parallelism (host
    post-processing threads are drawn as [parallel] schedule steps by
    {!Gen_sched}).  [skip_input_transfer] stays empty: skipping a
    transfer is only sound across launches, which a single-program
    oracle cannot model. *)

val options_to_string : Imtp_lower.Lowering.options -> string
