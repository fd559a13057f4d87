module Pl = Imtp_passes.Pipeline
module L = Imtp_lower.Lowering
module Rng = Imtp_engine.Rng

let ablations = Pl.ablations

let random rng = Rng.pick rng Pl.all_configs

let random_options rng =
  {
    L.bulk_transfer = Rng.bool rng;
    parallel_transfer = Rng.bool rng;
    skip_input_transfer = [];
    skip_output_transfer = false;
  }

let options_to_string (o : L.options) =
  Printf.sprintf "bulk_transfer=%b parallel_transfer=%b" o.L.bulk_transfer
    o.L.parallel_transfer
