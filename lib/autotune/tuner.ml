module Obs = Imtp_obs.Obs

type result = {
  params : Sketch.params;
  program : Imtp_tir.Program.t;
  stats : Imtp_upmem.Stats.t;
  search : Search.outcome;
  cache : Engine.counters;
}

let tune ?strategy ?seed ?jobs ?islands ?(trials = 128) ?skip_inputs
    ?measure_ratio ?engine cfg op =
  Obs.span ~name:"tuner.tune"
    ~attrs:
      [
        ("op", Obs.Str op.Imtp_workload.Op.opname);
        ("trials", Obs.Int trials);
      ]
  @@ fun () ->
  Obs.incr "tuner.tunes";
  let engine = match engine with Some e -> e | None -> Engine.create cfg in
  let search =
    Search.run ?strategy ?seed ?jobs ?islands ?skip_inputs ?measure_ratio
      ~engine cfg op ~trials
  in
  match search.Search.best with
  | None -> Error "autotuning found no valid candidate"
  | Some best -> (
      let params = best.Measure.params in
      (* The winner was simulated during the search, so its engine
         entry already holds the cost outcome: this deterministic
         re-measurement is one lookup that runs no stage and serves both
         the program and the noise-free stats. *)
      match Engine.measure engine ?skip_inputs op params with
      | Error e -> Error (Engine.error_to_string e)
      | Ok m ->
          Ok
            {
              params;
              program = m.Engine.artifact.Engine.program;
              stats = m.Engine.artifact.Engine.stats;
              search;
              cache = Engine.counters engine;
            })

let describe r =
  Printf.sprintf "%s | total %.3f ms" (Sketch.describe r.params)
    (Imtp_upmem.Stats.total_s r.stats *. 1e3)
