type result = {
  params : Sketch.params;
  stats : Imtp_upmem.Stats.t;
  latency_s : float;
}

let noise_amplitude = Engine.noise_amplitude

(* One engine per machine configuration, interned so independent
   Measure calls (benchmarks, grid searches) share builds.  Config.t is
   a plain record, so structural hashing is well-defined.  The intern
   table gets its own mutex: Measure may be called from pool worker
   domains, and the engines themselves are already domain-safe. *)
let engines : (Imtp_upmem.Config.t, Engine.t) Hashtbl.t = Hashtbl.create 4
let engines_lock = Mutex.create ()

let engine_for cfg =
  Mutex.protect engines_lock @@ fun () ->
  match Hashtbl.find_opt engines cfg with
  | Some e -> e
  | None ->
      let e = Engine.create cfg in
      Hashtbl.add engines cfg e;
      e

let build ?passes ?skip_inputs cfg op params =
  match Engine.build (engine_for cfg) ?passes ?skip_inputs op params with
  | Ok a -> Ok a.Engine.program
  | Error e -> Error (Engine.error_to_string e)

let measure ?rng ?passes ?skip_inputs cfg op params =
  match Engine.measure (engine_for cfg) ?rng ?passes ?skip_inputs op params with
  | Ok m ->
      Ok { params; stats = m.Engine.artifact.Engine.stats; latency_s = m.Engine.latency_s }
  | Error e -> Error (Engine.error_to_string e)
