(* Stage replay for traced runs: every distinct candidate a workload's
   searches measured is pushed again through each pipeline stage's
   public entry point under its own [bench.replay.<stage>] span, giving
   per-candidate stage costs measured from outside the program. *)

type cand = {
  op : Imtp.Op.t;
  skip_inputs : string list;
  params : Imtp.Sketch.params;
}

let cfg = Common.cfg

let replay_one c =
  let stage name f = Span.run ("bench.replay." ^ name) f in
  let sched = stage "sketch" (fun () -> Imtp.Sketch.instantiate c.op c.params) in
  let pre = stage "verify" (fun () -> Imtp.Verifier.check_sched cfg sched) in
  let options =
    {
      (Imtp.Sketch.lower_options c.params) with
      Imtp.Lowering.skip_input_transfer = c.skip_inputs;
    }
  in
  let lowered = stage "lower" (fun () -> Imtp.Lowering.lower ~options sched) in
  let prog = stage "passes" (fun () -> Imtp.Passes.run cfg lowered) in
  let post = stage "verify" (fun () -> Imtp.Verifier.check cfg prog) in
  let cost = stage "cost" (fun () -> Imtp.Engine.estimate cfg prog) in
  let (_ : float array) = stage "features" (fun () -> Imtp.Cost_learn.features prog) in
  Result.is_ok pre && Result.is_ok post && Result.is_ok cost

(* Distinct candidates, in first-seen order. *)
let dedup cands =
  let seen = Hashtbl.create 1024 in
  List.filter
    (fun c ->
      let key = (Imtp.Engine.op_key c.op, c.skip_inputs, c.params) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    cands

(* Replays [cands], recording a failure for any measured candidate that
   no longer builds, and returns the per-candidate stage metrics. *)
let run tally cands =
  let cands = dedup cands in
  let t0 = Common.now () in
  Span.run "bench.replay" (fun () ->
      List.iter
        (fun c ->
          let ok =
            match replay_one c with
            | ok -> ok
            | exception (Invalid_argument _ | Imtp.Lowering.Lower_error _) -> false
          in
          Common.record tally ok
            (lazy
              (Printf.sprintf "replay of a measured %s candidate failed: %s"
                 c.op.Imtp.Op.opname (Imtp.Sketch.describe c.params))))
        cands);
  Common.note "replay: %d candidates in %.2f s" (List.length cands) (Common.now () -. t0);
  let totals = Span.self_times () in
  let n = float_of_int (max 1 (List.length cands)) in
  let per name = Common.ms (Span.self_s totals ("bench.replay." ^ name)) /. n in
  [
    ("engine.sketch_ms_per_cand", per "sketch");
    ("engine.verify_ms_per_cand", per "verify");
    ("lower.ms_per_cand", per "lower");
    ("passes.ms_per_cand", per "passes");
    ("tir.cost_ms_per_cand", per "cost");
    ("autotune.features_ms_per_cand", per "features");
  ]
