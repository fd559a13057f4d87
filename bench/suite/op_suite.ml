(* The single-op tuning workloads.

   paper_ops is the paper's headline (Fig. 9 at both sizes, Fig. 12's
   misaligned shapes, two ragged shapes): ungated search, two islands,
   so every trial pays the full sketch -> lower -> passes -> cost
   pipeline, and the ragged shapes are where boundary checks and the
   pass stack do real work.  gptj_gated is Fig. 10 (GPT-J FC MTVs with
   MRAM-resident weights, attention MMTVs) under the CLI's default
   measurement gate on one island: the learned model replaces most
   simulations, so lowering and ranking dominate instead of costing. *)

open Common

type entry = {
  label : string;
  op : Imtp.Op.t;
  skip_inputs : string list;  (** MRAM-resident weights (§5.4). *)
}

type spec = {
  entries : entry list;
  trials : int;
  islands : int;
  measure_ratio : float option;
  slots : int;
      (** tuning seeds per op: each rep tunes every op once per slot,
          which averages the seed-to-seed spread of tune time. *)
}

let entry ?(skip_inputs = []) label op = { label; op; skip_inputs }

let paper_ops =
  let open Imtp.Ops in
  {
    entries =
      [
        entry "VA(a)" (va (1 lsl 18));
        entry "VA(b)" (va (1 lsl 24));
        entry "RED(a)" (red (1 lsl 18));
        entry "RED(b)" (red (1 lsl 24));
        entry "MTV(a)" (mtv 512 512);
        entry "MTV(b)" (mtv 8192 8192);
        entry "TTV(a)" (ttv 32 64 128);
        entry "TTV(b)" (ttv 128 256 512);
        entry "MMTV(a)" (mmtv 16 64 256);
        entry "MMTV(b)" (mmtv 64 512 256);
        entry "GEVA(a)" (geva ~c:3 ~d:2 (1 lsl 18));
        entry "GEVA(b)" (geva ~c:3 ~d:2 (1 lsl 24));
        entry "GEMV(a)" (gemv ~c:3 512 512);
        entry "GEMV(b)" (gemv ~c:3 8192 8192);
        entry "MTV 2048x1000" (mtv 2048 1000);
        entry "MTV 2001x1024" (mtv 2001 1024);
        entry "MTV 1999x1999" (mtv 1999 1999);
        entry "VA 2^22+3" (va ((1 lsl 22) + 3));
        entry "GEMV 500x500" (gemv ~c:3 500 500);
        entry "MMTV 8x60x60" (mmtv 8 60 60);
      ];
    trials = 160;
    islands = 2;
    measure_ratio = None;
    slots = 2;
  }

let gptj_gated =
  let module G = Imtp.Gptj in
  let fc model =
    List.map
      (fun kind ->
        entry ~skip_inputs:[ "A" ]
          (Printf.sprintf "%s %s" (G.model_name model) (G.fc_kind_name kind))
          (G.fc_op model kind))
      G.fc_kinds
  in
  let mmtv =
    List.concat_map
      (fun batch ->
        List.map
          (fun tokens ->
            entry
              (Printf.sprintf "GPT-J 6B MMTV b=%d T=%d" batch tokens)
              (G.mmtv_op G.Gptj_6b ~batch ~tokens))
          G.token_sizes)
      G.batches
  in
  {
    entries = fc G.Gptj_6b @ fc G.Gptj_30b @ mmtv;
    trials = 256;
    islands = 1;
    measure_ratio = Some 0.2;
    slots = 3;
  }

(* --- baselines ------------------------------------------------------ *)

type baseline = { prim : float; prim_search : float; simplepim : float option }

(* PrIM+search over Prim.grid_search's default grid, through
   [Prim.measure] so resident weights stay resident (grid_search itself
   always transfers every input). *)
let prim_search_resident e =
  let dpus = List.init 4 (fun i -> 1 lsl (8 + i)) in
  let best = ref infinity in
  List.iter
    (fun ndpus ->
      List.iter
        (fun tasklets ->
          List.iter
            (fun cache_bytes ->
              match
                Imtp.Prim.measure ~skip_inputs:e.skip_inputs cfg e.op
                  { Imtp.Prim.default with Imtp.Prim.ndpus; tasklets; cache_bytes }
              with
              | Ok s -> best := Float.min !best (Imtp.Stats.total_s s)
              | Error _ -> ())
            [ 32; 64; 128; 256; 512; 1024; 2048 ])
        [ 8; 16; 24 ])
    dpus;
  if Float.is_finite !best then Ok !best else Error "no valid PrIM configuration"

let baseline e =
  let ( let* ) = Result.bind in
  let* prim =
    Imtp.Prim.measure ~skip_inputs:e.skip_inputs cfg e.op (Imtp.Prim.default_for e.op)
  in
  let* prim_search =
    if e.skip_inputs = [] then
      Result.map (fun (_, s) -> Imtp.Stats.total_s s) (Imtp.Prim.grid_search cfg e.op)
    else prim_search_resident e
  in
  let* simplepim =
    if Imtp.Simplepim.supported e.op then
      Result.map (fun s -> Some (Imtp.Stats.total_s s)) (Imtp.Simplepim.measure cfg e.op)
    else Ok None
  in
  Ok { prim = Imtp.Stats.total_s prim; prim_search; simplepim }

(* Baselines of [entries], each failure recorded against [tally]. *)
let baselines tally entries =
  List.map
    (fun e ->
      let b = baseline e in
      (match b with
      | Ok _ -> ()
      | Error m -> record tally false (lazy (Printf.sprintf "%s: baseline: %s" e.label m)));
      b)
    entries

(* --- tuning --------------------------------------------------------- *)

type slot = { e : entry; index : int; tune_seed : int }

let slots_of spec ~seed =
  List.concat
    (List.mapi
       (fun i e ->
         List.init spec.slots (fun j ->
             { e; index = i; tune_seed = (seed * 1000) + (10 * i) + j }))
       spec.entries)

let tune spec s =
  Span.run "bench.tune"
    ~attrs:[ ("op", Imtp.Obs.Str s.e.label) ]
    (fun () ->
      Imtp.Tuner.tune ~seed:s.tune_seed ~jobs ~islands:spec.islands
        ~trials:spec.trials ?measure_ratio:spec.measure_ratio
        ~skip_inputs:s.e.skip_inputs cfg s.e.op)

type state = {
  baselines : (baseline, string) result array;  (** per entry. *)
  baselines_s : float;
  winners : (slot * Imtp.Tuner.result) list;  (** the warm-up rep. *)
}

let setup spec tally slots () =
  let baselines, baselines_s =
    time (fun () -> Array.of_list (baselines tally spec.entries))
  in
  let winners =
    List.filter_map
      (fun s ->
        match tune spec s with
        | Ok r -> Some (s, r)
        | Error m ->
            record tally false (lazy (Printf.sprintf "%s: tune: %s" s.e.label m));
            None)
      slots
  in
  { baselines; baselines_s; winners }

(* One rep: every op at every slot, cold engines.  Returns per-call wall
   times; each winner must equal the warm-up rep's. *)
let rep spec tally st =
  List.map
    (fun (s, (w : Imtp.Tuner.result)) ->
      let r, dt = time (fun () -> tune spec s) in
      (match r with
      | Ok r ->
          record tally (r.Imtp.Tuner.params = w.Imtp.Tuner.params)
            (lazy
              (Printf.sprintf "%s seed %d: winner %s differs from rep 1's %s"
                 s.e.label s.tune_seed
                 (Imtp.Sketch.describe r.Imtp.Tuner.params)
                 (Imtp.Sketch.describe w.Imtp.Tuner.params)))
      | Error m ->
          record tally false (lazy (Printf.sprintf "%s: tune: %s" s.e.label m)));
      dt)
    st.winners

(* --- validation ----------------------------------------------------- *)

(* Executes every distinct winner of each small-enough op on seeded
   inputs and compares its output with [Op.reference].  Ops with
   resident weights are not executable on their own: the weights would
   never reach MRAM.  Returns, per entry, whether it was validated. *)
let validate ctx spec tally st v =
  let cap = if ctx.smoke then 1 lsl 20 else Check.validation_cap in
  let t0 = now () in
  let validated =
    List.mapi
      (fun i e ->
        let ok = e.skip_inputs = [] && Check.input_elems e.op <= cap in
        if ok then
          Span.run "bench.validate" (fun () ->
              Gc.full_major ();
              let inputs, want = reference v ~seed:(ctx.seed + i) e.op in
              let seen = Hashtbl.create 4 in
              List.iter
                (fun (s, (w : Imtp.Tuner.result)) ->
                  let p = w.Imtp.Tuner.params in
                  if s.index = i && not (Hashtbl.mem seen p) then begin
                    Hashtbl.add seen p ();
                    execute tally v
                      ~what:(Printf.sprintf "%s (%s)" e.label (Imtp.Sketch.describe p))
                      e.op w.Imtp.Tuner.program ~inputs ~want
                  end)
                st.winners);
        ok)
      spec.entries
  in
  note "validation: %d of %d ops in %.2f s"
    (List.length (List.filter Fun.id validated))
    (List.length spec.entries) (now () -. t0);
  Array.of_list validated

(* --- metrics -------------------------------------------------------- *)

let total (r : Imtp.Tuner.result) = Imtp.Stats.total_s r.Imtp.Tuner.stats

let with_baseline st f =
  List.filter_map
    (fun (s, r) ->
      match st.baselines.(s.index) with Ok b -> f b r | Error _ -> None)
    st.winners

let speedups st =
  let geo f = Stat.geomean (with_baseline st f) in
  ( geo (fun b r -> Some (b.prim /. total r)),
    geo (fun b r -> Some (b.prim_search /. total r)),
    match with_baseline st (fun b r -> Option.map (fun sp -> sp /. total r) b.simplepim) with
    | [] -> 0.
    | xs -> Stat.geomean xs )

(* Where the final best was first proposed, as a fraction of the
   budget; island-local trial indices advance in parallel. *)
let converge_frac spec (o : Imtp.Search.outcome) =
  match o.Imtp.Search.best with
  | None -> 1.
  | Some b -> (
      match
        List.find_opt
          (fun (r : Imtp.Search.record) ->
            r.Imtp.Search.measured && r.Imtp.Search.params = b.Imtp.Measure.params)
          o.Imtp.Search.history
      with
      | None -> 1.
      | Some r ->
          Float.min 1.
            (float_of_int ((r.Imtp.Search.trial + 1) * o.Imtp.Search.islands)
            /. float_of_int spec.trials))

(* Cost-model quality over the measured trials that carried a
   prediction: per-tune Spearman rank correlation (median over tunes)
   and the median absolute log error over all of them. *)
let model_quality st =
  let per_tune =
    List.map
      (fun (_, (r : Imtp.Tuner.result)) ->
        List.filter_map
          (fun (h : Imtp.Search.record) ->
            match h.Imtp.Search.predicted_s with
            | Some p when h.Imtp.Search.measured -> Some (p, h.Imtp.Search.latency_s)
            | _ -> None)
          r.Imtp.Tuner.search.Imtp.Search.history)
      st.winners
  in
  let corrs =
    List.filter_map
      (fun pairs -> if List.length pairs >= 3 then Some (Stat.spearman pairs) else None)
      per_tune
  in
  let errs =
    List.concat_map
      (List.map (fun (p, l) -> Float.abs (log p -. log l)))
      per_tune
  in
  ( (match corrs with [] -> 0. | xs -> Stat.median xs),
    match errs with [] -> 0. | xs -> Stat.median xs )

let layer_metrics spec st ~validated ~calls ~rep_s =
  let results = List.map snd st.winners in
  let n = float_of_int (max 1 (List.length results)) in
  let per f = Stat.sum (List.map (fun r -> float_of_int (f r)) results) /. n in
  let cache f = per (fun r -> f r.Imtp.Tuner.cache) in
  let search f = per (fun r -> f r.Imtp.Tuner.search) in
  let lookups = cache (fun c -> c.Imtp.Engine.lookups) in
  let rank_corr, pred_err = model_quality st in
  [
    ("engine.built", cache (fun c -> c.Imtp.Engine.built));
    ("engine.costed", cache (fun c -> c.Imtp.Engine.costed));
    ("engine.failed", cache (fun c -> c.Imtp.Engine.failed));
    ( "engine.hit_rate",
      if lookups > 0. then cache (fun c -> c.Imtp.Engine.hits) /. lookups else 0. );
    ( "autotune.trials_per_s",
      float_of_int (calls * spec.trials) /. rep_s );
    ( "autotune.measured_frac",
      search (fun o -> o.Imtp.Search.measured_trials) /. float_of_int spec.trials );
    ("autotune.invalid", search (fun o -> o.Imtp.Search.invalid_candidates));
    ("autotune.rank_corr", rank_corr);
    ("autotune.pred_abs_log_err_p50", pred_err);
    ( "autotune.converge_frac",
      Stat.median (List.map (fun r -> converge_frac spec r.Imtp.Tuner.search) results) );
  ]
  (* Counting branches enumerates every loop iteration, which the
     large shapes make far too slow: only validated ops' winners. *)
  @ pass_layer
      (List.filter_map
         (fun (s, (r : Imtp.Tuner.result)) ->
           if validated.(s.index) then Some r.Imtp.Tuner.program else None)
         st.winners)
  @ upmem_layer (List.map (fun r -> r.Imtp.Tuner.stats) results)

let program_rows spec st ~validated best =
  List.map2
    (fun (s, (r : Imtp.Tuner.result)) best ->
      let o = r.Imtp.Tuner.search in
      let b = st.baselines.(s.index) in
      let bl f = match b with Ok b -> jnum (ms (f b)) | Error _ -> Json.Null in
      Json.Obj
        [
          ("op", jstr s.e.label);
          ("shape", jstr (Format.asprintf "%a" Imtp.Op.pp s.e.op));
          ("seed", jint s.tune_seed);
          ("trials", jint spec.trials);
          ("islands", jint o.Imtp.Search.islands);
          ("params", jstr (Imtp.Tuning_log.params_to_string r.Imtp.Tuner.params));
          ("modeled", stats_json r.Imtp.Tuner.stats);
          ( "baseline",
            Json.Obj
              [
                ("prim_ms", bl (fun b -> b.prim));
                ("prim_search_ms", bl (fun b -> b.prim_search));
                ( "simplepim_ms",
                  match b with
                  | Ok { simplepim = Some sp; _ } -> jnum (ms sp)
                  | Ok _ | Error _ -> Json.Null );
              ] );
          ( "tune",
            Json.Obj
              [
                ("wall_ms_best", jnum (ms best));
                ("sims", jint o.Imtp.Search.measured_trials);
                ("invalid", jint o.Imtp.Search.invalid_candidates);
                ("cache_hits", jint o.Imtp.Search.cache_hits);
              ] );
          ("validated", Json.Bool validated.(s.index));
        ])
    st.winners best

(* --- the run -------------------------------------------------------- *)

let run spec ctx =
  let tally = tally () in
  let slots = slots_of spec ~seed:ctx.seed in
  let st, setup_s = repeated_setup ctx ~teardown:ignore (setup spec tally slots) in
  (* Rep 1 is the warm-up inside set-up; timed reps repeat it. *)
  let reps = ref [] in
  let loop seconds =
    ignore
      (measure_loop { ctx with seconds } (fun _ ->
           reps := rep spec tally st :: !reps))
  in
  (* Peak memory is read when the timed reps end: the tuner's, before
     validation executes the winners. *)
  let v = validation () in
  let untraced_reps, peak, traced_wall, traced_reps, validated, replay =
    if not ctx.trace then begin
      loop ctx.seconds;
      let peak = peak_rss_mb () in
      (!reps, peak, 0., [], validate ctx spec tally st v, [])
    end
    else begin
      loop (ctx.seconds /. 2.);
      let untraced = !reps and peak = peak_rss_mb () in
      reps := [];
      let (validated, replay), wall =
        with_tracing ctx (fun () ->
            loop (ctx.seconds /. 2.);
            let validated = validate ctx spec tally st v in
            let cands =
              List.concat_map
                (fun (s, (r : Imtp.Tuner.result)) ->
                  List.filter_map
                    (fun (h : Imtp.Search.record) ->
                      if h.Imtp.Search.measured then
                        Some
                          {
                            Replay.op = s.e.op;
                            skip_inputs = s.e.skip_inputs;
                            params = h.Imtp.Search.params;
                          }
                      else None)
                    r.Imtp.Tuner.search.Imtp.Search.history)
                st.winners
            in
            (validated, Replay.run tally cands))
      in
      (untraced, peak, wall, !reps, validated, replay)
    end
  in
  let best = per_call_best untraced_reps in
  let rep_s = Stat.sum best in
  let prim, prim_search, spim = speedups st in
  let e2e =
    [
      ("setup_s", setup_s);
      ( "modeled_ms_geomean",
        Stat.geomean (List.map (fun (_, r) -> ms (total r)) st.winners) );
      ("speedup_vs_prim", prim);
      ("speedup_vs_prim_search", prim_search);
      ("tune_s", rep_s);
      ("call_ms_p50", ms (Stat.percentile 0.5 best));
      ("call_ms_p75", ms (Stat.percentile 0.75 best));
      ("peak_rss_mb", peak);
    ]
  in
  let layer =
    if not ctx.trace then []
    else
      let n_validated = List.length (List.filter Fun.id (Array.to_list validated)) in
      layer_metrics spec st ~validated ~calls:(List.length best) ~rep_s
      @ validation_layer v @ replay
      @ [
          ("baselines.s", st.baselines_s);
          ("baselines.speedup_vs_simplepim", spim);
          ( "tensor.validated_frac",
            float_of_int n_validated /. float_of_int (List.length spec.entries) );
          ( "obs.trace_overhead_frac",
            (Stat.sum (per_call_best traced_reps) /. rep_s) -. 1. );
        ]
      @ self_frac_layer ~wall_s:traced_wall
  in
  {
    attempted = tally.attempted;
    failed = tally.failed;
    islands = spec.islands;
    e2e;
    layer;
    programs = program_rows spec st ~validated best;
  }
