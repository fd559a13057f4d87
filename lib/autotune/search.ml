module Obs = Imtp_obs.Obs

type strategy = { balanced_sampling : bool; adaptive_epsilon : bool }

let tvm_default = { balanced_sampling = false; adaptive_epsilon = false }
let imtp_default = { balanced_sampling = true; adaptive_epsilon = true }

type record = {
  trial : int;
  island : int;
  params : Sketch.params;
  latency_s : float;
  best_so_far : float;
  measured : bool;
  predicted_s : float option;
}

type island_stats = {
  island : int;
  island_trials : int;
  island_generations : int;
  island_measured : int;
  island_skipped : int;
  island_invalid : int;
  island_migrations : int;
  island_best_s : float option;
}

type outcome = {
  best : Measure.result option;
  history : record list;
  invalid_candidates : int;
  rejections : (string * int) list;
  measured : int;
  measured_trials : int;
  skipped : int;
  cache_hits : int;
  elapsed_s : float;
  interrupted : bool;
  islands : int;
  per_island : island_stats list;
}

(* A population member: a candidate and its latency, measured (by this
   island or, for a migrant, by the island it came from) or, under the
   gate, predicted. *)
type member = Sketch.params * float * bool

(* Bucket an engine error for the rejection tally: verifier rejections
   keep their constraint name (dpus/tasklets/mram/wram/iram/dma), other
   stages tally under the stage that failed. *)
let rejection_bucket : Engine.error -> string = function
  | Engine.Verifier_rejected r -> r.Verifier.constraint_name
  | Engine.Sketch_invalid _ -> "sketch"
  | Engine.Lower_failed _ -> "lower"
  | Engine.Cost_failed _ -> "cost"

let population_size = 16
let top_k = 8
let mutations_per_pick = 4
let exploration_fraction = 0.4
let migration_elites = 2
let migrate_every = 2  (* generations between migration boundaries *)
let max_islands = 64

let epsilon strategy ~trial ~trials =
  if strategy.adaptive_epsilon then begin
    let cutoff = exploration_fraction *. float_of_int trials in
    if float_of_int trial >= cutoff then 0.05
    else 0.5 -. (0.45 *. float_of_int trial /. cutoff)
  end
  else 0.05

let by_latency = fun (_, a, _) (_, b, _) -> Float.compare a b
let take n l = List.filteri (fun i _ -> i < n) l

(* [chunks sizes a] cuts [a] into consecutive pieces of the given sizes. *)
let chunks sizes a =
  let off = ref 0 in
  List.map
    (fun n ->
      let piece = Array.sub a !off n in
      off := !off + n;
      piece)
    sizes

(* The generational population: with balanced sampling active, half the
   slots are reserved for each design space (rfactor / non-rfactor)
   while candidates of both exist, so neither family is prematurely
   dropped (§5.2.3); otherwise it is a plain truncation by fitness —
   and a family that falls out of the population can only re-enter
   through ε-random sampling, which is how the unbalanced search gets
   stuck. *)
let truncate_population strategy ~early pool =
  let sorted = List.sort by_latency pool in
  if strategy.balanced_sampling && early then begin
    let rf, no_rf = List.partition (fun (p, _, _) -> Sketch.uses_rfactor p) sorted in
    let half = population_size / 2 in
    let a = take half rf and b = take half no_rf in
    let rest =
      List.filter
        (fun c -> not (List.memq c a || List.memq c b))
        sorted
    in
    take population_size (List.sort by_latency (a @ b) @ rest)
  end
  else take population_size sorted

let parent_pool strategy ~early population =
  let sorted = List.sort by_latency population in
  if strategy.balanced_sampling && early then begin
    let rf, no_rf = List.partition (fun (p, _, _) -> Sketch.uses_rfactor p) sorted in
    let half = max 1 (top_k / 2) in
    match take half rf @ take half no_rf with
    | [] -> take top_k sorted
    | pool -> pool
  end
  else take top_k sorted

let elites population = take migration_elites (List.sort by_latency population)

(* ------------------------------------------------------------------ *)
(* Islands                                                             *)
(* ------------------------------------------------------------------ *)

(* The mutable working state of one island — the multi-island run keeps
   [k] of these, the single-island run exactly one. *)
type island_ctx = {
  ix : int;
  ix_trials : int;
  rng : Rng.t;
  model : Cost_model.t;
  mutable tir : Cost_learn.t;  (* working copy of the learned model *)
  seen : (Sketch.params, unit) Hashtbl.t;
  skipped_seen : (Sketch.params, unit) Hashtbl.t;
  mutable history : record list;  (* newest first *)
  mutable best : Measure.result option;
  mutable invalid : int;
  rejections : (string, int) Hashtbl.t;
  mutable measured : int;
  mutable skipped : int;
  mutable trial : int;
  mutable population : member list;
  mutable generations : int;
  mutable migrations : int;
  mutable epoch_obs : (float array * float * float option) list;
      (* newest first: (features, latency, gate's log prediction)
         observed since the last model merge — folded into the merged
         model at the next boundary, or after the confirmation passes
         (gated only). *)
}

let run ?(strategy = imtp_default) ?(seed = 2024) ?jobs ?(islands = 1)
    ?skip_inputs ?(use_cost_model = true) ?measure_ratio ?engine ?on_boundary
    ?stop cfg op ~trials =
  let jobs =
    match jobs with Some j -> j | None -> Pool.default_jobs ()
  in
  (* Every island needs at least an initial population's worth of budget
     to evolve anything, so tiny runs shed islands. *)
  let k = max 1 (min (min max_islands islands) (trials / population_size)) in
  (match measure_ratio with
  | Some r when not (r > 0. && r <= 1.) ->
      invalid_arg "Search.run: measure_ratio must be in (0, 1]"
  | Some _ | None -> ());
  Obs.span ~name:"search.run"
    ~attrs:
      [
        ("op", Obs.Str op.Imtp_workload.Op.opname);
        ("trials", Obs.Int trials);
        ("seed", Obs.Int seed);
        ("jobs", Obs.Int jobs);
        ("islands", Obs.Int k);
        ( "measure_ratio",
          Obs.Float (Option.value measure_ratio ~default:1.) );
      ]
  @@ fun () ->
  let t0 = Obs.now_s () in
  let engine =
    match engine with Some e -> e | None -> Engine.create cfg
  in
  (* This run's own hits and simulator runs: a shared engine's
     counters also move with other runs' work. *)
  let ledger = Engine.ledger () in
  let gated = measure_ratio <> None in
  (* Per-island trial budgets: the total splits as evenly as possible,
     earlier islands taking the remainder. *)
  let budget i = (trials / k) + if i < trials mod k then 1 else 0 in
  let fresh_ctx i =
    {
      ix = i;
      ix_trials = budget i;
      (* The single-island rng derivation is the historical one so
         [~islands:1] reproduces every pre-island trace byte-for-byte;
         multi-island runs give each island its own substream. *)
      rng = (if k = 1 then Rng.create ~seed else Rng.stream ~base:seed ~index:i);
      model = Cost_model.create ();
      tir = Cost_learn.create ();
      seen = Hashtbl.create 64;
      skipped_seen = Hashtbl.create 64;
      history = [];
      best = None;
      invalid = 0;
      rejections = Hashtbl.create 8;
      measured = 0;
      skipped = 0;
      trial = 0;
      population = [];
      generations = 0;
      migrations = 0;
      epoch_obs = [];
    }
  in
  let tally cx e =
    cx.invalid <- cx.invalid + 1;
    let b = rejection_bucket e in
    Hashtbl.replace cx.rejections b
      (1 + Option.value (Hashtbl.find_opt cx.rejections b) ~default:0)
  in
  let best_so_far cx =
    match cx.best with Some b -> b.Measure.latency_s | None -> infinity
  in
  (* Every island's records since the last boundary, newest first, in
     the order they were made: [on_boundary] gets them at the next one. *)
  let unflushed = ref [] in
  let add_history cx r =
    cx.history <- r :: cx.history;
    unflushed := r :: !unflushed
  in
  (* [predicted_log] is the gate's prediction for the candidate, which
     the learned model scores its residual against instead of
     refitting per measurement. *)
  let record cx ~prep ?predicted_s ?predicted_log ~trial params
      (m : Engine.measurement) =
    cx.measured <- cx.measured + 1;
    Hashtbl.replace cx.seen params ();
    Hashtbl.remove cx.skipped_seen params;
    let latency_s = m.Engine.latency_s in
    Cost_model.observe cx.model (Cost_model.features cfg op params) latency_s;
    if gated then begin
      let x = Engine.features engine prep in
      Cost_learn.observe ?predicted_log cx.tir x latency_s;
      cx.epoch_obs <- (x, latency_s, predicted_log) :: cx.epoch_obs
    end;
    let r =
      { Measure.params; stats = m.Engine.artifact.Engine.stats; latency_s }
    in
    (match cx.best with
    | Some b when b.Measure.latency_s <= latency_s -> ()
    | Some _ | None ->
        cx.best <- Some r;
        Obs.set_gauge "search.best_latency_s" latency_s);
    Obs.observe "search.trial_latency_s" latency_s;
    add_history cx
      {
        trial;
        island = cx.ix;
        params;
        latency_s;
        best_so_far = best_so_far cx;
        measured = true;
        predicted_s;
      }
  in
  let record_skipped cx ~trial params ~predicted_s =
    cx.skipped <- cx.skipped + 1;
    Hashtbl.replace cx.skipped_seen params ();
    add_history cx
      {
        trial;
        island = cx.ix;
        params;
        latency_s = predicted_s;
        best_so_far = best_so_far cx;
        measured = false;
        predicted_s = Some predicted_s;
      }
  in
  let known cx params =
    Hashtbl.mem cx.seen params || Hashtbl.mem cx.skipped_seen params
  in
  (* One initial-population slot: up to 16 random draws until one is
     admitted.  A draw is prepared, then either admitted on the trained
     gate model's prediction alone or simulated.  One proposal consumes
     one trial; invalid candidates (typed engine errors, cached after
     first rejection) and repeats burn a draw.  Gated, a known draw is
     rejected before it is built; ungated, only after its simulation, so
     a repeat still consumes its noise draw. *)
  let sample cx =
    let rec go attempts =
      if attempts = 0 then None
      else begin
        let retry () = go (attempts - 1) in
        let params = Sketch.random cx.rng cfg op in
        if gated && known cx params then retry ()
        else
          match Engine.prepare engine ~ledger ?skip_inputs op params with
          | Error e ->
              tally cx e;
              retry ()
          | Ok prep when gated && Cost_learn.trained cx.tir ->
              let predicted_s =
                Cost_learn.predict cx.tir (Engine.features engine prep)
              in
              record_skipped cx ~trial:cx.trial params ~predicted_s;
              Some (params, predicted_s, false)
          | Ok prep -> (
              match Engine.simulate engine ~ledger ~rng:cx.rng prep with
              | Error e ->
                  tally cx e;
                  retry ()
              | Ok _ when Hashtbl.mem cx.seen params -> retry ()
              | Ok m ->
                  record cx ~prep ~trial:cx.trial params m;
                  Some (params, m.Engine.latency_s, true))
      end
    in
    go 16
  in
  (* Initial population: random sampling (uniform across design
     spaces, hence unaffected by the balanced sampler). *)
  let init_island cx =
    Obs.span ~name:"search.init" ~attrs:[ ("island", Obs.Int cx.ix) ]
      (fun () ->
        while cx.trial < min cx.ix_trials population_size do
          (match sample cx with
          | Some c -> cx.population <- c :: cx.population
          | None -> ());
          cx.trial <- cx.trial + 1
        done)
  in
  (* The gate: rank the fresh candidates with the learned model and keep
     the top fraction, in proposal order, with the log-latency
     predictions the selection was made from.  The model changes as
     measurements are observed, so predictions are snapshotted here
     (the re-rank invariant tests hold the log to them, and the model
     scores its residuals against them); they exist only once the
     model is trained.  Ungated, every fresh candidate is selected. *)
  let select cx fresh =
    let n = Array.length fresh in
    match measure_ratio with
    | None -> (List.init n Fun.id, Array.make n None)
    | Some ratio ->
        Obs.span ~name:"search.rank" ~attrs:[ ("size", Obs.Int n) ]
        @@ fun () ->
        let feats =
          Array.map (fun (_, _, prep) -> Engine.features engine prep) fresh
        in
        let order, predicted = Cost_learn.rank cx.tir feats in
        let trained = Cost_learn.trained cx.tir in
        let n_sel = if trained then Cost_learn.select_count ~ratio n else n in
        let predicted =
          Array.map (fun l -> if trained then Some l else None) predicted
        in
        Obs.add_attr "selected" (Obs.Int n_sel);
        (List.sort compare (take n_sel order), predicted)
  in
  (* One island's share of a generation, in the stages [step_generation]
     interleaves across islands: propose against the fixed parent pool;
     given the prepared proposals (no simulator, no rng), select and
     draw the noise base; given the simulations of the selected
     candidates, record them and truncate the population.  One [bits]
     draw per generation plus per-slot noise streams make the values
     independent of how many workers run the simulations. *)
  let island_generation cx =
    let early =
      float_of_int cx.trial
      < exploration_fraction *. float_of_int cx.ix_trials
    in
    let parents = parent_pool strategy ~early cx.population in
    let gen_size = min population_size (cx.ix_trials - cx.trial) in
    let propose i =
      let eps =
        epsilon strategy ~trial:(cx.trial + i) ~trials:cx.ix_trials
      in
      if Rng.float cx.rng 1. < eps || parents = [] then
        Sketch.random cx.rng cfg op
      else begin
        let parent, _, _ = Rng.pick cx.rng parents in
        let muts =
          (* mostly single-field mutations, occasionally two fields
             at once to escape coordinate-wise local optima. *)
          List.init mutations_per_pick (fun _ ->
              let m = Sketch.mutate cx.rng cfg op parent in
              if Rng.float cx.rng 1. < 0.3 then Sketch.mutate cx.rng cfg op m
              else m)
        in
        if use_cost_model && Cost_model.trained cx.model then
          List.fold_left
            (fun acc c ->
              let s = Cost_model.predict cx.model (Cost_model.features cfg op c) in
              match acc with
              | Some (_, s') when s' <= s -> acc
              | _ -> Some (c, s))
            None muts
          |> Option.map fst
          |> Option.value ~default:(List.hd muts)
        else List.hd muts
      end
    in
    let candidates = List.init gen_size propose in
    let after_prepare prepared =
      (* (slot, params, prepared) of every candidate not measured before *)
      let fresh =
        prepared
        |> List.mapi (fun i (params, r) ->
               match r with
               | Error e ->
                   tally cx e;
                   None
               | Ok _ when Hashtbl.mem cx.seen params -> None
               | Ok prep -> Some (i, params, prep))
        |> List.filter_map Fun.id |> Array.of_list
      in
      let selected, predicted = select cx fresh in
      let base = Rng.bits cx.rng in
      (* A candidate proposed twice is simulated for its first slot only;
         selection is in proposal order, so the noise-stream indices are
         independent of the ranking. *)
      let sel =
        let dup = Hashtbl.create 16 in
        List.filter
          (fun idx ->
            let _, params, _ = fresh.(idx) in
            if Hashtbl.mem dup params then false
            else begin
              Hashtbl.replace dup params ();
              true
            end)
          selected
        |> Array.of_list
      in
      let simulate si () =
        let i, _, prep = fresh.(sel.(si)) in
        Engine.simulate engine ~ledger ~rng:(Rng.stream ~base ~index:i) prep
      in
      let after_simulate sims =
        let measured_now = Array.make (Array.length fresh) None in
        Array.iteri
          (fun si result ->
            let idx = sel.(si) in
            let i, params, prep = fresh.(idx) in
            match result with
            | Error e -> tally cx e
            | Ok m ->
                record cx ~prep
                  ?predicted_s:(Option.map exp predicted.(idx))
                  ?predicted_log:predicted.(idx) ~trial:(cx.trial + i) params m;
                measured_now.(idx) <- Some (params, m.Engine.latency_s, true))
          sims;
        Obs.incr ~by:(List.length selected) "search.gate.measured";
        Obs.incr
          ~by:(Array.length fresh - List.length selected)
          "search.gate.skipped";
        (* Unselected candidates join the population on their predicted
           latency; a repeat of a candidate measured or admitted before
           burns its trial silently. *)
        let offspring =
          Array.to_list fresh
          |> List.mapi (fun idx (i, params, _) ->
                 match (measured_now.(idx), Option.map exp predicted.(idx)) with
                 | (Some _ as c), _ -> c
                 | None, Some predicted_s
                   when Float.is_finite predicted_s && not (known cx params) ->
                     record_skipped cx ~trial:(cx.trial + i) params ~predicted_s;
                     Some (params, predicted_s, false)
                 | None, _ -> None)
          |> List.filter_map Fun.id
        in
        cx.trial <- cx.trial + gen_size;
        cx.population <-
          truncate_population strategy ~early (cx.population @ offspring);
        cx.generations <- cx.generations + 1;
        List.length offspring
      in
      (Array.init (Array.length sel) simulate, after_simulate)
    in
    (candidates, after_prepare)
  in
  (* One lockstep generation of the islands [cxs] with budget left
     (budgets differ by at most one trial, so they all stand at the same
     trial): every island's proposals go through one engine batch and
     every island's selected candidates through one pool map, then each
     island records its own results, in island order. *)
  let step_generation cxs =
    Obs.span ~name:"search.generation"
      ~attrs:[ ("trial", Obs.Int (List.hd cxs).trial) ]
    @@ fun () ->
    let proposed = List.map island_generation cxs in
    let prepared =
      Engine.prepare_batch engine ~ledger ~jobs ?skip_inputs op
        (List.concat_map fst proposed)
      |> Array.of_list
    in
    let selected =
      List.map2
        (fun (_, after_prepare) p -> after_prepare (Array.to_list p))
        proposed
        (chunks (List.map (fun (c, _) -> List.length c) proposed) prepared)
    in
    let sims = Array.concat (List.map fst selected) in
    let results = Pool.map ~jobs (fun i -> sims.(i) ()) (Array.length sims) in
    let accepted =
      List.map2
        (fun (_, after_simulate) r -> after_simulate r)
        selected
        (chunks (List.map (fun (s, _) -> Array.length s) selected) results)
    in
    let sum f = List.fold_left (fun a x -> a + f x) 0 in
    Obs.add_attr "size" (Obs.Int (sum (fun (c, _) -> List.length c) proposed));
    Obs.add_attr "accepted" (Obs.Int (sum Fun.id accepted));
    Obs.add_attr "population"
      (Obs.Int (sum (fun cx -> List.length cx.population) cxs));
    let best =
      List.fold_left (fun a cx -> Float.min a (best_so_far cx)) infinity cxs
    in
    if Float.is_finite best then Obs.add_attr "best_s" (Obs.Float best)
  in
  (* Confirmation pass (gated only): the final population may hold
     predicted-only candidates the model ranks better than anything
     measured — simulate the most promising few before declaring a
     winner, so a model that found the optimum late still cashes it
     in.  Bounded by a small budget so the simulator ledger stays
     ~ratio-proportional.  A migrant the sibling island measured is no
     prediction: it is neither re-simulated nor scored as one. *)
  let confirm cx =
    match measure_ratio with
    | None -> ()
    | Some ratio ->
        Obs.span ~name:"search.confirm"
          ~attrs:[ ("island", Obs.Int cx.ix) ]
        @@ fun () ->
        let budget = max 3 (Cost_learn.select_count ~ratio population_size) in
        let promising =
          List.filter
            (fun (p, l, measured) ->
              (not measured) && (not (Hashtbl.mem cx.seen p))
              && l < best_so_far cx)
            cx.population
          |> List.stable_sort by_latency |> take budget
        in
        Obs.add_attr "candidates" (Obs.Int (List.length promising));
        List.iter
          (fun (params, predicted_s, _) ->
            match Engine.prepare engine ~ledger ?skip_inputs op params with
            | Error e -> tally cx e
            | Ok prep -> (
                match Engine.simulate engine ~ledger ~rng:cx.rng prep with
                | Error e -> tally cx e
                | Ok m ->
                    record cx ~prep ~predicted_s
                      ~predicted_log:(log predicted_s) ~trial:cx.trial params m;
                    cx.trial <- cx.trial + 1))
          promising
  in
  let should_stop () = match stop with Some f -> f () | None -> false in
  let apply_migration cx migrants =
    let fresh =
      List.filter
        (fun (p, _, _) ->
          not (List.exists (fun (q, _, _) -> q = p) cx.population))
        migrants
    in
    if fresh <> [] then begin
      cx.migrations <- cx.migrations + List.length fresh;
      Obs.incr ~by:(List.length fresh) "search.migrations";
      let early =
        float_of_int cx.trial
        < exploration_fraction *. float_of_int cx.ix_trials
      in
      cx.population <-
        truncate_population strategy ~early (cx.population @ fresh)
    end
  in
  (* ---------------- the lockstep loop ------------------------------ *)
  (* The one learned model merged from every island's observations:
     each boundary folds the epoch's observations into it in island
     order, and every island starts the next epoch from a copy. *)
  let shared_tir = Cost_learn.create () in
  let ctxs = Array.init k fresh_ctx in
  let has_budget cx = cx.trial < cx.ix_trials in
  let replay_epoch cx =
    List.iter
      (fun (x, y, predicted_log) ->
        Cost_learn.observe ?predicted_log shared_tir x y)
      (List.rev cx.epoch_obs);
    cx.epoch_obs <- []
  in
  (* The boundary after the epoch the islands [active] stepped through
     (all islands at boundary 0): merge the model, migrate, hand the
     records made since the previous boundary to [on_boundary], then
     poll [stop] once.  Returns true when the run stops here. *)
  let boundary b active =
    let observers = List.filter (fun cx -> cx.epoch_obs <> []) active in
    (match observers with
    | [ cx ] ->
        (* A lone observer started the epoch holding the merged model
           and observed exactly its epoch, in order: its model is what
           the replay would compute. *)
        Cost_learn.adopt shared_tir ~from:cx.tir;
        cx.epoch_obs <- []
    | _ -> List.iter replay_epoch observers);
    (* Every island started the epoch holding the merged model, so one
       that made every observation already holds the merge; the others
       take a copy. *)
    List.iter
      (fun cx ->
        if List.exists (fun o -> o != cx) observers then
          cx.tir <- Cost_learn.copy shared_tir)
      active;
    (* Each island imports the elites of its ring predecessor's
       pre-migration population; an island done at an earlier boundary
       supplies its final one. *)
    if b > 0 then begin
      let sources = Array.map (fun cx -> cx.population) ctxs in
      List.iter
        (fun cx -> apply_migration cx (elites sources.((cx.ix + k - 1) mod k)))
        active
    end;
    let records = !unflushed in
    unflushed := [];
    (match on_boundary with
    | None -> ()
    | Some f ->
        Obs.incr "search.checkpoints";
        f (List.rev records));
    (* After the callback, so a [stop] keyed on the boundaries it has
       seen lands on this boundary, not the next. *)
    should_stop ()
  in
  (* A single island has nothing to migrate, so every generation is a
     boundary. *)
  let generations_per_boundary = if k = 1 then 1 else migrate_every in
  (* Epochs from boundary [b] on, until every island's budget is spent
     or [stop] asks; true when stopped. *)
  let rec epochs b =
    match List.filter has_budget (Array.to_list ctxs) with
    | [] -> false
    | active ->
        for _ = 1 to generations_per_boundary do
          match List.filter has_budget active with
          | [] -> ()
          | cxs -> step_generation cxs
        done;
        boundary (b + 1) active || epochs (b + 1)
  in
  Array.iter init_island ctxs;
  let interrupted = boundary 0 (Array.to_list ctxs) || epochs 0 in
  if not interrupted then Array.iter confirm ctxs;
  (* The confirmation passes' observations join the merged model too,
     so its error gauge covers every island's measurements. *)
  Array.iter replay_epoch ctxs;
  let ctxs = Array.to_list ctxs in
  (* ---------------- outcome --------------------------------------- *)
  let elapsed_s = Obs.now_s () -. t0 in
  let total f = List.fold_left (fun a cx -> a + f cx) 0 ctxs in
  let trials_used = total (fun cx -> cx.trial) in
  let measured = total (fun cx -> cx.measured) in
  let skipped = total (fun cx -> cx.skipped) in
  let invalid = total (fun cx -> cx.invalid) in
  Obs.incr ~by:trials_used "search.trials";
  Obs.incr ~by:measured "search.measured";
  Obs.incr ~by:skipped "search.skipped";
  Obs.incr ~by:invalid "search.invalid";
  let measured_trials = Engine.ledger_costed ledger in
  let cache_hits = Engine.ledger_hits ledger in
  Obs.incr ~by:cache_hits "search.cache_hits";
  Obs.incr ~by:measured_trials "search.measured_trials";
  (match Cost_learn.mean_abs_log_err shared_tir with
  | Some e -> Obs.set_gauge "search.model_abs_log_err" e
  | None -> ());
  if elapsed_s > 0. then
    Obs.set_gauge "search.trials_per_s"
      (float_of_int trials_used /. elapsed_s);
  let rejections =
    let merged = Hashtbl.create 8 in
    List.iter
      (fun cx ->
        Hashtbl.iter
          (fun key n ->
            Hashtbl.replace merged key
              (n + Option.value (Hashtbl.find_opt merged key) ~default:0))
          cx.rejections)
      ctxs;
    Hashtbl.fold (fun key n acc -> (key, n) :: acc) merged []
    |> List.sort (fun (ka, na) (kb, nb) ->
           match Int.compare nb na with
           | 0 -> String.compare ka kb
           | c -> c)
  in
  let best =
    List.fold_left
      (fun acc cx ->
        match (acc, cx.best) with
        | None, b -> b
        | Some a, Some b when b.Measure.latency_s < a.Measure.latency_s ->
            Some b
        | acc, _ -> acc)
      None ctxs
  in
  let per_island =
    List.map
      (fun cx ->
        {
          island = cx.ix;
          island_trials = cx.trial;
          island_generations = cx.generations;
          island_measured = cx.measured;
          island_skipped = cx.skipped;
          island_invalid = cx.invalid;
          island_migrations = cx.migrations;
          island_best_s =
            Option.map (fun b -> b.Measure.latency_s) cx.best;
        })
      ctxs
  in
  {
    best;
    history = List.concat_map (fun cx -> List.rev cx.history) ctxs;
    invalid_candidates = invalid;
    rejections;
    measured;
    measured_trials;
    skipped;
    cache_hits;
    elapsed_s;
    interrupted;
    islands = k;
    per_island;
  }
