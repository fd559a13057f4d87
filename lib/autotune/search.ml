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
  resumed_from : int option;
  islands : int;
  per_island : island_stats list;
}

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)
(* ------------------------------------------------------------------ *)

(* A population member: a candidate and its latency, measured (by this
   island or, for a migrant, by the island it came from) or, under the
   gate, predicted. *)
type member = Sketch.params * float * bool

(* Everything one island's loop mutates, snapshotted at a boundary
   (with one island, every generation).  All fields
   are plain data (no closures), so a checkpoint marshals to disk
   as-is ({!Checkpoint}); [Rng.t] serializes its exact draw position,
   which is what makes resumption bit-identical.  The engine's memo
   tables are deliberately NOT part of the state: cached artifacts are
   a pure function of their candidate, so a resumed run on a cold
   cache rebuilds the same values — only the cache-ledger fields of
   the outcome ([cache_hits], [measured_trials]) reflect the
   executions this process actually paid for. *)
type island_state = {
  il_island : int;
  il_trials : int;  (* this island's trial budget *)
  il_rng : Rng.t;
  il_model : Cost_model.t;
  il_seen : (Sketch.params, unit) Hashtbl.t;
  il_skipped_seen : (Sketch.params, unit) Hashtbl.t;
  il_history : record list;  (* newest first, as the loop keeps it *)
  il_best : Measure.result option;
  il_invalid : int;
  il_rejections : (string, int) Hashtbl.t;
  il_measured : int;
  il_skipped : int;
  il_trial : int;
  il_population : member list;
  il_generations : int;
  il_migrations : int;
  il_done : bool;  (* trial budget exhausted *)
  il_migrated : bool;
      (* whether the migration of the snapshot's boundary has already
         been applied to [il_population]; a resumed island replays the
         migration when this is false. *)
}

type checkpoint = {
  ck_format : int;
  ck_op_key : string;  (* Engine.op_key, pins the operator identity *)
  ck_op_name : string;
  ck_seed : int;
  ck_trials : int;
  ck_strategy : strategy;
  ck_use_cost_model : bool;
  ck_measure_ratio : float option;
  ck_islands : int;
  ck_boundary : int;  (* generations (k=1) or migration boundary (k>1) *)
  ck_tir_model : Cost_learn.t;
      (* the shared model merged from every island's observations
         through [ck_boundary] *)
  ck_states : island_state array;  (* length ck_islands, island order *)
  ck_measured_trials : int;  (* cumulative simulator ledger *)
  ck_cache_hits : int;  (* cumulative engine-cache hits *)
  ck_elapsed_s : float;  (* wall clock consumed before the snapshot *)
}

(* Bump whenever the checkpoint layout (or anything it transitively
   contains) changes incompatibly; {!run} rejects other formats.
   Format 2: island-aware checkpoints.  Format 3: the mutation ranker
   is a [Cost_learn.t].  Format 4: population members record whether
   their latency was measured; the migration cadence and the learned
   model's training threshold are constants. *)
let checkpoint_format = 4

let checkpoint_trial ck =
  Array.fold_left (fun a s -> a + s.il_trial) 0 ck.ck_states

let checkpoint_trials ck = ck.ck_trials
let checkpoint_seed ck = ck.ck_seed
let checkpoint_measure_ratio ck = ck.ck_measure_ratio
let checkpoint_islands ck = ck.ck_islands
let checkpoint_boundary ck = ck.ck_boundary

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
         observed since the last model merge — published at the next
         boundary (gated only). *)
  mutable done_ : bool;
}

(* What one island publishes at a boundary: its pre-migration population
   (the ring successor's migration source) and its epoch's model
   observations in chronological order.  Both are immutable, so
   publishing copies nothing; full state snapshots are only taken when
   the boundary is checkpointed. *)
type publication = {
  pub_population : member list;
  pub_obs : (float array * float * float option) list;
}

(* Rendezvous state shared by all islands of one run.  [shared_tir] is
   the one mutex-guarded learned cost model: at every boundary the
   first island past the rendezvous folds all islands' epoch
   observations into it in (boundary, island) order — a deterministic
   merge — and every island then continues from a copy. *)
type island_shared = {
  sm : Mutex.t;
  scv : Condition.t;
  pubs : (int * int, publication) Hashtbl.t;
      (* (island, boundary); only the latest merged boundary is kept *)
  final : island_state option array;  (* post-migration state once done *)
  done_at : int option array;
  shared_tir : Cost_learn.t;
  mutable merged_boundary : int;
  mutable stop_boundary : int option;
  mutable failed : exn option;
}

exception Island_aborted

let run ?(strategy = imtp_default) ?(seed = 2024) ?jobs ?(islands = 1)
    ?skip_inputs ?(use_cost_model = true) ?measure_ratio ?engine ?resume
    ?on_checkpoint ?(checkpoint_every = 1) ?stop cfg op ~trials =
  let jobs =
    match jobs with Some j -> j | None -> Pool.default_jobs ()
  in
  if checkpoint_every < 1 then
    invalid_arg "Search.run: checkpoint_every must be >= 1";
  let op_key = Engine.op_key op in
  (* A resumed run replays the killed run's own configuration — the
     caller's seed/strategy/gating/island arguments are overridden by
     the checkpoint, because mixing a serialized rng stream with
     different search dynamics could not be bit-identical to
     anything. *)
  let strategy, seed, use_cost_model, measure_ratio, trials, islands =
    match resume with
    | None ->
        (* Every island needs at least an initial population's worth of
           budget to evolve anything, so tiny runs shed islands. *)
        let k = max 1 (min (min max_islands islands) (trials / population_size)) in
        (strategy, seed, use_cost_model, measure_ratio, trials, k)
    | Some ck ->
        if ck.ck_format <> checkpoint_format then
          invalid_arg
            (Printf.sprintf
               "Search.run: checkpoint format %d, this build speaks %d"
               ck.ck_format checkpoint_format);
        if ck.ck_op_key <> op_key then
          invalid_arg
            (Printf.sprintf
               "Search.run: checkpoint was recorded for op %s, not %s"
               ck.ck_op_name op.Imtp_workload.Op.opname);
        ( ck.ck_strategy,
          ck.ck_seed,
          ck.ck_use_cost_model,
          ck.ck_measure_ratio,
          ck.ck_trials,
          ck.ck_islands )
  in
  (match measure_ratio with
  | Some r when not (r > 0. && r <= 1.) ->
      invalid_arg "Search.run: measure_ratio must be in (0, 1]"
  | Some _ | None -> ());
  let k = islands in
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
        ( "resumed_from",
          Obs.Int
            (match resume with Some ck -> checkpoint_trial ck | None -> -1) );
      ]
  @@ fun () ->
  let t0 = Obs.now_s () in
  let engine =
    match engine with Some e -> e | None -> Engine.create cfg
  in
  (* This run's own hits and simulator runs: a shared engine's
     counters also move with other runs' work. *)
  let ledger = Engine.ledger () in
  (* Cumulative ledgers carried over from the killed run, so a resumed
     outcome still reports every simulator execution it (transitively)
     paid for. *)
  let base_measured_trials, base_cache_hits, base_elapsed_s =
    match resume with
    | None -> (0, 0, 0.)
    | Some ck -> (ck.ck_measured_trials, ck.ck_cache_hits, ck.ck_elapsed_s)
  in
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
      done_ = false;
    }
  in
  (* Deep-copy every piece of resumed state: the caller may resume the
     same in-memory checkpoint several times (tests do), and a run must
     never mutate the snapshot it started from. *)
  let ctx_of_state ~tir (st : island_state) =
    {
      ix = st.il_island;
      ix_trials = st.il_trials;
      rng = Rng.copy st.il_rng;
      model = Cost_model.copy st.il_model;
      tir;
      seen = Hashtbl.copy st.il_seen;
      skipped_seen = Hashtbl.copy st.il_skipped_seen;
      history = st.il_history;
      best = st.il_best;
      invalid = st.il_invalid;
      rejections = Hashtbl.copy st.il_rejections;
      measured = st.il_measured;
      skipped = st.il_skipped;
      trial = st.il_trial;
      population = st.il_population;
      generations = st.il_generations;
      migrations = st.il_migrations;
      epoch_obs = [];
      done_ = st.il_done;
    }
  in
  let state_of_ctx ?(migrated = false) cx =
    {
      il_island = cx.ix;
      il_trials = cx.ix_trials;
      il_rng = Rng.copy cx.rng;
      il_model = Cost_model.copy cx.model;
      il_seen = Hashtbl.copy cx.seen;
      il_skipped_seen = Hashtbl.copy cx.skipped_seen;
      il_history = cx.history;
      il_best = cx.best;
      il_invalid = cx.invalid;
      il_rejections = Hashtbl.copy cx.rejections;
      il_measured = cx.measured;
      il_skipped = cx.skipped;
      il_trial = cx.trial;
      il_population = cx.population;
      il_generations = cx.generations;
      il_migrations = cx.migrations;
      il_done = cx.done_;
      il_migrated = migrated;
    }
  in
  let ledger_counters () =
    ( base_measured_trials + Engine.ledger_costed ledger,
      base_cache_hits + Engine.ledger_hits ledger,
      base_elapsed_s +. (Obs.now_s () -. t0) )
  in
  let make_checkpoint ~boundary ~tir states =
    let measured_trials, cache_hits, elapsed_s = ledger_counters () in
    {
      ck_format = checkpoint_format;
      ck_op_key = op_key;
      ck_op_name = op.Imtp_workload.Op.opname;
      ck_seed = seed;
      ck_trials = trials;
      ck_strategy = strategy;
      ck_use_cost_model = use_cost_model;
      ck_measure_ratio = measure_ratio;
      ck_islands = k;
      ck_boundary = boundary;
      ck_tir_model = Cost_learn.copy tir;
      ck_states = states;
      ck_measured_trials = measured_trials;
      ck_cache_hits = cache_hits;
      ck_elapsed_s = elapsed_s;
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
    cx.history <-
      {
        trial;
        island = cx.ix;
        params;
        latency_s;
        best_so_far = best_so_far cx;
        measured = true;
        predicted_s;
      }
      :: cx.history
  in
  let record_skipped cx ~trial params ~predicted_s =
    cx.skipped <- cx.skipped + 1;
    Hashtbl.replace cx.skipped_seen params ();
    cx.history <-
      {
        trial;
        island = cx.ix;
        params;
        latency_s = predicted_s;
        best_so_far = best_so_far cx;
        measured = false;
        predicted_s = Some predicted_s;
      }
      :: cx.history
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
     spaces, hence unaffected by the balanced sampler).  A resumed run
     skips it — the restored state is already past it. *)
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
  (* One generation: propose against the fixed parent pool, prepare the
     whole generation (no simulator, no rng), select, then simulate the
     selected candidates through the pool.  One [bits] draw per
     generation plus per-slot noise streams make the values independent
     of how many workers (or islands) run concurrently. *)
  let step_generation cx =
    Obs.span ~name:"search.generation"
      ~attrs:[ ("trial", Obs.Int cx.trial); ("island", Obs.Int cx.ix) ]
    @@ fun () ->
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
    (* (slot, params, prepared) of every candidate not measured before *)
    let fresh =
      Engine.prepare_batch engine ~ledger ~jobs ?skip_inputs op candidates
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
    let sims =
      Pool.map ~jobs
        (fun si ->
          let i, _, prep = fresh.(sel.(si)) in
          Engine.simulate engine ~ledger ~rng:(Rng.stream ~base ~index:i) prep)
        (Array.length sel)
    in
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
    Obs.add_attr "size" (Obs.Int gen_size);
    Obs.add_attr "accepted" (Obs.Int (List.length offspring));
    Obs.add_attr "population" (Obs.Int (List.length cx.population));
    (match cx.best with
    | Some b -> Obs.add_attr "best_s" (Obs.Float b.Measure.latency_s)
    | None -> ());
    cx.generations <- cx.generations + 1
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
  (* ---------------- the island loop -------------------------------- *)
  let sh =
    {
      sm = Mutex.create ();
      scv = Condition.create ();
      pubs = Hashtbl.create 16;
      final = Array.make k None;
      done_at = Array.make k None;
      shared_tir =
        (match resume with
        | None -> Cost_learn.create ()
        | Some ck -> Cost_learn.copy ck.ck_tir_model);
      merged_boundary =
        (match resume with None -> -1 | Some ck -> ck.ck_boundary);
      stop_boundary = None;
      failed = None;
    }
  in
  let ctxs =
    match resume with
    | None -> Array.init k fresh_ctx
    | Some ck ->
        (* Seed the rendezvous as if every island had just published
           the checkpoint's boundary: the states stand in for the
           publications, the shared model is already merged through it,
           and each island replays whatever tail of the boundary (model
           adoption, migration) its snapshot predates. *)
        Array.iteri
          (fun i st ->
            Hashtbl.replace sh.pubs (i, ck.ck_boundary)
              { pub_population = st.il_population; pub_obs = [] };
            if st.il_done && st.il_migrated then begin
              sh.done_at.(i) <- Some ck.ck_boundary;
              sh.final.(i) <- Some st
            end)
          ck.ck_states;
        Array.map
          (fun st -> ctx_of_state ~tir:(Cost_learn.copy ck.ck_tir_model) st)
          ck.ck_states
  in
  (* A single island has nothing to migrate, so every generation is a
     boundary: checkpoints keep a per-generation cadence and
     [ck_boundary] counts generations. *)
  let generations_per_boundary = if k = 1 then 1 else migrate_every in
  let all_ready b =
    sh.failed <> None
    || (let ready = ref true in
        for j = 0 to k - 1 do
          let ok =
            Hashtbl.mem sh.pubs (j, b)
            || (match sh.done_at.(j) with
               | Some d -> d < b && sh.final.(j) <> None
               | None -> false)
          in
          if not ok then ready := false
        done;
        !ready)
  in
  (* Under [sh.sm], by the boundary's merge leader.  Every island that
     published [b] is parked at the rendezvous until the leader lets go
     of the lock, so its context still holds exactly its pre-migration
     state; islands done at an earlier boundary contribute their final
     post-migration state. *)
  let emit_checkpoint b =
    match on_checkpoint with
    | None -> ()
    | Some f ->
        let states =
          Array.init k (fun j ->
              if Hashtbl.mem sh.pubs (j, b) then state_of_ctx ctxs.(j)
              else Option.get sh.final.(j))
        in
        Obs.incr "search.checkpoints";
        f (make_checkpoint ~boundary:b ~tir:sh.shared_tir states)
  in
  (* Under [sh.sm]: export a done island's post-migration state; later
     boundaries take its elites (and checkpoint its state) from here. *)
  let export_final cx =
    sh.final.(cx.ix) <- Some (state_of_ctx ~migrated:true cx);
    Condition.broadcast sh.scv
  in
  (* The boundary rendezvous: publish, wait for the ring, merge the
     shared model once (deterministic island-order fold), checkpoint,
     then migrate from the ring predecessor.  Returns true when the run
     is stopping. *)
  let island_boundary cx b =
    let pub =
      { pub_population = cx.population; pub_obs = List.rev cx.epoch_obs }
    in
    cx.epoch_obs <- [];
    (* [protect] releases the lock on every exit path: a raising
       [on_checkpoint] must reach [guarded] with the lock free, or its
       re-lock fails and buries the callback's own exception. *)
    let stopping, migrants =
      Mutex.protect sh.sm @@ fun () ->
      Hashtbl.replace sh.pubs (cx.ix, b) pub;
      if cx.done_ then sh.done_at.(cx.ix) <- Some b;
      Condition.broadcast sh.scv;
      while not (all_ready b) do
        Condition.wait sh.scv sh.sm
      done;
      if sh.failed <> None then raise Island_aborted;
      (* No island leaves a boundary before its leader merges it, so the
         merge leader of [b] always finds [b - 1] merged, and nothing
         reads a publication older than [b] again. *)
      if sh.merged_boundary < b then begin
        let obs j =
          match Hashtbl.find_opt sh.pubs (j, b) with
          | Some p -> p.pub_obs
          | None -> []
        in
        (match List.filter (fun j -> obs j <> []) (List.init k Fun.id) with
        | [ j ] ->
            (* A lone observer started the epoch holding the merged
               model and observed exactly its publication, in order: its
               model is what the replay would compute. *)
            Cost_learn.adopt sh.shared_tir ~from:ctxs.(j).tir
        | _ ->
            for j = 0 to k - 1 do
              List.iter
                (fun (x, y, predicted_log) ->
                  Cost_learn.observe ?predicted_log sh.shared_tir x y)
                (obs j)
            done);
        Hashtbl.filter_map_inplace
          (fun (_, bb) p -> if bb < b then None else Some p)
          sh.pubs;
        sh.merged_boundary <- b;
        let periodic = b = 0 || b mod checkpoint_every = 0 in
        if periodic then emit_checkpoint b;
        (* One stop poll per boundary, made by the merge leader so every
           island agrees on where the run ends — after the periodic
           checkpoint, so a [stop] keyed on the checkpoints it has seen
           lands on this boundary rather than the next. *)
        if should_stop () then begin
          sh.stop_boundary <- Some b;
          if not periodic then emit_checkpoint b
        end
      end;
      let stopping = sh.stop_boundary <> None in
      (* Every island starts an epoch holding the merged model, so one
         that made every observation merged at [b] already holds the new
         merge (the fold replayed its own observations in its own order)
         and only has to adopt a copy when another island contributed. *)
      let others_observed =
        List.exists
          (fun j ->
            j <> cx.ix
            &&
            match Hashtbl.find_opt sh.pubs (j, b) with
            | Some p -> p.pub_obs <> []
            | None -> false)
          (List.init k Fun.id)
      in
      if gated && others_observed then
        cx.tir <- Cost_learn.copy sh.shared_tir;
      let migrants =
        if b = 0 || stopping then []
        else begin
          let p = (cx.ix + k - 1) mod k in
          match (Hashtbl.find_opt sh.pubs (p, b), sh.final.(p)) with
          | Some pb, _ -> elites pb.pub_population
          | None, Some st -> elites st.il_population
          | None, None -> []
        end
      in
      (stopping, migrants)
    in
    if migrants <> [] then apply_migration cx migrants;
    if cx.done_ && not stopping then
      Mutex.protect sh.sm (fun () -> export_final cx);
    stopping
  in
  let island_main cx =
    Obs.span ~name:"search.island"
      ~attrs:[ ("island", Obs.Int cx.ix); ("trials", Obs.Int cx.ix_trials) ]
    @@ fun () ->
    let b = ref 0 in
    let stopping = ref false in
    (match resume with
    | Some ck ->
        b := ck.ck_boundary;
        (* Replay the tail of the checkpointed boundary for a snapshot
           taken before its migration. *)
        let st = ck.ck_states.(cx.ix) in
        if not st.il_migrated then begin
          let migrants =
            if !b = 0 then []
            else elites ck.ck_states.((cx.ix + k - 1) mod k).il_population
          in
          if migrants <> [] then apply_migration cx migrants;
          if cx.done_ then
            Mutex.protect sh.sm (fun () ->
                sh.done_at.(cx.ix) <- Some !b;
                export_final cx)
        end
    | None ->
        init_island cx;
        if cx.trial >= cx.ix_trials then cx.done_ <- true;
        stopping := island_boundary cx 0);
    while (not cx.done_) && not !stopping do
      let g = ref 0 in
      while !g < generations_per_boundary && cx.trial < cx.ix_trials do
        step_generation cx;
        incr g
      done;
      if cx.trial >= cx.ix_trials then cx.done_ <- true;
      incr b;
      stopping := island_boundary cx !b
    done;
    if not !stopping then confirm cx
  in
  let guarded cx () =
    try island_main cx with
    | Island_aborted -> ()
    | e ->
        Mutex.protect sh.sm (fun () ->
            if sh.failed = None then sh.failed <- Some e;
            Condition.broadcast sh.scv)
  in
  let rest =
    Array.to_list ctxs
    |> List.filter (fun cx -> cx.ix > 0)
    |> List.map (fun cx -> Thread.create (guarded cx) ())
  in
  guarded ctxs.(0) ();
  List.iter Thread.join rest;
  (match sh.failed with Some e -> raise e | None -> ());
  let interrupted = sh.stop_boundary <> None in
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
  let measured_trials, cache_hits, _ = ledger_counters () in
  Obs.incr ~by:cache_hits "search.cache_hits";
  Obs.incr ~by:measured_trials "search.measured_trials";
  (match Cost_learn.mean_abs_log_err (List.hd ctxs).tir with
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
    elapsed_s = base_elapsed_s +. elapsed_s;
    interrupted;
    resumed_from =
      (match resume with Some ck -> Some (checkpoint_trial ck) | None -> None);
    islands = k;
    per_island;
  }
