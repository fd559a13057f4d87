let log_src = Logs.Src.create "imtp.engine" ~doc:"IMTP build/measure engine"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Obs = Imtp_obs.Obs
module Op = Imtp_workload.Op
module L = Imtp_lower.Lowering
module Pl = Imtp_passes.Pipeline
module Cost = Imtp_tir.Cost
module Stats = Imtp_upmem.Stats

type error =
  | Sketch_invalid of string
  | Verifier_rejected of Verifier.rejection
  | Lower_failed of string
  | Cost_failed of string

let error_to_string = function
  | Sketch_invalid m -> "sketch: " ^ m
  | Verifier_rejected r -> "verifier: " ^ r.Verifier.reason
  | Lower_failed m -> "lower: " ^ m
  | Cost_failed m -> "cost: " ^ m

type artifact = {
  key : string;
  sched : Imtp_schedule.Sched.t;
  lowered : Imtp_tir.Program.t;
  program : Imtp_tir.Program.t;
  stats : Imtp_upmem.Stats.t;
}

type measurement = { artifact : artifact; latency_s : float; from_cache : bool }

type prepared = {
  pkey : string;
  psched : Imtp_schedule.Sched.t;
  plowered : Imtp_tir.Program.t;
  pprogram : Imtp_tir.Program.t;
}

type counters = {
  lookups : int;
  hits : int;
  misses : int;
  evictions : int;
  built : int;
  failed : int;
  costed : int;
  sketch_s : float;
  lower_s : float;
  passes_s : float;
  verify_s : float;
  cost_s : float;
}

(* One memo-table entry per fingerprint: the candidate's cost-free
   prefix, then its cost outcome once simulated and its model features
   once extracted.  The mutable fields are written under the engine
   lock; batches hold entries directly, so an eviction mid-batch never
   changes what a slot reads. *)
type entry = {
  prefix : (prepared, error) result;
  mutable cost : (Stats.t, error) result option;
  mutable feats : float array option;
}

type t = {
  cfg : Imtp_upmem.Config.t;
  max_entries : int;
  lock : Mutex.t;
      (* Guards [entries], [lowerings], the entries' mutable fields and
         [c].  Stage work (sketch, lower, passes, verify, cost) always
         runs outside the lock, so parallel builds only contend on table
         lookups and counter bumps. *)
  entries : (string, entry) Hashtbl.t;
  lowerings : (string, (Imtp_tir.Program.t, error) result) Hashtbl.t;
  mutable c : counters;
}

let zero_counters =
  {
    lookups = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    built = 0;
    failed = 0;
    costed = 0;
    sketch_s = 0.;
    lower_s = 0.;
    passes_s = 0.;
    verify_s = 0.;
    cost_s = 0.;
  }

let create ?(max_entries = 4096) cfg =
  {
    cfg;
    max_entries;
    lock = Mutex.create ();
    entries = Hashtbl.create 256;
    lowerings = Hashtbl.create 64;
    c = zero_counters;
  }

let config t = t.cfg
let locked t f = Mutex.protect t.lock f

(* A consistent snapshot: the counters record is immutable, so taking
   the lock for the read means no torn view even while worker domains
   are updating it. *)
let counters t = locked t (fun () -> t.c)

let hit_rate c =
  if c.lookups = 0 then 0. else float_of_int c.hits /. float_of_int c.lookups

let log_summary t =
  let c = counters t in
  Log.info (fun m ->
      m
        "cache: %d/%d hits (%.1f%%), %d built, %d failed, %d evictions; \
         stage times: sketch %.1f ms, lower %.1f ms, passes %.1f ms, verify \
         %.1f ms, cost %.1f ms"
        c.hits c.lookups
        (100. *. hit_rate c)
        c.built c.failed c.evictions (c.sketch_s *. 1e3) (c.lower_s *. 1e3)
        (c.passes_s *. 1e3) (c.verify_s *. 1e3) (c.cost_s *. 1e3))

let noise_amplitude = 0.02

(* ------------------------------------------------------------------ *)
(* Canonical structural hashing.                                       *)
(* ------------------------------------------------------------------ *)

let rec elem_key = function
  | Op.Ref t -> "R" ^ t
  | Op.Const v -> "K" ^ Imtp_tensor.Value.to_string v
  | Op.Acc -> "@"
  | Op.Bin (b, x, y) ->
      let o =
        match b with
        | Op.Add -> "+"
        | Op.Sub -> "-"
        | Op.Mul -> "*"
        | Op.Div -> "/"
        | Op.Min -> "<"
        | Op.Max -> ">"
      in
      Printf.sprintf "(%s%s%s)" (elem_key x) o (elem_key y)

let axis_key (a : Op.axis) =
  Printf.sprintf "%s:%d:%c" a.Op.aname a.Op.extent
    (match a.Op.kind with Op.Spatial -> 's' | Op.Reduction -> 'r')

let tensor_key (name, axes) = name ^ "[" ^ String.concat "," axes ^ "]"

let op_key (op : Op.t) =
  String.concat ";"
    [
      op.Op.opname;
      Imtp_tensor.Dtype.to_string op.Op.dtype;
      String.concat "," (List.map axis_key op.Op.axes);
      String.concat "," (List.map tensor_key op.Op.inputs);
      tensor_key op.Op.output;
      elem_key op.Op.body;
    ]
  (* Appended only when present so pre-epilogue keys stay unchanged
     (golden search traces depend on them). *)
  ^ match op.Op.epilogue with None -> "" | Some e -> ";epi" ^ elem_key e

let params_key (p : Sketch.params) =
  Printf.sprintf "sd%d;rd%d;t%d;c%d;rows%d;u%b;ht%d" p.Sketch.spatial_dpus
    p.Sketch.reduction_dpus p.Sketch.tasklets p.Sketch.cache_elems
    p.Sketch.rows_per_tasklet p.Sketch.unroll_inner p.Sketch.host_threads

let options_key (o : L.options) =
  Printf.sprintf "bulk%b;par%b;hrt%d;skip%s" o.L.bulk_transfer
    o.L.parallel_transfer o.L.host_reduce_threads
    (String.concat "," (List.sort String.compare o.L.skip_input_transfer))
  (* conditional so pre-residency keys stay byte-identical. *)
  ^ if o.L.skip_output_transfer then ";skipout" else ""

let digest_parts parts = Digest.to_hex (Digest.string (String.concat "|" parts))

let candidate_options ?(skip_inputs = []) params =
  { (Sketch.lower_options params) with L.skip_input_transfer = skip_inputs }

(* A search fingerprints every candidate against one operator value, so
   the key of the last operator seen is kept, matched by physical
   identity (an [Op.t] is immutable).  Domains racing on it at worst
   recompute a key. *)
let last_op_key : (Op.t * string) option Atomic.t = Atomic.make None

let memo_op_key op =
  match Atomic.get last_op_key with
  | Some (o, k) when o == op -> k
  | Some _ | None ->
      let k = op_key op in
      Atomic.set last_op_key (Some (op, k));
      k

let fingerprint ?(passes = Pl.all_on) ?skip_inputs ?(verify = true) op params =
  digest_parts
    [
      memo_op_key op;
      params_key params;
      Pl.config_name passes;
      options_key (candidate_options ?skip_inputs params);
      (if verify then "v" else "nv");
    ]

(* ------------------------------------------------------------------ *)
(* The staged pipeline.  Each stage exists once; stage timings are     *)
(* accumulated into the engine's counters when one is at hand.         *)
(* ------------------------------------------------------------------ *)

(* One wall-clock duration per stage run: the `engine.<stage>` span's
   own, which the `engine.stage.<stage>_s` histogram and the engine's
   counters are charged with too.  Names are built once per stage. *)
type stage = {
  span_name : string;
  hist_name : string;
  add : counters -> float -> counters;
}

let stage name add =
  { span_name = "engine." ^ name; hist_name = "engine.stage." ^ name ^ "_s"; add }

let sketch_stage = stage "sketch" (fun c dt -> { c with sketch_s = c.sketch_s +. dt })
let lower_stage = stage "lower" (fun c dt -> { c with lower_s = c.lower_s +. dt })
let passes_stage = stage "passes" (fun c dt -> { c with passes_s = c.passes_s +. dt })
let verify_stage = stage "verify" (fun c dt -> { c with verify_s = c.verify_s +. dt })

(* Every run of the cost stage is one simulator execution; [costed] is
   the ledger the measurement-gated search is judged against. *)
let cost_stage =
  stage "cost" (fun c dt -> { c with cost_s = c.cost_s +. dt; costed = c.costed + 1 })

let timed t stage f =
  let r, dt = Obs.span_timed ~name:stage.span_name f in
  (match t with
  | Some t -> locked t (fun () -> t.c <- stage.add t.c dt)
  | None -> ());
  Obs.observe stage.hist_name dt;
  r

let stage_sketch ?t op params =
  timed t sketch_stage (fun () ->
      match Sketch.instantiate op params with
      | sched -> Ok sched
      | exception Invalid_argument m -> Error (Sketch_invalid m))

let stage_lower ?t ~options sched =
  timed t lower_stage (fun () ->
      match L.lower ~options sched with
      | prog -> Ok prog
      | exception L.Lower_error m -> Error (Lower_failed m))

let stage_passes ?t ~passes cfg prog =
  timed t passes_stage (fun () -> Pl.run ~config:passes cfg prog)

let stage_verify_sched ?t cfg sched =
  timed t verify_stage (fun () ->
      match Verifier.check_sched cfg sched with
      | Ok () -> Ok ()
      | Error r -> Error (Verifier_rejected r))

let stage_verify_program ?t cfg prog =
  timed t verify_stage (fun () ->
      match Verifier.check cfg prog with
      | Ok () -> Ok ()
      | Error r -> Error (Verifier_rejected r))

let stage_cost ?t cfg prog =
  timed t cost_stage (fun () ->
      match Cost.measure cfg prog with
      | stats -> Ok stats
      | exception Cost.Error m -> Error (Cost_failed m))

let compile_sched ?(options = L.default_options) ?(passes = Pl.all_on) cfg sched
    =
  match stage_lower ~options sched with
  | Error _ as e -> e
  | Ok prog -> Ok (stage_passes ~passes cfg prog)

let estimate cfg prog = stage_cost cfg prog

let optimize t ?(passes = Pl.all_on) prog =
  stage_passes ~t ~passes t.cfg prog


(* ------------------------------------------------------------------ *)
(* The memo table.                                                     *)
(* ------------------------------------------------------------------ *)

(* Under the lock: charge [n] cache probes, [hits] of them hits. *)
let count_lookups t ~n ~hits =
  let misses = n - hits in
  t.c <-
    {
      t.c with
      lookups = t.c.lookups + n;
      hits = t.c.hits + hits;
      misses = t.c.misses + misses;
    };
  if n > 0 then Obs.incr ~by:n "engine.cache.lookups";
  if hits > 0 then Obs.incr ~by:hits "engine.cache.hits";
  if misses > 0 then Obs.incr ~by:misses "engine.cache.misses"

(* The one counted cache probe of a request. *)
let lookup t table key =
  locked t (fun () ->
      let found = Hashtbl.find_opt table key in
      count_lookups t ~n:1 ~hits:(if Option.is_some found then 1 else 0);
      found)

(* Under the lock: room for one more key.  A full table is reset rather
   than grown. *)
let make_room t =
  if Hashtbl.length t.entries + Hashtbl.length t.lowerings >= t.max_entries
  then begin
    Hashtbl.reset t.entries;
    Hashtbl.reset t.lowerings;
    t.c <- { t.c with evictions = t.c.evictions + 1 };
    Obs.incr "engine.cache.evictions"
  end

(* Under the lock: a constructed outcome is one [built] or one [failed]. *)
let count_outcome t = function
  | Ok _ ->
      t.c <- { t.c with built = t.c.built + 1 };
      Obs.incr "engine.built"
  | Error _ ->
      t.c <- { t.c with failed = t.c.failed + 1 };
      Obs.incr "engine.failed"

let store t table key v outcome =
  locked t (fun () ->
      make_room t;
      Hashtbl.replace table key v;
      count_outcome t outcome)

let ( let* ) = Result.bind

(* Everything but the cost stage: the cheap prefix of the pipeline that
   the learned cost model's feature extraction needs. *)
let prepare_uncached t ~passes ~options ~verify ~key op params =
  let* sched = stage_sketch ~t op params in
  let* () = if verify then stage_verify_sched ~t t.cfg sched else Ok () in
  let* lowered = stage_lower ~t ~options sched in
  let program = stage_passes ~t ~passes t.cfg lowered in
  let* () = if verify then stage_verify_program ~t t.cfg program else Ok () in
  Ok { pkey = key; psched = sched; plowered = lowered; pprogram = program }

let add_entry t key prefix =
  let e = { prefix; cost = None; feats = None } in
  store t t.entries key e prefix;
  e

(* One candidate request: one lookup, and the prefix built on a miss. *)
let entry_of t ~passes ?skip_inputs ~verify op params =
  let key = fingerprint ~passes ?skip_inputs ~verify op params in
  match lookup t t.entries key with
  | Some e -> (e, true)
  | None ->
      let options = candidate_options ?skip_inputs params in
      (add_entry t key (prepare_uncached t ~passes ~options ~verify ~key op params),
       false)

let artifact_of (p : prepared) stats =
  { key = p.pkey; sched = p.psched; lowered = p.plowered; program = p.pprogram; stats }

(* The cost stage of an entry, run only while it has no cost outcome.
   Returns the outcome and whether it was already cached; two domains
   racing on one entry at worst both run the stage. *)
let cost_entry t e (p : prepared) =
  let r, cached =
    match locked t (fun () -> e.cost) with
    | Some r -> (r, true)
    | None ->
        let r = stage_cost ~t t.cfg p.pprogram in
        Result.iter
          (fun stats ->
            Obs.incr ~by:stats.Stats.bytes_h2d "engine.bytes_h2d";
            Obs.incr ~by:stats.Stats.bytes_d2h "engine.bytes_d2h")
          r;
        locked t (fun () ->
            e.cost <- Some r;
            if Result.is_error r then count_outcome t r);
        (r, false)
  in
  (Result.map (artifact_of p) r, cached)

let outcome t e =
  match e.prefix with Error err -> (Error err, true) | Ok p -> cost_entry t e p

let noisy ?rng base =
  match rng with
  | None -> base
  | Some r -> base *. (1. +. (noise_amplitude *. ((2. *. Rng.float r 1.) -. 1.)))

let measurement ?rng (r, from_cache) =
  Result.map
    (fun artifact ->
      { artifact; latency_s = noisy ?rng (Stats.total_s artifact.stats); from_cache })
    r

let build_outcome t ?(passes = Pl.all_on) ?skip_inputs ?(verify = true) op
    params =
  Obs.span ~name:"engine.build"
    ~attrs:[ ("op", Obs.Str op.Op.opname) ]
    (fun () ->
      let e, found = entry_of t ~passes ?skip_inputs ~verify op params in
      let ((r, cached) as o) = outcome t e in
      Obs.add_attr "hit" (Obs.Bool (found && cached));
      Obs.add_attr "ok" (Obs.Bool (Result.is_ok r));
      o)

let build t ?passes ?skip_inputs ?verify op params =
  fst (build_outcome t ?passes ?skip_inputs ?verify op params)

let measure t ?rng ?passes ?skip_inputs ?verify op params =
  measurement ?rng (build_outcome t ?passes ?skip_inputs ?verify op params)

let find t ?passes ?skip_inputs ?verify op params =
  let key = fingerprint ?passes ?skip_inputs ?verify op params in
  locked t (fun () ->
      match Hashtbl.find_opt t.entries key with
      | Some { prefix = Error err; _ } -> Some (Error err)
      | Some { prefix = Ok p; cost; _ } ->
          Option.map (Result.map (artifact_of p)) cost
      | None -> None)

let prepare t ?(passes = Pl.all_on) ?skip_inputs ?(verify = true) op params =
  Obs.span ~name:"engine.prepare"
    ~attrs:[ ("op", Obs.Str op.Op.opname) ]
    (fun () ->
      let e, hit = entry_of t ~passes ?skip_inputs ~verify op params in
      Obs.add_attr "hit" (Obs.Bool hit);
      Obs.add_attr "ok" (Obs.Bool (Result.is_ok e.prefix));
      e.prefix)

(* Computed outside the lock like every stage; two domains racing on
   one key compute the same vector, and the last write wins.  A
   candidate whose entry was evicted gets a fresh, unmemoized vector. *)
let features t (p : prepared) =
  let e, memo =
    locked t (fun () ->
        match Hashtbl.find_opt t.entries p.pkey with
        | Some e -> (Some e, e.feats)
        | None -> (None, None))
  in
  match memo with
  | Some x -> x
  | None ->
      let x = Features.of_program p.pprogram in
      Option.iter (fun e -> locked t (fun () -> e.feats <- Some x)) e;
      x

let simulate t ?rng (p : prepared) =
  Obs.span ~name:"engine.simulate" (fun () ->
      (* Not a lookup: [p]'s request was counted when it was prepared.
         An entry evicted since is filed again. *)
      let e =
        locked t (fun () ->
            match Hashtbl.find_opt t.entries p.pkey with
            | Some e -> e
            | None ->
                let e = { prefix = Ok p; cost = None; feats = None } in
                make_room t;
                Hashtbl.replace t.entries p.pkey e;
                e)
      in
      let ((_, hit) as o) = cost_entry t e p in
      Obs.add_attr "hit" (Obs.Bool hit);
      measurement ?rng o)

(* Functional execution of a built program.  All hot-path executions
   (CLI runs, graph nodes, the core [Imtp.execute]) funnel through
   here so the trace records which executor backend served them. *)
let execute prog ~inputs =
  Obs.span ~name:"engine.execute"
    ~attrs:[ ("executor", Obs.Str (Imtp_tir.Exec.backend_name ())) ]
    (fun () -> Imtp_tir.Exec.run_counted prog ~inputs)

(* How each batch slot finds its entry, decided up front in list order
   so the hit/miss ledger and [from_cache] flags are the same no matter
   how many domains then race on the work:
   - [Cached e]: the key was in the table when the batch started; the
     entry is captured so a mid-batch eviction can't change it.
   - [Build]: first occurrence of an uncached key; this slot builds the
     prefix.
   - [Dup i]: later occurrence of slot [i]'s key; a cache hit (as the
     sequential walk would see it) sharing slot [i]'s entry. *)
type plan = Cached of entry | Build | Dup of int

(* The classify-and-dispatch driver behind [prepare_batch] and [batch]:
   one lookup per slot, the uncached prefixes built across the pool
   and, with [~cost], each distinct entry's cost stage run once, on the
   pool, by the first slot holding it.  Returns every slot's entry and
   whether that slot ran the cost stage. *)
let run_batch t ~name ?jobs ~cost ~passes ?skip_inputs ~verify op candidates =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let cands = Array.of_list candidates in
  let n = Array.length cands in
  Obs.span ~name
    ~attrs:
      [ ("op", Obs.Str op.Op.opname); ("size", Obs.Int n); ("jobs", Obs.Int jobs) ]
  @@ fun () ->
  let parent = Obs.current_span_id () in
  let keys =
    Array.map (fun p -> fingerprint ~passes ?skip_inputs ~verify op p) cands
  in
  let plan =
    locked t (fun () ->
        let first = Hashtbl.create (max 16 n) in
        let hits = ref 0 in
        let plan =
          Array.mapi
            (fun i key ->
              match Hashtbl.find_opt first key with
              | Some i0 ->
                  incr hits;
                  Dup i0
              | None -> (
                  Hashtbl.add first key i;
                  match Hashtbl.find_opt t.entries key with
                  | Some e ->
                      incr hits;
                      Cached e
                  | None -> Build))
            keys
        in
        count_lookups t ~n ~hits:!hits;
        plan)
  in
  let slots = Array.map (function Cached e -> Some e | Build | Dup _ -> None) plan in
  let ran_cost = Array.make n false in
  let run i =
    Obs.with_ambient_parent parent @@ fun () ->
    (match plan.(i) with
    | Build ->
        let p = cands.(i) in
        let options = candidate_options ?skip_inputs p in
        slots.(i) <-
          Some
            (add_entry t keys.(i)
               (prepare_uncached t ~passes ~options ~verify ~key:keys.(i) op p))
    | Cached _ | Dup _ -> ());
    match slots.(i) with
    | Some ({ prefix = Ok p; _ } as e) when cost ->
        ran_cost.(i) <- not (snd (cost_entry t e p))
    | Some _ | None -> ()
  in
  let (_ : unit array), util = Pool.map_stats ~jobs run n in
  Array.iteri
    (fun i -> function Dup i0 -> slots.(i) <- slots.(i0) | Cached _ | Build -> ())
    plan;
  let misses = Array.fold_left (fun a -> function Build -> a + 1 | _ -> a) 0 plan in
  Obs.add_attr "hits" (Obs.Int (n - misses));
  Obs.add_attr "misses" (Obs.Int misses);
  Obs.add_attr "domains_used" (Obs.Int (Array.length util));
  Obs.add_attr "utilization"
    (Obs.Str
       (String.concat ","
          (Array.to_list util
          |> List.map (fun (tasks, busy) -> Printf.sprintf "%d:%.4fs" tasks busy))));
  Array.mapi (fun i e -> (Option.get e, ran_cost.(i))) slots

let prepare_batch t ?jobs ?(passes = Pl.all_on) ?skip_inputs ?(verify = true)
    op candidates =
  let slots =
    run_batch t ~name:"engine.prepare_batch" ?jobs ~cost:false ~passes
      ?skip_inputs ~verify op candidates
  in
  List.mapi (fun i p -> (p, (fst slots.(i)).prefix)) candidates

let batch t ?jobs ?rng ?(passes = Pl.all_on) ?skip_inputs ?(verify = true) op
    candidates =
  (* One draw per batch: the caller's rng advances identically whatever
     [jobs] is, and candidate [i]'s noise comes from its own stream. *)
  let base = Option.map Rng.bits rng in
  let slots =
    run_batch t ~name:"engine.batch" ?jobs ~cost:true ~passes ?skip_inputs
      ~verify op candidates
  in
  List.mapi
    (fun i p ->
      let e, ran_cost = slots.(i) in
      let rng = Option.map (fun base -> Rng.stream ~base ~index:i) base in
      (p, measurement ?rng (fst (outcome t e), not ran_cost)))
    candidates

let lower_keyed t ~key thunk =
  match lookup t t.lowerings key with
  | Some r -> r
  | None ->
      let r = timed (Some t) lower_stage thunk in
      store t t.lowerings key r r;
      r
