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

type t = {
  cfg : Imtp_upmem.Config.t;
  max_entries : int;
  lock : Mutex.t;
      (* Guards [artifacts], [prepareds], [lowerings], [feature_memo]
         and [c].  Stage work (sketch, lower, passes, verify, cost)
         always runs outside the lock, so parallel builds only contend
         on table lookups and counter bumps. *)
  artifacts : (string, (artifact, error) result) Hashtbl.t;
  prepareds : (string, (prepared, error) result) Hashtbl.t;
  lowerings : (string, (Imtp_tir.Program.t, error) result) Hashtbl.t;
  feature_memo : (string, float array) Hashtbl.t;
      (* Features.of_program of the program built under each key;
         cleared with the tables above but not counted against
         [max_entries], and invisible to the counters. *)
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
    artifacts = Hashtbl.create 256;
    prepareds = Hashtbl.create 64;
    lowerings = Hashtbl.create 64;
    feature_memo = Hashtbl.create 256;
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

(* [count_built:false] caches a result whose construction only finished
   an already-counted build (the cost stage of a prepared candidate)
   without double-counting it in [built]. *)
let remember ?(count_built = true) t table key result =
  locked t (fun () ->
      if
        Hashtbl.length t.artifacts + Hashtbl.length t.prepareds
        + Hashtbl.length t.lowerings
        >= t.max_entries
      then begin
        Hashtbl.reset t.artifacts;
        Hashtbl.reset t.prepareds;
        Hashtbl.reset t.lowerings;
        Hashtbl.reset t.feature_memo;
        t.c <- { t.c with evictions = t.c.evictions + 1 };
        Obs.incr "engine.cache.evictions"
      end;
      Hashtbl.replace table key result;
      (match result with
      | Ok _ ->
          if count_built then begin
            t.c <- { t.c with built = t.c.built + 1 };
            Obs.incr "engine.built"
          end
      | Error _ ->
          t.c <- { t.c with failed = t.c.failed + 1 };
          Obs.incr "engine.failed");
      result)

let lookup t table key =
  locked t (fun () ->
      t.c <- { t.c with lookups = t.c.lookups + 1 };
      Obs.incr "engine.cache.lookups";
      match Hashtbl.find_opt table key with
      | Some r ->
          t.c <- { t.c with hits = t.c.hits + 1 };
          Obs.incr "engine.cache.hits";
          Some r
      | None ->
          t.c <- { t.c with misses = t.c.misses + 1 };
          Obs.incr "engine.cache.misses";
          None)

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

(* The simulator execution itself. *)
let cost_prepared t (p : prepared) =
  let* stats = stage_cost ~t t.cfg p.pprogram in
  Obs.incr ~by:stats.Stats.bytes_h2d "engine.bytes_h2d";
  Obs.incr ~by:stats.Stats.bytes_d2h "engine.bytes_d2h";
  Ok
    {
      key = p.pkey;
      sched = p.psched;
      lowered = p.plowered;
      program = p.pprogram;
      stats;
    }

let build_uncached t ~passes ~options ~verify ~key op params =
  let* prepared = prepare_uncached t ~passes ~options ~verify ~key op params in
  cost_prepared t prepared

let prepared_of_artifact (a : artifact) =
  { pkey = a.key; psched = a.sched; plowered = a.lowered; pprogram = a.program }

let build_flagged t ?(passes = Pl.all_on) ?skip_inputs ?(verify = true) op
    params =
  Obs.span ~name:"engine.build"
    ~attrs:[ ("op", Obs.Str op.Op.opname) ]
    (fun () ->
      let options = candidate_options ?skip_inputs params in
      let key = fingerprint ~passes ?skip_inputs ~verify op params in
      let result, hit =
        match lookup t t.artifacts key with
        | Some r -> (r, true)
        | None ->
            (remember t t.artifacts key
               (build_uncached t ~passes ~options ~verify ~key op params),
             false)
      in
      Obs.add_attr "hit" (Obs.Bool hit);
      Obs.add_attr "ok" (Obs.Bool (Result.is_ok result));
      (result, hit))

let build t ?passes ?skip_inputs ?verify op params =
  fst (build_flagged t ?passes ?skip_inputs ?verify op params)

let find t ?passes ?skip_inputs ?verify op params =
  let key = fingerprint ?passes ?skip_inputs ?verify op params in
  locked t (fun () -> Hashtbl.find_opt t.artifacts key)

let noisy ?rng base =
  match rng with
  | None -> base
  | Some r -> base *. (1. +. (noise_amplitude *. ((2. *. Rng.float r 1.) -. 1.)))

let measure t ?rng ?passes ?skip_inputs ?verify op params =
  match build_flagged t ?passes ?skip_inputs ?verify op params with
  | Error e, _ -> Error e
  | Ok artifact, from_cache ->
      let latency_s = noisy ?rng (Stats.total_s artifact.stats) in
      Ok { artifact; latency_s; from_cache }

(* --- the prepared (cost-free) pipeline prefix ----------------------- *)

(* One locked probe across both tables: a full artifact supersedes a
   prepared entry, so either serves a prepare lookup as a hit. *)
let lookup_prepared t key =
  locked t (fun () ->
      t.c <- { t.c with lookups = t.c.lookups + 1 };
      Obs.incr "engine.cache.lookups";
      let found =
        match Hashtbl.find_opt t.artifacts key with
        | Some r -> Some (Result.map prepared_of_artifact r)
        | None -> Hashtbl.find_opt t.prepareds key
      in
      (match found with
      | Some _ ->
          t.c <- { t.c with hits = t.c.hits + 1 };
          Obs.incr "engine.cache.hits"
      | None ->
          t.c <- { t.c with misses = t.c.misses + 1 };
          Obs.incr "engine.cache.misses");
      found)

let prepare t ?(passes = Pl.all_on) ?skip_inputs ?(verify = true) op params =
  Obs.span ~name:"engine.prepare"
    ~attrs:[ ("op", Obs.Str op.Op.opname) ]
    (fun () ->
      let options = candidate_options ?skip_inputs params in
      let key = fingerprint ~passes ?skip_inputs ~verify op params in
      let result, hit =
        match lookup_prepared t key with
        | Some r -> (r, true)
        | None ->
            (remember t t.prepareds key
               (prepare_uncached t ~passes ~options ~verify ~key op params),
             false)
      in
      Obs.add_attr "hit" (Obs.Bool hit);
      Obs.add_attr "ok" (Obs.Bool (Result.is_ok result));
      result)

(* Computed outside the lock like every stage; two domains racing on
   one key compute the same vector, and the last write wins. *)
let features t (p : prepared) =
  match locked t (fun () -> Hashtbl.find_opt t.feature_memo p.pkey) with
  | Some x -> x
  | None ->
      let x = Features.of_program p.pprogram in
      locked t (fun () -> Hashtbl.replace t.feature_memo p.pkey x);
      x

let simulate t ?rng (p : prepared) =
  Obs.span ~name:"engine.simulate" (fun () ->
      let result, from_cache =
        match lookup t t.artifacts p.pkey with
        | Some r -> (r, true)
        | None ->
            ( remember ~count_built:false t t.artifacts p.pkey
                (cost_prepared t p),
              false )
      in
      Obs.add_attr "hit" (Obs.Bool from_cache);
      match result with
      | Error e -> Error e
      | Ok artifact ->
          let latency_s = noisy ?rng (Stats.total_s artifact.stats) in
          Ok { artifact; latency_s; from_cache })

(* Functional execution of a built program.  All hot-path executions
   (CLI runs, graph nodes, the core [Imtp.execute]) funnel through
   here so the trace records which executor backend served them. *)
let execute prog ~inputs =
  Obs.span ~name:"engine.execute"
    ~attrs:[ ("executor", Obs.Str (Imtp_tir.Exec.backend_name ())) ]
    (fun () -> Imtp_tir.Exec.run_counted prog ~inputs)

(* How each batch slot will be satisfied, decided up front in list
   order so the hit/miss ledger and [from_cache] flags are the same no
   matter how many domains then race on the builds:
   - [Cached r]: the key was already in the table when the batch
     started; its result is captured at classification time so a
     mid-batch eviction can't change the answer.
   - [Build]: first occurrence of an uncached key; this slot does the
     work.
   - [Dup i]: later occurrence of slot [i]'s key; reported as a cache
     hit (as the sequential walk would) and filled from slot [i]'s
     result rather than the table, again to be eviction-proof. *)
type 'a plan = Cached of 'a | Build | Dup of int

let batch t ?jobs ?rng ?passes ?skip_inputs ?verify op candidates =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let passes = Option.value passes ~default:Pl.all_on in
  let verify = Option.value verify ~default:true in
  let n = List.length candidates in
  (* One draw per batch: the caller's rng advances identically whatever
     [jobs] is, and candidate [i]'s noise comes from its own stream. *)
  let base = Option.map Rng.bits rng in
  let c0 = counters t in
  let results =
    Obs.span ~name:"engine.batch"
      ~attrs:
        [
          ("op", Obs.Str op.Op.opname);
          ("size", Obs.Int n);
          ("jobs", Obs.Int jobs);
        ]
      (fun () ->
        let parent = Obs.current_span_id () in
        let cands = Array.of_list candidates in
        let keys =
          Array.map (fun p -> fingerprint ~passes ?skip_inputs ~verify op p) cands
        in
        let plan =
          locked t (fun () ->
              let first = Hashtbl.create (max 16 n) in
              Array.mapi
                (fun i key ->
                  t.c <- { t.c with lookups = t.c.lookups + 1 };
                  match Hashtbl.find_opt t.artifacts key with
                  | Some r ->
                      t.c <- { t.c with hits = t.c.hits + 1 };
                      Cached r
                  | None -> (
                      match Hashtbl.find_opt first key with
                      | Some i0 ->
                          t.c <- { t.c with hits = t.c.hits + 1 };
                          Dup i0
                      | None ->
                          Hashtbl.add first key i;
                          t.c <- { t.c with misses = t.c.misses + 1 };
                          Build))
                keys)
        in
        let hits =
          Array.fold_left
            (fun a -> function Cached _ | Dup _ -> a + 1 | Build -> a)
            0 plan
        in
        let builds = n - hits in
        if n > 0 then Obs.incr ~by:n "engine.cache.lookups";
        if hits > 0 then Obs.incr ~by:hits "engine.cache.hits";
        if builds > 0 then Obs.incr ~by:builds "engine.cache.misses";
        let built : (artifact, error) result option array = Array.make n None in
        let run i =
          match plan.(i) with
          | Cached _ | Dup _ -> ()
          | Build ->
              Obs.with_ambient_parent parent (fun () ->
                  Obs.span ~name:"engine.build"
                    ~attrs:[ ("op", Obs.Str op.Op.opname) ]
                    (fun () ->
                      let p = cands.(i) in
                      let options = candidate_options ?skip_inputs p in
                      let r =
                        build_uncached t ~passes ~options ~verify ~key:keys.(i)
                          op p
                      in
                      let r = remember t t.artifacts keys.(i) r in
                      Obs.add_attr "hit" (Obs.Bool false);
                      Obs.add_attr "ok" (Obs.Bool (Result.is_ok r));
                      built.(i) <- Some r))
        in
        let (_ : unit array), util = Pool.map_stats ~jobs run n in
        let result_of i =
          match plan.(i) with
          | Cached r -> (r, true)
          | Build -> (Option.get built.(i), false)
          | Dup i0 -> (Option.get built.(i0), true)
        in
        let results =
          List.mapi
            (fun i p ->
              let m =
                match result_of i with
                | Error e, _ -> Error e
                | Ok artifact, from_cache ->
                    let base_l = Stats.total_s artifact.stats in
                    let latency_s =
                      match base with
                      | None -> base_l
                      | Some b ->
                          let r = Rng.stream ~base:b ~index:i in
                          base_l
                          *. (1.
                             +. noise_amplitude *. ((2. *. Rng.float r 1.) -. 1.)
                             )
                    in
                    Ok { artifact; latency_s; from_cache }
              in
              (p, m))
            candidates
        in
        Obs.add_attr "hits" (Obs.Int hits);
        Obs.add_attr "misses" (Obs.Int builds);
        Obs.add_attr "domains_used" (Obs.Int (Array.length util));
        Obs.add_attr "utilization"
          (Obs.Str
             (String.concat ","
                (Array.to_list util
                |> List.map (fun (tasks, busy) ->
                       Printf.sprintf "%d:%.4fs" tasks busy))));
        results)
  in
  let c1 = counters t in
  Log.debug (fun m ->
      m
        "batch of %d: %d hits, %d misses (run total %d/%d, %.1f%%); stage \
         times +sketch %.2f ms +lower %.2f ms +passes %.2f ms +verify %.2f \
         ms +cost %.2f ms"
        (List.length candidates)
        (c1.hits - c0.hits) (c1.misses - c0.misses) c1.hits c1.lookups
        (100. *. hit_rate c1)
        ((c1.sketch_s -. c0.sketch_s) *. 1e3)
        ((c1.lower_s -. c0.lower_s) *. 1e3)
        ((c1.passes_s -. c0.passes_s) *. 1e3)
        ((c1.verify_s -. c0.verify_s) *. 1e3)
        ((c1.cost_s -. c0.cost_s) *. 1e3));
  results

(* Batched prepare: the same ahead-of-time hit/build/dup classification
   as [batch] (so hit/miss ledgers and results are independent of the
   job count), over the combined artifact+prepared tables, with no rng
   involvement at all — ranking a population must not disturb the
   caller's noise stream. *)
let prepare_batch t ?jobs ?passes ?skip_inputs ?verify op candidates =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let passes = Option.value passes ~default:Pl.all_on in
  let verify = Option.value verify ~default:true in
  let n = List.length candidates in
  Obs.span ~name:"engine.prepare_batch"
    ~attrs:
      [
        ("op", Obs.Str op.Op.opname);
        ("size", Obs.Int n);
        ("jobs", Obs.Int jobs);
      ]
    (fun () ->
      let parent = Obs.current_span_id () in
      let cands = Array.of_list candidates in
      let keys =
        Array.map (fun p -> fingerprint ~passes ?skip_inputs ~verify op p) cands
      in
      let plan =
        locked t (fun () ->
            let first = Hashtbl.create (max 16 n) in
            Array.mapi
              (fun i key ->
                t.c <- { t.c with lookups = t.c.lookups + 1 };
                let cached =
                  match Hashtbl.find_opt t.artifacts key with
                  | Some r -> Some (Result.map prepared_of_artifact r)
                  | None -> Hashtbl.find_opt t.prepareds key
                in
                match cached with
                | Some r ->
                    t.c <- { t.c with hits = t.c.hits + 1 };
                    Cached r
                | None -> (
                    match Hashtbl.find_opt first key with
                    | Some i0 ->
                        t.c <- { t.c with hits = t.c.hits + 1 };
                        Dup i0
                    | None ->
                        Hashtbl.add first key i;
                        t.c <- { t.c with misses = t.c.misses + 1 };
                        Build))
              keys)
      in
      let hits =
        Array.fold_left
          (fun a -> function Cached _ | Dup _ -> a + 1 | Build -> a)
          0 plan
      in
      let builds = n - hits in
      if n > 0 then Obs.incr ~by:n "engine.cache.lookups";
      if hits > 0 then Obs.incr ~by:hits "engine.cache.hits";
      if builds > 0 then Obs.incr ~by:builds "engine.cache.misses";
      let built : (prepared, error) result option array = Array.make n None in
      let run i =
        match plan.(i) with
        | Cached _ | Dup _ -> ()
        | Build ->
            Obs.with_ambient_parent parent (fun () ->
                Obs.span ~name:"engine.prepare"
                  ~attrs:[ ("op", Obs.Str op.Op.opname) ]
                  (fun () ->
                    let p = cands.(i) in
                    let options = candidate_options ?skip_inputs p in
                    let r =
                      prepare_uncached t ~passes ~options ~verify ~key:keys.(i)
                        op p
                    in
                    let r = remember t t.prepareds keys.(i) r in
                    Obs.add_attr "hit" (Obs.Bool false);
                    Obs.add_attr "ok" (Obs.Bool (Result.is_ok r));
                    built.(i) <- Some r))
      in
      let (_ : unit array), _util = Pool.map_stats ~jobs run n in
      Obs.add_attr "hits" (Obs.Int hits);
      Obs.add_attr "misses" (Obs.Int builds);
      List.mapi
        (fun i p ->
          let r =
            match plan.(i) with
            | Cached r -> r
            | Build -> Option.get built.(i)
            | Dup i0 -> Option.get built.(i0)
          in
          (p, r))
        candidates)

let lower_keyed t ~key thunk =
  match lookup t t.lowerings key with
  | Some r -> r
  | None ->
      remember t t.lowerings key (timed (Some t) lower_stage thunk)
