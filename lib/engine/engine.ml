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

type artifact = { program : Imtp_tir.Program.t; stats : Imtp_upmem.Stats.t }
type measurement = { artifact : artifact; latency_s : float }
type prepared = { pkey : string; pprogram : Imtp_tir.Program.t }

type counters = {
  lookups : int;
  hits : int;
  misses : int;
  shared : int;
  evictions : int;
  built : int;
  failed : int;
  costed : int;
}

(* A caller's own share of the hit and simulator ledgers.  Atomic:
   the calls charging it may run on several domains at once. *)
type ledger = { l_hits : int Atomic.t; l_costed : int Atomic.t }

let ledger () = { l_hits = Atomic.make 0; l_costed = Atomic.make 0 }
let ledger_hits l = Atomic.get l.l_hits
let ledger_costed l = Atomic.get l.l_costed

let charge ledger field n =
  match ledger with
  | Some l when n > 0 -> ignore (Atomic.fetch_and_add (field l) n)
  | Some _ | None -> ()

(* Work done at most once: [Running] while one domain computes it;
   every other requester waits for that domain instead of repeating
   the work. *)
type 'a once = Absent | Running | Ready of 'a

(* A candidate's cost-free prefix, shared by every entry whose
   canonical tiling ({!Sketch.canonical}) matches: the prepared program
   (or its error) and the model features extracted from it. *)
type prefix = {
  mutable result : (prepared, error) result once;
  mutable feats : float array option;
}

(* One memo-table entry per fingerprint: its (possibly shared) prefix
   and its own cost outcome.  The mutable fields are written under the
   engine lock; batches hold entries directly, so an eviction mid-batch
   never changes what a slot reads. *)
type entry = {
  key : string;
  prefix : prefix;
  mutable cost : (Stats.t, error) result once;
}

type t = {
  cfg : Imtp_upmem.Config.t;
  lock : Mutex.t;
      (* Guards the two tables, the entries' and prefixes' mutable
         fields and [c].  Stage work (sketch, lower, passes, verify,
         cost) always runs outside it, so parallel builds only contend
         on table lookups and counter bumps. *)
  ready : Condition.t;  (* broadcast whenever a [Running] cell settles *)
  entries : (string, entry) Hashtbl.t;
  prefixes : (string, prefix) Hashtbl.t;  (* by canonical key *)
  mutable c : counters;
}

let zero_counters =
  {
    lookups = 0;
    hits = 0;
    misses = 0;
    shared = 0;
    evictions = 0;
    built = 0;
    failed = 0;
    costed = 0;
  }

(* The memo table's bound, in keys: a full table is reset rather than
   grown. *)
let max_entries = 4096

let create cfg =
  {
    cfg;
    lock = Mutex.create ();
    ready = Condition.create ();
    entries = Hashtbl.create 256;
    prefixes = Hashtbl.create 256;
    c = zero_counters;
  }

let locked t f = Mutex.protect t.lock f

(* A consistent snapshot: the counters record is immutable, so taking
   the lock for the read means no torn view even while worker domains
   are updating it. *)
let counters t = locked t (fun () -> t.c)

let hit_rate c =
  if c.lookups = 0 then 0. else float_of_int c.hits /. float_of_int c.lookups

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

(* A search fingerprints every candidate against one operator value, so
   the keys of the last few operators seen are kept, matched by physical
   identity (an [Op.t] is immutable); concurrent searches over
   different operators (daemon sessions) then do not evict each
   other's.  Domains racing on the list at worst recompute a key. *)
let recent_op_keys : (Op.t * string) list Atomic.t = Atomic.make []

(* "" when absent: an operator key is never empty. *)
let rec find_op_key op = function
  | [] -> ""
  | (o, k) :: rest -> if o == op then k else find_op_key op rest

let memo_op_key op =
  let recent = Atomic.get recent_op_keys in
  match find_op_key op recent with
  | "" ->
      let k = op_key op in
      Atomic.set recent_op_keys ((op, k) :: List.filteri (fun i _ -> i < 3) recent);
      k
  | k -> k

(* Memo keys are written into one exact-size [Bytes] — the pass and
   verify flags, the sorted resident inputs, the candidate's integer
   fields, then the operator's key — with no formatting and no
   digest.  Every field but the last is fixed-width or length-prefixed,
   so distinct inputs give distinct keys, and the bytes depend on the
   values alone, so keys are stable across processes. *)
let put_int b pos x =
  for k = 0 to 7 do
    Bytes.unsafe_set b (pos + k) (Char.unsafe_chr ((x asr (8 * k)) land 0xff))
  done;
  pos + 8

let put_string b pos s =
  let pos = put_int b pos (String.length s) in
  Bytes.unsafe_blit_string s 0 b pos (String.length s);
  pos + String.length s

let flags (passes : Pl.config) ~verify =
  Bool.to_int passes.Pl.dma_elim
  lor (Bool.to_int passes.Pl.loop_tighten lsl 1)
  lor (Bool.to_int passes.Pl.branch_hoist lsl 2)
  lor (Bool.to_int verify lsl 3)

let make_key ~passes ~skip_inputs ~verify op ~body_len write_body =
  let opk = memo_op_key op in
  let skips =
    match skip_inputs with
    | ([] | [ _ ]) as l -> l
    | l -> List.sort String.compare l
  in
  let skip_len = List.fold_left (fun a s -> a + 8 + String.length s) 0 skips in
  let b = Bytes.create (16 + skip_len + body_len + String.length opk) in
  let pos = put_int b 0 (flags passes ~verify) in
  let pos = put_int b pos (List.length skips) in
  let pos = List.fold_left (put_string b) pos skips in
  let pos = write_body b pos in
  Bytes.unsafe_blit_string opk 0 b pos (String.length opk);
  Bytes.unsafe_to_string b

let fingerprint ~passes ~skip_inputs ~verify op (p : Sketch.params) =
  make_key ~passes ~skip_inputs ~verify op ~body_len:56 (fun b pos ->
      let pos = put_int b pos p.Sketch.spatial_dpus in
      let pos = put_int b pos p.Sketch.reduction_dpus in
      let pos = put_int b pos p.Sketch.tasklets in
      let pos = put_int b pos p.Sketch.cache_elems in
      let pos = put_int b pos p.Sketch.rows_per_tasklet in
      let pos = put_int b pos (Bool.to_int p.Sketch.unroll_inner) in
      put_int b pos p.Sketch.host_threads)

(* The prefix key of a candidate: its canonical tiling in place of its
   parameters.  Candidates the sketch cannot tile get no shared prefix. *)
let prefix_key ~passes ~skip_inputs ~verify op params =
  match Sketch.canonical op params with
  | exception Invalid_argument _ -> None
  | c ->
      let body_len =
        List.fold_left
          (fun a f -> a + 8 + (8 * List.length f))
          24 c.Sketch.splits
      in
      Some
        (make_key ~passes ~skip_inputs ~verify op ~body_len (fun b pos ->
             let pos = put_int b pos c.Sketch.host_threads in
             let pos =
               put_int b pos
                 (Bool.to_int c.Sketch.rfactor
                 lor (Bool.to_int c.Sketch.unroll lsl 1))
             in
             let pos = put_int b pos (List.length c.Sketch.splits) in
             List.fold_left
               (fun pos f ->
                 List.fold_left (put_int b) (put_int b pos (List.length f)) f)
               pos c.Sketch.splits))

(* ------------------------------------------------------------------ *)
(* The staged pipeline.  Each stage exists once.                       *)
(* ------------------------------------------------------------------ *)

(* One wall-clock duration per stage run: the `engine.<stage>` span's
   own, which the `engine.stage.<stage>_s` histogram is charged with
   too.  Names are built once per stage. *)
type stage = { span_name : string; hist_name : string }

let stage name = { span_name = "engine." ^ name; hist_name = "engine.stage." ^ name ^ "_s" }
let sketch_stage = stage "sketch"
let lower_stage = stage "lower"
let passes_stage = stage "passes"
let verify_stage = stage "verify"
let cost_stage = stage "cost"

let timed stage f =
  let r, dt = Obs.span_timed ~name:stage.span_name f in
  Obs.observe stage.hist_name dt;
  r

let stage_sketch op params =
  timed sketch_stage (fun () ->
      match Sketch.instantiate op params with
      | sched -> Ok sched
      | exception Invalid_argument m -> Error (Sketch_invalid m))

let stage_lower ~options sched =
  timed lower_stage (fun () ->
      match L.lower ~options sched with
      | prog -> Ok prog
      | exception L.Lower_error m -> Error (Lower_failed m))

let stage_passes ~passes cfg prog =
  timed passes_stage (fun () -> Pl.run ~config:passes cfg prog)

let stage_verify_sched cfg sched =
  timed verify_stage (fun () ->
      match Verifier.check_sched cfg sched with
      | Ok () -> Ok ()
      | Error r -> Error (Verifier_rejected r))

let stage_verify_program cfg prog =
  timed verify_stage (fun () ->
      match Verifier.check cfg prog with
      | Ok () -> Ok ()
      | Error r -> Error (Verifier_rejected r))

let stage_cost cfg prog =
  timed cost_stage (fun () ->
      match Cost.measure cfg prog with
      | stats -> Ok stats
      | exception Cost.Error m -> Error (Cost_failed m))

let compile_sched ?(options = L.default_options) ?(passes = Pl.all_on) cfg sched
    =
  match stage_lower ~options sched with
  | Error _ as e -> e
  | Ok prog -> Ok (stage_passes ~passes cfg prog)

let estimate cfg prog = stage_cost cfg prog

let lower ?(options = L.default_options) sched = stage_lower ~options sched
let optimize cfg ?(passes = Pl.all_on) prog = stage_passes ~passes cfg prog

(* ------------------------------------------------------------------ *)
(* The memo table.                                                     *)
(* ------------------------------------------------------------------ *)

(* Under the lock: charge [n] cache probes, [hits] of them hits and
   [shared] of those hits new entries on an existing prefix, to the
   engine and to the caller's [ledger]. *)
let count_lookups t ?ledger ~n ~hits ~shared () =
  charge ledger (fun l -> l.l_hits) hits;
  let misses = n - hits in
  t.c <-
    {
      t.c with
      lookups = t.c.lookups + n;
      hits = t.c.hits + hits;
      misses = t.c.misses + misses;
      shared = t.c.shared + shared;
    };
  if n > 0 then Obs.incr ~by:n "engine.cache.lookups";
  if hits > 0 then Obs.incr ~by:hits "engine.cache.hits";
  if misses > 0 then Obs.incr ~by:misses "engine.cache.misses";
  if shared > 0 then Obs.incr ~by:shared "engine.cache.shared"

(* Under the lock: room for one more key.  A full table is reset rather
   than grown, the prefix index with it. *)
let make_room t =
  if Hashtbl.length t.entries >= max_entries then begin
    Hashtbl.reset t.entries;
    Hashtbl.reset t.prefixes;
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

(* Under the lock: file an entry for the absent [key] on the prefix
   indexed under [prefix_key], creating and indexing that prefix if
   there is none.  Returns the entry and whether it shares a prefix. *)
let file t key ~prefix_key =
  make_room t;
  let prefix, shared =
    match prefix_key with
    | None -> ({ result = Absent; feats = None }, false)
    | Some pk -> (
        match Hashtbl.find_opt t.prefixes pk with
        | Some pre -> (pre, true)
        | None ->
            let pre = { result = Absent; feats = None } in
            Hashtbl.replace t.prefixes pk pre;
            (pre, false))
  in
  let e = { key; prefix; cost = Absent } in
  Hashtbl.replace t.entries key e;
  (e, shared)

(* [work]'s outcome for a [once] cell: computed here when the cell is
   [Absent], awaited when another domain is computing it, served when
   [Ready].  [settle] runs under the lock with a fresh outcome.  On an
   exception the cell returns to [Absent] for the next requester.
   Returns the outcome and whether it was already there. *)
let demand t ~get ~set ~settle work =
  let rec claim () =
    match get () with
    | Running ->
        Condition.wait t.ready t.lock;
        claim ()
    | Ready r -> Some r
    | Absent ->
        set Running;
        None
  in
  match locked t claim with
  | Some r -> (r, true)
  | None -> (
      match work () with
      | r ->
          locked t (fun () ->
              set (Ready r);
              settle r;
              Condition.broadcast t.ready);
          (r, false)
      | exception ex ->
          let bt = Printexc.get_raw_backtrace () in
          locked t (fun () ->
              set Absent;
              Condition.broadcast t.ready);
          Printexc.raise_with_backtrace ex bt)

let ( let* ) = Result.bind

(* Everything but the cost stage: the cheap prefix of the pipeline that
   the learned cost model's feature extraction needs. *)
let prepare_uncached t ~passes ~options ~verify ~key op params =
  let* sched = stage_sketch op params in
  let* () = if verify then stage_verify_sched t.cfg sched else Ok () in
  let* lowered = stage_lower ~options sched in
  let program = stage_passes ~passes t.cfg lowered in
  let* () = if verify then stage_verify_program t.cfg program else Ok () in
  Ok { pkey = key; pprogram = program }

(* An entry's prefix under the entry's own key: built here from the
   requesting candidate when nobody has built it yet, awaited while
   another domain builds it.  A build is one [built] or [failed]. *)
let prefix_of t e ~passes ~skip_inputs ~verify op params =
  let r, _ =
    demand t
      ~get:(fun () -> e.prefix.result)
      ~set:(fun s -> e.prefix.result <- s)
      ~settle:(count_outcome t)
      (fun () ->
        let options =
          { L.default_options with L.skip_input_transfer = skip_inputs }
        in
        prepare_uncached t ~passes ~options ~verify ~key:e.key op params)
  in
  match r with
  | Ok p when p.pkey != e.key -> Ok { p with pkey = e.key }
  | r -> r

(* One candidate request: one lookup, filing an entry on a miss (on a
   shared prefix when its canonical key is indexed), then its prefix.
   Returns the entry, its prefix, whether the key was present and
   whether a new entry shares a prefix. *)
let entry_of t ?ledger ~passes ?(skip_inputs = []) ~verify op params =
  let key = fingerprint ~passes ~skip_inputs ~verify op params in
  let e, found, shared =
    locked t (fun () ->
        match Hashtbl.find_opt t.entries key with
        | Some e ->
            count_lookups t ?ledger ~n:1 ~hits:1 ~shared:0 ();
            (e, true, false)
        | None ->
            let prefix_key = prefix_key ~passes ~skip_inputs ~verify op params in
            let e, shared = file t key ~prefix_key in
            let s = Bool.to_int shared in
            count_lookups t ?ledger ~n:1 ~hits:s ~shared:s ();
            (e, false, shared))
  in
  (e, prefix_of t e ~passes ~skip_inputs ~verify op params, found, shared)

let artifact_of (p : prepared) stats = { program = p.pprogram; stats }

(* The cost stage of an entry, run once per entry: a concurrent
   requester waits for a run in flight.  Every run is one simulator
   execution, counted in [costed] — the ledger the measurement-gated
   search is judged against — and in the caller's [ledger].  Returns
   the outcome and whether it was already there. *)
let cost_entry t ?ledger e (p : prepared) =
  let r, cached =
    demand t
      ~get:(fun () -> e.cost)
      ~set:(fun s -> e.cost <- s)
      ~settle:(fun r ->
        t.c <- { t.c with costed = t.c.costed + 1 };
        charge ledger (fun l -> l.l_costed) 1;
        if Result.is_error r then count_outcome t r)
      (fun () ->
        let r = stage_cost t.cfg p.pprogram in
        Result.iter
          (fun stats ->
            Obs.incr ~by:stats.Stats.bytes_h2d "engine.bytes_h2d";
            Obs.incr ~by:stats.Stats.bytes_d2h "engine.bytes_d2h")
          r;
        r)
  in
  (Result.map (artifact_of p) r, cached)

let outcome t e = function
  | Error err -> (Error err, true)
  | Ok p -> cost_entry t e p

let noisy ?rng base =
  match rng with
  | None -> base
  | Some r -> base *. (1. +. (noise_amplitude *. ((2. *. Rng.float r 1.) -. 1.)))

let measurement ?rng r =
  Result.map
    (fun artifact -> { artifact; latency_s = noisy ?rng (Stats.total_s artifact.stats) })
    r

let build_outcome t ?(passes = Pl.all_on) ?skip_inputs ?(verify = true) op
    params =
  Obs.span ~name:"engine.build"
    ~attrs:[ ("op", Obs.Str op.Op.opname) ]
    (fun () ->
      let e, prefix, found, _ = entry_of t ~passes ?skip_inputs ~verify op params in
      let ((r, cached) as o) = outcome t e prefix in
      Obs.add_attr "hit" (Obs.Bool (found && cached));
      Obs.add_attr "ok" (Obs.Bool (Result.is_ok r));
      o)

let build t ?passes ?skip_inputs ?verify op params =
  fst (build_outcome t ?passes ?skip_inputs ?verify op params)

let measure t ?rng ?passes ?skip_inputs ?verify op params =
  measurement ?rng (build t ?passes ?skip_inputs ?verify op params)

(* A warm hit costs little more than its span's attributes would, so
   they are built only while a trace sink can receive them. *)
let prepare t ?ledger ?(passes = Pl.all_on) ?skip_inputs ?(verify = true) op
    params =
  let traced = Obs.sink_open () in
  Obs.span ~name:"engine.prepare"
    ~attrs:(if traced then [ ("op", Obs.Str op.Op.opname) ] else [])
    (fun () ->
      let _, prefix, found, shared =
        entry_of t ?ledger ~passes ?skip_inputs ~verify op params
      in
      if traced then begin
        Obs.add_attr "hit" (Obs.Bool (found || shared));
        Obs.add_attr "shared" (Obs.Bool shared);
        Obs.add_attr "ok" (Obs.Bool (Result.is_ok prefix))
      end;
      prefix)

(* Computed outside the lock like every stage; two domains racing on
   one prefix compute the same vector, and the last write wins.  A
   candidate whose entry was evicted gets a fresh, unmemoized vector. *)
let features t (p : prepared) =
  let prefix, memo =
    locked t (fun () ->
        match Hashtbl.find_opt t.entries p.pkey with
        | Some e -> (Some e.prefix, e.prefix.feats)
        | None -> (None, None))
  in
  match memo with
  | Some x -> x
  | None ->
      let x = Features.of_program p.pprogram in
      Option.iter (fun pre -> locked t (fun () -> pre.feats <- Some x)) prefix;
      x

let simulate t ?ledger ?rng (p : prepared) =
  Obs.span ~name:"engine.simulate" (fun () ->
      (* Not a lookup: [p]'s request was counted when it was prepared.
         An entry evicted since is filed again, on its own prefix. *)
      let e =
        locked t (fun () ->
            match Hashtbl.find_opt t.entries p.pkey with
            | Some e -> e
            | None ->
                make_room t;
                let e =
                  {
                    key = p.pkey;
                    prefix = { result = Ready (Ok p); feats = None };
                    cost = Absent;
                  }
                in
                Hashtbl.replace t.entries p.pkey e;
                e)
      in
      let r, hit = cost_entry t ?ledger e p in
      Obs.add_attr "hit" (Obs.Bool hit);
      measurement ?rng r)

(* Functional execution of a built program.  All hot-path executions
   (CLI runs, graph nodes, the core [Imtp.execute]) funnel through
   here so the trace records which executor backend served them. *)
let execute prog ~inputs =
  Obs.span ~name:"engine.execute"
    ~attrs:[ ("executor", Obs.Str (Imtp_tir.Exec.backend_name ())) ]
    (fun () -> Imtp_tir.Exec.run_counted prog ~inputs)

(* The driver behind [prepare_batch] and [batch]: one lookup per slot,
   taken in list order under one lock, so a later duplicate of a key
   finds the entry an earlier slot just filed and the hit/miss/shared
   ledger is the same no matter how many domains then race on the
   work.  Each slot's entry is captured there, so a mid-batch eviction
   can't change it.  The slots' prefixes are then built (or awaited)
   across the pool, and [finish] runs on each slot's entry and prefix
   there too. *)
let run_batch t ?ledger ~name ?jobs ~passes ?(skip_inputs = []) ~verify op
    candidates finish =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let cands = Array.of_list candidates in
  let n = Array.length cands in
  Obs.span ~name
    ~attrs:
      [ ("op", Obs.Str op.Op.opname); ("size", Obs.Int n); ("jobs", Obs.Int jobs) ]
  @@ fun () ->
  let parent = Obs.current_span_id () in
  let keys =
    Array.map (fun p -> fingerprint ~passes ~skip_inputs ~verify op p) cands
  in
  let entries, misses, shared =
    locked t (fun () ->
        let misses = ref 0 and shared = ref 0 in
        let entries =
          Array.mapi
            (fun i key ->
              match Hashtbl.find_opt t.entries key with
              | Some e -> e
              | None ->
                  let prefix_key =
                    prefix_key ~passes ~skip_inputs ~verify op cands.(i)
                  in
                  let e, sh = file t key ~prefix_key in
                  if sh then incr shared else incr misses;
                  e)
            keys
        in
        count_lookups t ?ledger ~n ~hits:(n - !misses) ~shared:!shared ();
        (entries, !misses, !shared))
  in
  let run i =
    Obs.with_ambient_parent parent @@ fun () ->
    let e = entries.(i) in
    finish e (prefix_of t e ~passes ~skip_inputs ~verify op cands.(i))
  in
  let results, util = Pool.map_stats ~jobs run n in
  Obs.add_attr "hits" (Obs.Int (n - misses));
  Obs.add_attr "misses" (Obs.Int misses);
  Obs.add_attr "shared" (Obs.Int shared);
  Obs.add_attr "domains_used" (Obs.Int (Array.length util));
  Obs.add_attr "utilization"
    (Obs.Str
       (String.concat ","
          (Array.to_list util
          |> List.map (fun (tasks, busy) -> Printf.sprintf "%d:%.4fs" tasks busy))));
  results

let prepare_batch t ?ledger ?jobs ?(passes = Pl.all_on) ?skip_inputs
    ?(verify = true) op candidates =
  let prefixes =
    run_batch t ?ledger ~name:"engine.prepare_batch" ?jobs ~passes ?skip_inputs ~verify
      op candidates (fun _ prefix -> prefix)
  in
  List.mapi (fun i p -> (p, prefixes.(i))) candidates

let batch t ?jobs ?rng ?(passes = Pl.all_on) ?skip_inputs ?(verify = true) op
    candidates =
  (* One draw per batch: the caller's rng advances identically whatever
     [jobs] is, and candidate [i]'s noise comes from its own stream. *)
  let base = Option.map Rng.bits rng in
  let outcomes =
    run_batch t ~name:"engine.batch" ?jobs ~passes ?skip_inputs ~verify op
      candidates (fun e prefix -> fst (outcome t e prefix))
  in
  List.mapi
    (fun i p ->
      let rng = Option.map (fun base -> Rng.stream ~base ~index:i) base in
      (p, measurement ?rng outcomes.(i)))
    candidates
