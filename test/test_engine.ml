(* Engine tests: canonical structural hashing, the content-addressed
   memo table, batched measurement, and the typed error taxonomy. *)

module E = Imtp_engine.Engine
module Sk = Imtp_engine.Sketch
module V = Imtp_engine.Verifier
module Rng = Imtp_engine.Rng
module Pl = Imtp_passes.Pipeline
module Ops = Imtp_workload.Ops
module U = Imtp_upmem

let cfg = U.Config.default

let small_params =
  { Sk.default_params with Sk.spatial_dpus = 16; tasklets = 4; cache_elems = 16 }

(* --- canonical structural hashing --------------------------------- *)

(* The counters [f] moves on engine [e]. *)
let delta e f =
  let c0 = E.counters e in
  f ();
  let c1 = E.counters e in
  ( c1.E.lookups - c0.E.lookups,
    c1.E.hits - c0.E.hits,
    c1.E.misses + c1.E.shared - (c0.E.misses + c0.E.shared) )

(* A request for a key the table holds is one lookup and one hit, and
   files nothing. *)
let check_same_key label (lookups, hits, filed) =
  Alcotest.(check (list int)) label [ 1; 1; 0 ] [ lookups; hits; filed ]

(* A request for a new key files one entry, on a new prefix (a miss) or
   on a canonical-equal one (a shared hit). *)
let check_new_key label (lookups, _, filed) =
  Alcotest.(check (list int)) label [ 1; 1 ] [ lookups; filed ]

let test_fingerprint_stable () =
  let op = Ops.mtv 64 128 in
  let e = E.create cfg in
  let a = Result.get_ok (E.build e op small_params) in
  check_same_key "same inputs, same key"
    (delta e (fun () -> ignore (E.build e op small_params)));
  (* a structurally-equal but separately-constructed op hashes the same *)
  check_same_key "fresh op value, same key"
    (delta e (fun () -> ignore (E.build e (Ops.mtv 64 128) small_params)));
  (* another engine instance builds the same artifact *)
  let b = Result.get_ok (E.build (E.create cfg) (Ops.mtv 64 128) small_params) in
  Alcotest.(check bool) "same stats across engines" true (a.E.stats = b.E.stats)

let test_fingerprint_distinguishes () =
  let op = Ops.mtv 64 128 in
  let e = E.create cfg in
  ignore (E.prepare e op small_params);
  let check_distinct label f = check_new_key label (delta e (fun () -> ignore (f ()))) in
  check_distinct "pass config in key" (fun () -> E.prepare e ~passes:Pl.all_off op small_params);
  check_distinct "dma-only config in key" (fun () ->
      E.prepare e ~passes:{ Pl.all_off with Pl.dma_elim = true } op small_params);
  check_distinct "skip_inputs in key" (fun () ->
      E.prepare e ~skip_inputs:[ "A" ] op small_params);
  check_distinct "verify toggle in key" (fun () -> E.prepare e ~verify:false op small_params);
  (* 4 rows per DPU: tasklets 8 clamps to the same tiling, so this key
     shares its prefix but still files its own entry *)
  check_distinct "params in key" (fun () ->
      E.prepare e op { small_params with Sk.tasklets = 8 });
  check_distinct "op shape in key" (fun () -> E.prepare e (Ops.mtv 64 256) small_params);
  (* skip_inputs are order-canonicalized, so permutations share a key *)
  check_distinct "skip_inputs pair" (fun () ->
      E.prepare e ~skip_inputs:[ "A"; "B" ] op small_params);
  check_same_key "skip_inputs order irrelevant"
    (delta e (fun () -> ignore (E.prepare e ~skip_inputs:[ "B"; "A" ] op small_params)))

(* Minor words of one warm cache hit ([Engine.prepare] of a key the
   table holds, no trace sink), recorded with OCaml 5.1: the key, the
   request's span and its result.  Formatting the key or digesting it
   would cost that again; so would building the span's attributes
   while no sink can receive them. *)
let test_fingerprint_alloc () =
  let op = Ops.mtv 64 128 in
  let e = E.create cfg in
  ignore (E.prepare e ~skip_inputs:[ "A" ] op small_params);
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (E.prepare e ~skip_inputs:[ "A" ] op small_params))
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
  let recorded = 132. in
  if per_call > 1.25 *. recorded then
    Alcotest.failf "cache hit: %.1f minor words per call, budget %.0f (1.25 x %.0f)"
      per_call (1.25 *. recorded) recorded

(* --- canonical tiling ---------------------------------------------- *)

(* An exhaustive walk builds each point once. *)
let test_space_distinct () =
  List.iter
    (fun (name, op) ->
      let space = Sk.space cfg op in
      Alcotest.(check int)
        (name ^ ": every point listed once")
        (List.length (List.sort_uniq compare space))
        (List.length space))
    [
      ("va 1000", Ops.va 1000);
      ("red 999", Ops.red 999);
      ("mtv 31x61", Ops.mtv 31 61);
      ("mmtv 3x10x14", Ops.mmtv 3 10 14);
      ("gemm 12x10x9", Ops.gemm 12 10 9);
      ("rowdiv 3x50", Ops.rowdiv 3 50);
    ]

(* Every point of the searched space of one small op per sketch family
   (a misaligned MTV and a ragged GEMV among them), over unroll and
   host_threads too: parameters with equal canonical tilings give the
   same schedule trace.  The lowering is a function of the trace and
   the lowering options, which are the same for every point
   ([Sketch.lower_options]), so equal traces are equal programs; each
   class is compiled once, from its first point, and must compile to a
   program or a typed error. *)
let test_canonical_sound () =
  let module Printer = Imtp_tir.Printer in
  let module S = Imtp_schedule.Sched in
  let compile op p =
    match
      E.compile_sched ~options:(Sk.lower_options p) cfg (Sk.instantiate op p)
    with
    | Error err -> Error (E.error_to_string err)
    | Ok prog -> (
        match E.estimate cfg prog with
        | Ok stats -> Ok (Printer.program_to_string prog, stats)
        | Error err -> Error (E.error_to_string err))
  in
  List.iter
    (fun (name, op) ->
      let classes = Hashtbl.create 256 in
      let shared = ref 0 in
      List.iter
        (fun p ->
          List.iter
            (fun unroll_inner ->
              List.iter
                (fun host_threads ->
                  let p = { p with Sk.unroll_inner; host_threads } in
                  let c = Sk.canonical op p in
                  let trace =
                    match Sk.instantiate op p with
                    | sched -> Ok (S.trace sched)
                    | exception Invalid_argument m -> Error m
                  in
                  match Hashtbl.find_opt classes c with
                  | None ->
                      ignore (compile op p);
                      Hashtbl.add classes c (p, trace)
                  | Some (p0, trace0) ->
                      incr shared;
                      if trace <> trace0 then
                        Alcotest.failf "%s: %s and %s share a tiling, not a schedule"
                          name (Sk.describe p0) (Sk.describe p))
                [ 1; 4; 16 ])
            [ false; true ])
        (Sk.space cfg op);
      if !shared = 0 then Alcotest.failf "%s: no canonical-equal points" name)
    [
      ("va 1000", Ops.va 1000);
      ("red 999", Ops.red 999);
      ("mtv 31x61", Ops.mtv 31 61);
      ("gemv 50x37", Ops.gemv ~c:3 50 37);
      ("mmtv 3x10x14", Ops.mmtv 3 10 14);
      ("gemm 12x10x9", Ops.gemm 12 10 9);
      ("rowdiv 3x50", Ops.rowdiv 3 50);
    ]

(* A field below 1 is a typed sketch error naming the field, on every
   entry point, never an exception: a zero [rows_per_tasklet] on mmtv,
   a zero [spatial_dpus] on va and a zero [cache_elems] under rfactor
   on mtv used to divide by zero, and negative counts used to build. *)
let test_nonpositive_fields () =
  let contains s sub =
    let n = String.length sub in
    let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  let base = { small_params with Sk.reduction_dpus = 4 } in
  let fields =
    [
      ("spatial_dpus", fun v -> { base with Sk.spatial_dpus = v });
      ("reduction_dpus", fun v -> { base with Sk.reduction_dpus = v });
      ("tasklets", fun v -> { base with Sk.tasklets = v });
      ("cache_elems", fun v -> { base with Sk.cache_elems = v });
      ("rows_per_tasklet", fun v -> { base with Sk.rows_per_tasklet = v });
      ("host_threads", fun v -> { base with Sk.host_threads = v });
    ]
  in
  let e = E.create cfg in
  List.iter
    (fun (opname, op) ->
      List.iter
        (fun (field, set) ->
          List.iter
            (fun v ->
              let p = set v in
              let what = Printf.sprintf "%s %s=%d" opname field v in
              let check = function
                | Error (E.Sketch_invalid m) when contains m field -> ()
                | Error err -> Alcotest.failf "%s: %s" what (E.error_to_string err)
                | Ok _ -> Alcotest.failf "%s: built" what
              in
              check (E.build e op p);
              check (E.prepare e ~passes:Pl.all_off op p);
              List.iter (fun (_, r) -> check r) (E.batch e ~jobs:1 ~verify:false op [ p ]))
            [ 0; -1; -3 ])
        fields)
    [
      ("va 1000", Ops.va 1000);
      ("red 999", Ops.red 999);
      ("mtv 64x128", Ops.mtv 64 128);
      ("mmtv 16x64x256", Ops.mmtv 16 64 256);
      ("gemm 12x10x9", Ops.gemm 12 10 9);
      ("rowdiv 3x50", Ops.rowdiv 3 50);
    ]

(* --- the sampling table ---------------------------------------------- *)

let member a v = Array.exists (( = ) v) a

(* A drawn or mutated field comes from the op's table, or is a value
   the family pins: a pure reduction's one spatial DPU and at least two
   reduction DPUs, and one row per tasklet outside batched ops. *)
let in_table (t : Sk.table) (p : Sk.params) =
  let reduce = t.Sk.family = Sk.Tasklet_reduce in
  (member t.Sk.spatial_choices p.Sk.spatial_dpus
  || (reduce && p.Sk.spatial_dpus = 1))
  && (member t.Sk.reduction_choices p.Sk.reduction_dpus
     || (reduce && p.Sk.reduction_dpus = 2))
  && member t.Sk.tasklet_choices p.Sk.tasklets
  && member t.Sk.cache_choices p.Sk.cache_elems
  && (if t.Sk.family = Sk.Batched then
        member t.Sk.rows_choices p.Sk.rows_per_tasklet
      else p.Sk.rows_per_tasklet = 1)
  && member t.Sk.host_thread_choices p.Sk.host_threads

(* One random draw and a chain of mutations, with the rng state they
   leave behind. *)
let draws rng op =
  let p = Sk.random rng cfg op in
  let rec chain p n acc =
    if n = 0 then List.rev acc
    else
      let q = Sk.mutate rng cfg op p in
      chain q (n - 1) (q :: acc)
  in
  (p :: chain p 12 [], Rng.bits rng)

let prop_sampling_table =
  QCheck2.Test.make
    ~name:"random/mutate draw from the op's table; cold and warm tables agree"
    ~count:80
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let w = Imtp_fuzz.Gen_workload.random rng in
      (* [Gen_workload.op] builds a new operator value per call, so the
         first draw against each misses the table memo. *)
      let cold_op = Imtp_fuzz.Gen_workload.op w in
      let cold = draws (Rng.copy rng) cold_op in
      let warm = draws (Rng.copy rng) cold_op in
      let params, _ = warm in
      let t = Sk.table cfg cold_op in
      (* a mutation as the first draw against a cold table, too *)
      let parent = List.hd params in
      let mutated_cold =
        Sk.mutate (Rng.copy rng) cfg (Imtp_fuzz.Gen_workload.op w) parent
      in
      let mutated_warm = Sk.mutate (Rng.copy rng) cfg cold_op parent in
      cold = warm
      && mutated_cold = mutated_warm
      && List.for_all (in_table t) (mutated_cold :: params))

(* --- the memo table ------------------------------------------------ *)

let test_cache_hit_identical_stats () =
  let op = Ops.mtv 64 128 in
  let e = E.create cfg in
  let m1 = Result.get_ok (E.measure e op small_params) in
  Alcotest.(check int) "first build runs the cost stage" 1 (E.counters e).E.costed;
  let m2 = Result.get_ok (E.measure e op small_params) in
  Alcotest.(check int) "second build serves it" 1 (E.counters e).E.costed;
  (* bit-identical artifact: the cache returns the same value, it does
     not recompute. *)
  Alcotest.(check bool) "stats bit-identical" true
    (m1.E.artifact.E.stats = m2.E.artifact.E.stats);
  Alcotest.(check bool) "program identical" true
    (m1.E.artifact.E.program = m2.E.artifact.E.program);
  let c = E.counters e in
  Alcotest.(check int) "one hit" 1 c.E.hits;
  Alcotest.(check int) "one artifact built" 1 c.E.built

let test_errors_cached () =
  (* 512-element caches x 3 buffers x 24 tasklets = 144 KB > 64 KB WRAM. *)
  let p =
    { Sk.default_params with Sk.spatial_dpus = 4; tasklets = 24; cache_elems = 512 }
  in
  let op = Ops.va 1_000_000 in
  let e = E.create cfg in
  (match E.build e op p with
  | Error (E.Verifier_rejected r) ->
      Alcotest.(check string) "typed wram rejection" "wram" r.V.constraint_name
  | Error err -> Alcotest.failf "wrong error: %s" (E.error_to_string err)
  | Ok _ -> Alcotest.fail "WRAM overflow accepted");
  (* the rejection is cached: re-proposing costs a lookup, not a build *)
  let before = E.counters e in
  (match E.build e op p with
  | Error (E.Verifier_rejected _) -> ()
  | _ -> Alcotest.fail "cached outcome differs");
  let after = E.counters e in
  Alcotest.(check int) "second probe hits" (before.E.hits + 1) after.E.hits;
  Alcotest.(check int) "no new failure built" before.E.failed after.E.failed

let test_error_to_string_prefixes () =
  Alcotest.(check string) "lower" "lower: boom" (E.error_to_string (E.Lower_failed "boom"));
  Alcotest.(check string) "cost" "cost: boom" (E.error_to_string (E.Cost_failed "boom"));
  Alcotest.(check string) "sketch" "sketch: boom"
    (E.error_to_string (E.Sketch_invalid "boom"));
  Alcotest.(check bool) "verifier prefix" true
    (String.length
       (E.error_to_string
          (E.Verifier_rejected { V.reason = "r"; constraint_name = "wram" }))
    > 0)

(* --- batched measurement ------------------------------------------- *)

(* Run one batch on a fresh engine; return the results, the final
   counters, and the next value the caller's rng would produce (to
   check the rng advanced identically at any job count). *)
let run_batch ~jobs ~noise_seed op candidates =
  let e = E.create cfg in
  let rng = Rng.create ~seed:noise_seed in
  let results = E.batch e ~jobs ~rng op candidates in
  (results, E.counters e, Rng.bits rng)

let same_measurement a b =
  match (a, b) with
  | Ok m, Ok m' ->
      Int64.equal
        (Int64.bits_of_float m.E.latency_s)
        (Int64.bits_of_float m'.E.latency_s)
      && m.E.artifact.E.stats = m'.E.artifact.E.stats
  | Error e, Error e' -> e = e'
  | (Ok _ | Error _), _ -> false

let same_int_counters a b =
  a.E.lookups = b.E.lookups && a.E.hits = b.E.hits && a.E.misses = b.E.misses
  && a.E.shared = b.E.shared
  && a.E.evictions = b.E.evictions
  && a.E.built = b.E.built && a.E.failed = b.E.failed
  && a.E.costed = b.E.costed

let check_jobs_equivalent ~noise_seed op candidates =
  let r1, c1, next1 = run_batch ~jobs:1 ~noise_seed op candidates in
  let r4, c4, next4 = run_batch ~jobs:4 ~noise_seed op candidates in
  List.length r1 = List.length r4
  && List.for_all2
       (fun (p, a) (p', b) -> p = p' && same_measurement a b)
       r1 r4
  && same_int_counters c1 c4 && next1 = next4

(* jobs:1 (inline, no domains) and jobs:4 (a domain pool) are one
   contract: same results in candidate order, bit-identical noisy
   latencies, same integer counters, and the
   caller's rng advanced by exactly one draw either way. *)
let test_batch_matches_sequential () =
  let op = Ops.mtv 64 128 in
  let candidates =
    [
      small_params;
      { small_params with Sk.tasklets = 2 };
      small_params (* duplicate: must be a cache hit, same stats *);
      { small_params with Sk.cache_elems = 32 };
    ]
  in
  let r1, c1, next1 = run_batch ~jobs:1 ~noise_seed:7 op candidates in
  let r4, c4, next4 = run_batch ~jobs:4 ~noise_seed:7 op candidates in
  Alcotest.(check int) "same length" (List.length r1) (List.length r4);
  List.iter2
    (fun (p1, a) (p4, b) ->
      Alcotest.(check bool) "same params order" true (p1 = p4);
      match (a, b) with
      | Ok s, Ok m ->
          Alcotest.(check (float 0.)) "same noisy latency" s.E.latency_s
            m.E.latency_s;
          Alcotest.(check bool) "same stats" true
            (s.E.artifact.E.stats = m.E.artifact.E.stats)
      | Error a, Error b ->
          Alcotest.(check string) "same error" (E.error_to_string a)
            (E.error_to_string b)
      | _ -> Alcotest.fail "jobs:1 and jobs:4 outcomes disagree")
    r1 r4;
  (* the duplicate candidate was served from cache at both job counts *)
  Alcotest.(check int) "jobs:1 cache hit" 1 c1.E.hits;
  Alcotest.(check int) "jobs:4 cache hit" 1 c4.E.hits;
  Alcotest.(check int) "same lookups" c1.E.lookups c4.E.lookups;
  Alcotest.(check int) "same built" c1.E.built c4.E.built;
  Alcotest.(check bool) "rng advanced identically" true (next1 = next4)

(* Host post-processing parallelism is a schedule primitive: for
   rfactor and non-rfactor params of mtv, mmtv and gemm, the sketch
   emits [parallel] exactly when the canonical tiling's [host_threads]
   is > 1, and the lowered host reduction loop is then
   [Host_parallel n]; every other host loop stays serial. *)
let test_host_parallel_from_schedule () =
  let module S = Imtp_schedule.Sched in
  let module St = Imtp_tir.Stmt in
  let rec host_parallel acc = function
    | St.For { kind = St.Host_parallel n; body; _ } ->
        host_parallel (n :: acc) body
    | St.For { body; _ } | St.Alloc { body; _ } -> host_parallel acc body
    | St.Seq l -> List.fold_left host_parallel acc l
    | St.If { then_; else_; _ } ->
        Option.fold ~none:(host_parallel acc then_)
          ~some:(host_parallel (host_parallel acc then_))
          else_
    | St.Store _ | St.Dma _ | St.Xfer _ | St.Launch _ | St.Barrier | St.Nop -> acc
  in
  List.iter
    (fun (name, op) ->
      List.iter
        (fun reduction_dpus ->
          List.iter
            (fun host_threads ->
              let p = { small_params with Sk.reduction_dpus; host_threads } in
              let what = Printf.sprintf "%s %s" name (Sk.describe p) in
              let c = Sk.canonical op p in
              Alcotest.(check bool)
                (what ^ ": threaded exactly under rfactor")
                (reduction_dpus > 1 && host_threads > 1)
                (c.Sk.host_threads > 1);
              let want =
                if c.Sk.host_threads > 1 then [ c.Sk.host_threads ] else []
              in
              let sched = Sk.instantiate op p in
              let annotated =
                List.filter_map
                  (fun (l : S.loop) ->
                    match l.S.annot with
                    | S.Host_parallel n -> Some n
                    | S.Serial | S.Unrolled | S.Bound _ -> None)
                  (S.order sched)
              in
              Alcotest.(check (list int))
                (what ^ ": parallel steps") want annotated;
              match E.compile_sched cfg sched with
              | Error err -> Alcotest.failf "%s: %s" what (E.error_to_string err)
              | Ok prog ->
                  Alcotest.(check (list int))
                    (what ^ ": host parallel loops")
                    want
                    (host_parallel [] prog.Imtp_tir.Program.host))
            [ 1; 4; 16 ])
        [ 1; 4 ])
    [
      ("mtv 64x128", Ops.mtv 64 128);
      ("mmtv 4x32x64", Ops.mmtv 4 32 64);
      ("gemm 16x16x32", Ops.gemm 16 16 32);
    ]

(* Canonical-equal candidates with distinct parameters share one
   prefix: one build, a hit per sharer, each costed on its own, and the
   same results and ledger at any job count. *)
let test_batch_canonical_shares () =
  let op = Ops.mtv 64 128 in
  (* 4 rows per DPU: tasklets 8 and 12 clamp to 4, and host_threads is
     unread without rfactor. *)
  let candidates =
    [
      small_params;
      { small_params with Sk.tasklets = 8 };
      { small_params with Sk.host_threads = 4 };
      { small_params with Sk.cache_elems = 32 };
      { small_params with Sk.tasklets = 12; cache_elems = 32 };
      { small_params with Sk.tasklets = 8 };
    ]
  in
  let r1, c1, next1 = run_batch ~jobs:1 ~noise_seed:5 op candidates in
  Alcotest.(check int) "two prefixes built" 2 c1.E.built;
  Alcotest.(check int) "two misses" 2 c1.E.misses;
  Alcotest.(check int) "three shared" 3 c1.E.shared;
  Alcotest.(check int) "shares and the duplicate are hits" 4 c1.E.hits;
  Alcotest.(check int) "one cost stage per key" 5 c1.E.costed;
  List.iter
    (fun jobs ->
      let r, c, next = run_batch ~jobs ~noise_seed:5 op candidates in
      Alcotest.(check bool)
        (Printf.sprintf "jobs:%d results equal jobs:1" jobs)
        true
        (List.for_all2 (fun (p, a) (p', b) -> p = p' && same_measurement a b) r1 r);
      Alcotest.(check bool)
        (Printf.sprintf "jobs:%d counters equal jobs:1" jobs)
        true (same_int_counters c1 c);
      Alcotest.(check bool) "rng advanced identically" true (next1 = next))
    [ 2; 4 ];
  let stats = List.map (fun (_, m) -> (Result.get_ok m).E.artifact.E.stats) r1 in
  Alcotest.(check bool) "sharers have equal stats" true
    (List.nth stats 0 = List.nth stats 1 && List.nth stats 0 = List.nth stats 2)

(* A batch on a warm shared engine is served entirely from cache, even
   when the warm-up itself ran across domains. *)
let test_parallel_warmup_serves_hits () =
  let op = Ops.mtv 64 128 in
  let e = E.create cfg in
  let candidates =
    List.init 8 (fun i -> { small_params with Sk.cache_elems = 8 * (i + 1) })
  in
  let first = E.batch e ~jobs:4 op candidates in
  let c0 = E.counters e in
  let second = E.batch e ~jobs:4 op candidates in
  let c1 = E.counters e in
  Alcotest.(check int) "no new builds" c0.E.built c1.E.built;
  Alcotest.(check int) "no new failures" c0.E.failed c1.E.failed;
  Alcotest.(check int) "no new cost stages" c0.E.costed c1.E.costed;
  Alcotest.(check int) "warm re-batch hits" (c0.E.hits + 8) c1.E.hits;
  List.iter2
    (fun (_, a) (_, b) ->
      match (a, b) with
      | Ok m, Ok m' ->
          Alcotest.(check bool) "identical stats" true
            (m.E.artifact.E.stats = m'.E.artifact.E.stats)
      | Error a, Error b ->
          Alcotest.(check string) "same cached error" (E.error_to_string a)
            (E.error_to_string b)
      | _ -> Alcotest.fail "warm re-batch changed an outcome")
    first second

(* Property: for random operators, candidate lists (with forced
   duplicates) and seeds, a parallel batch is indistinguishable from a
   sequential one. *)
let prop_batch_jobs_equivalent =
  QCheck2.Test.make ~name:"batch ~jobs:4 equals ~jobs:1" ~count:25
    QCheck2.Gen.(
      tup4 (int_range 0 2) (int_range 0 10_000) (int_range 0 10_000)
        (int_range 1 10))
    (fun (which_op, cand_seed, noise_seed, n) ->
      let op =
        match which_op with
        | 0 -> Ops.mtv 64 128
        | 1 -> Ops.va 4096
        | _ -> Ops.gemm 16 16 16
      in
      let rng = Rng.create ~seed:cand_seed in
      let base = List.init n (fun _ -> Sk.random rng cfg op) in
      (* append a prefix of itself so every list has duplicate keys *)
      let candidates = base @ List.filteri (fun i _ -> i < (n + 1) / 2) base in
      check_jobs_equivalent ~noise_seed op candidates)

let test_measure_noise_fresh_on_hits () =
  let op = Ops.mtv 64 128 in
  let e = E.create cfg in
  let rng = Rng.create ~seed:11 in
  let m1 = Result.get_ok (E.measure e ~rng op small_params) in
  let m2 = Result.get_ok (E.measure e ~rng op small_params) in
  Alcotest.(check int) "second from cache" 1 (E.counters e).E.costed;
  (* noise is drawn per measurement even on hits, stats stay identical *)
  Alcotest.(check bool) "stats identical" true
    (m1.E.artifact.E.stats = m2.E.artifact.E.stats);
  let base = U.Stats.total_s m1.E.artifact.E.stats in
  List.iter
    (fun l ->
      Alcotest.(check bool) "noise bounded" true
        (Float.abs (l -. base) /. base <= E.noise_amplitude +. 1e-9))
    [ m1.E.latency_s; m2.E.latency_s ]

(* --- integration with search and tuner ----------------------------- *)

let test_search_reports_cache_hits () =
  let module Se = Imtp_autotune.Search in
  let op = Ops.mtv 128 256 in
  let o = Se.run ~seed:9 cfg op ~trials:32 in
  (* evolutionary mutation re-proposes candidates; the engine dedups
     them and the outcome reports it. *)
  Alcotest.(check bool) "nonzero cache hits" true (o.Se.cache_hits > 0);
  Alcotest.(check bool) "hits bounded by trials" true (o.Se.cache_hits < 32)

let test_shared_engine_across_tunes () =
  let module Tu = Imtp_autotune.Tuner in
  let op = Ops.mtv 128 256 in
  let engine = E.create cfg in
  let r1 = Result.get_ok (Tu.tune ~seed:21 ~trials:16 ~engine cfg op) in
  let built_once = (E.counters engine).E.built in
  let r2 = Result.get_ok (Tu.tune ~seed:21 ~trials:16 ~engine cfg op) in
  (* identical seed on a warm shared engine: every candidate is served
     from cache, nothing new is built, and the result is unchanged. *)
  Alcotest.(check int) "no new builds" built_once (E.counters engine).E.built;
  Alcotest.(check bool) "nonzero hit rate" true
    (E.hit_rate (E.counters engine) > 0.);
  Alcotest.(check bool) "same winner" true (r1.Tu.params = r2.Tu.params);
  Alcotest.(check bool) "same stats" true (r1.Tu.stats = r2.Tu.stats)

let test_tuner_winner_not_rebuilt () =
  let module Tu = Imtp_autotune.Tuner in
  let op = Ops.va 50_000 in
  let engine = E.create cfg in
  let r = Result.get_ok (Tu.tune ~seed:5 ~trials:16 ~engine cfg op) in
  (* the winner's artifact must already be in cache from the search;
     re-building it now is a pure hit with the exact stats returned. *)
  let c0 = E.counters engine in
  let a = Result.get_ok (E.build engine op r.Tu.params) in
  let c1 = E.counters engine in
  Alcotest.(check int) "a hit" (c0.E.hits + 1) c1.E.hits;
  Alcotest.(check int) "nothing built" c0.E.built c1.E.built;
  Alcotest.(check int) "nothing costed" c0.E.costed c1.E.costed;
  Alcotest.(check bool) "tuner returned the cached artifact" true
    (a.E.stats = r.Tu.stats && a.E.program == r.Tu.program)

(* The memo table holds 4096 keys. *)
let table_keys = 4096

(* [n] more keys on [base]'s prefix: [host_threads] is unread without
   rfactor, so each files an entry and builds nothing. *)
let fill e op base n =
  for i = 1 to n do
    ignore (E.prepare e op { base with Sk.host_threads = 1000 + i })
  done

let test_eviction_resets_table () =
  let op = Ops.mtv 64 128 in
  let e = E.create cfg in
  let p i = { small_params with Sk.cache_elems = 8 * (i + 1) } in
  List.iter (fun i -> ignore (E.build e op (p i))) [ 0; 1; 2; 3 ];
  fill e op (p 0) (table_keys - 4);
  let c = E.counters e in
  Alcotest.(check int) "a full table" 0 c.E.evictions;
  Alcotest.(check int) "fillers share a prefix" 4 c.E.built;
  ignore (E.prepare e op (p 4));
  Alcotest.(check int) "the next key resets it" 1 (E.counters e).E.evictions;
  (* still correct after eviction: rebuilt artifact equals a fresh one *)
  let a = Result.get_ok (E.build e op (p 0)) in
  Alcotest.(check int) "evicted key rebuilt" 6 (E.counters e).E.built;
  let fresh = Result.get_ok (E.build (E.create cfg) op (p 0)) in
  Alcotest.(check bool) "rebuild identical" true (a.E.stats = fresh.E.stats)

(* One entry per key: a candidate prepared and then measured is built
   once, costed once and takes one slot of the table.  [simulate] is
   not a lookup. *)
let test_one_entry_per_key () =
  let op = Ops.mtv 64 128 in
  let e = E.create cfg in
  let p i = { small_params with Sk.cache_elems = 8 * (i + 1) } in
  let prep = Result.get_ok (E.prepare e op (p 0)) in
  Alcotest.(check int) "prepare runs no cost stage" 0 (E.counters e).E.costed;
  let m = Result.get_ok (E.measure e op (p 0)) in
  Alcotest.(check bool) "same program" true
    (m.E.artifact.E.program == prep.E.pprogram);
  let c = E.counters e in
  Alcotest.(check int) "built once" 1 c.E.built;
  Alcotest.(check int) "costed once" 1 c.E.costed;
  Alcotest.(check int) "two requests, two lookups" 2 c.E.lookups;
  Alcotest.(check int) "the second is a hit" 1 c.E.hits;
  let s = Result.get_ok (E.simulate e prep) in
  Alcotest.(check bool) "simulate serves the cost outcome" true
    (s.E.artifact.E.stats = m.E.artifact.E.stats);
  Alcotest.(check int) "simulate is not a lookup" 2 (E.counters e).E.lookups;
  Alcotest.(check int) "no second cost stage" 1 (E.counters e).E.costed;
  (* the candidate holds one slot, so the rest of the table fits *)
  fill e op (p 1) (table_keys - 1);
  Alcotest.(check int) "one slot per key" 0 (E.counters e).E.evictions;
  ignore (E.prepare e op (p 2));
  Alcotest.(check int) "the next key evicts" 1 (E.counters e).E.evictions

(* Inside a batch, an uncached candidate proposed twice is prepared and
   costed once, and the ledger is the same at any job count. *)
let test_batch_costs_duplicate_once () =
  let op = Ops.mtv 64 128 in
  let dup = { small_params with Sk.tasklets = 2 } in
  let candidates = [ dup; small_params; dup; dup ] in
  let _, c1, _ = run_batch ~jobs:1 ~noise_seed:3 op candidates in
  let r4, c4, _ = run_batch ~jobs:4 ~noise_seed:3 op candidates in
  Alcotest.(check int) "two keys built" 2 c4.E.built;
  Alcotest.(check int) "two keys costed" 2 c4.E.costed;
  Alcotest.(check int) "four lookups" 4 c4.E.lookups;
  Alcotest.(check int) "duplicates are hits" 2 c4.E.hits;
  Alcotest.(check bool) "jobs:4 counters equal jobs:1" true
    (same_int_counters c1 c4);
  let stats i = (Result.get_ok (snd (List.nth r4 i))).E.artifact.E.stats in
  Alcotest.(check bool) "duplicates share the outcome" true
    (stats 0 = stats 2 && stats 0 = stats 3)

(* Concurrent requesters of one entry's cost stage wait for the run in
   flight instead of repeating it: [costed] counts one simulator run
   per entry whatever the thread timing.  Each entry's program times
   its kernel 200 more times, so its cost stage outlasts a scheduler
   time slice and the requesters overlap even on one core. *)
let test_concurrent_simulate_costs_once () =
  let module P = Imtp_tir.Program in
  let e = E.create cfg in
  let base =
    Result.get_ok
      (E.prepare e (Ops.mtv 8192 8192)
         { Sk.default_params with Sk.spatial_dpus = 256; tasklets = 16; cache_elems = 16 })
  in
  let k = List.hd base.E.pprogram.P.kernels in
  let program =
    {
      base.E.pprogram with
      P.kernels =
        base.E.pprogram.P.kernels
        @ List.init 200 (fun i -> { k with P.kname = Printf.sprintf "%s_%d" k.P.kname i });
    }
  in
  let preps =
    List.init 3 (fun i -> { E.pkey = Printf.sprintf "heavy%d" i; pprogram = program })
  in
  (* Three domains meet at a barrier before each entry's requests. *)
  let domains = 3 in
  let arrived = List.map (fun _ -> Atomic.make 0) preps in
  let requester () =
    List.map2
      (fun prep arrived ->
        Atomic.incr arrived;
        while Atomic.get arrived < domains do
          Domain.cpu_relax ()
        done;
        (Result.get_ok (E.simulate e prep)).E.artifact.E.stats)
      preps arrived
  in
  let runs = List.map Domain.join (List.init domains (fun _ -> Domain.spawn requester)) in
  List.iter
    (fun r -> Alcotest.(check bool) "same stats" true (r = List.hd runs))
    runs;
  Alcotest.(check int) "one cost stage per entry" (List.length preps)
    (E.counters e).E.costed

(* The feature memo lives in the candidate's entry: bit-identical to a
   fresh extraction on miss and on hit, taking no slot of the table,
   gone after eviction and invisible to the counters. *)
let test_feature_memo () =
  let op = Ops.mtv 64 128 in
  let e = E.create cfg in
  let p i = { small_params with Sk.cache_elems = 8 * (i + 1) } in
  let prep i = Result.get_ok (E.prepare e op (p i)) in
  let bits x = Array.map Int64.bits_of_float x in
  let fresh i = bits (Imtp_autotune.Cost_learn.features (prep i).E.pprogram) in
  let preps = List.map prep [ 0; 1; 2; 3 ] in
  let c0 = E.counters e in
  let misses = List.map (E.features e) preps in
  let hits = List.map (E.features e) preps in
  let c1 = E.counters e in
  List.iteri
    (fun i (m, h) ->
      Alcotest.(check bool) "miss equals Cost_learn.features" true
        (bits m = fresh i);
      Alcotest.(check bool) "hit equals Cost_learn.features" true
        (bits h = fresh i);
      Alcotest.(check bool) "hit served from the memo" true (m == h))
    (List.combine misses hits);
  Alcotest.(check bool) "memo leaves the counters untouched" true (c0 = c1);
  (* 4 prepared entries and the fillers fill the table; their feature
     vectors take no slot of their own, so only the next distinct entry
     evicts. *)
  fill e op (p 4) (table_keys - 4);
  Alcotest.(check int) "memo entries not counted" 0 (E.counters e).E.evictions;
  ignore (prep 5);
  Alcotest.(check int) "next entry evicts" 1 (E.counters e).E.evictions;
  let p0 = List.hd preps in
  let again = E.features e p0 in
  Alcotest.(check bool) "eviction clears the memo" false
    (again == List.hd misses);
  Alcotest.(check bool) "recomputed vector identical" true
    (bits again = fresh 0)

(* --- verifier: DMA sizes --------------------------------------------- *)

(* One kernel whose DMA size is the copy loop's variable, bounded by a
   clamped extent of [cap - 1] elements. *)
let variable_dma_program cap =
  let module Ex = Imtp_tir.Expr in
  let module St = Imtp_tir.Stmt in
  let module B = Imtp_tir.Buffer in
  let module P = Imtp_tir.Program in
  let v = Imtp_tir.Var.fresh "i" in
  let wbuf = B.create "w" Imtp_tensor.Dtype.I32 ~elems:8192 B.Wram in
  let dma =
    St.Dma
      {
        dir = St.Mram_to_wram;
        wram = "w";
        wram_off = Ex.int 0;
        mram = "m";
        mram_off = Ex.int 0;
        elems = Ex.var v;
      }
  in
  let body =
    St.Alloc
      {
        buffer = wbuf;
        body = St.for_ v (Ex.min_e (Ex.int cap) (Ex.int (cap - 1))) dma;
      }
  in
  {
    P.name = "synthetic";
    host_buffers = [];
    mram_buffers = [];
    kernels = [ { P.kname = "k"; body } ];
    host = St.Launch "k";
  }

let test_verifier_variable_dma () =
  (* A DMA size that does not fold to a constant is rejected under
     "dma", whether or not its range would fit the limit. *)
  let cap = cfg.U.Config.dma_max_bytes / 4 in
  List.iter
    (fun c ->
      match V.check cfg (variable_dma_program c) with
      | Ok () -> Alcotest.failf "variable DMA accepted (cap %d)" c
      | Error r ->
          Alcotest.(check string) "constraint name" "dma" r.V.constraint_name)
    [ cap; 4 * cap ]

(* --- stage timing ---------------------------------------------------- *)

let test_stage_timing_single_clock () =
  (* Every stage run is charged one wall-clock duration: the span's.
     The histogram must add up to exactly the spans' total, read back
     from a trace file, also when two domains build at once. *)
  let module Obs = Imtp_obs.Obs in
  Obs.reset ();
  let e = E.create cfg in
  let op = Ops.mtv 96 200 in
  let cands = List.filteri (fun i _ -> i < 12) (Sk.space cfg op) in
  let file = Filename.temp_file "imtp_stage" ".jsonl" in
  let events =
    Fun.protect
      ~finally:(fun () -> Sys.remove file)
      (fun () ->
        Obs.with_sink (Some file) (fun () -> ignore (E.batch e ~jobs:2 op cands));
        match Obs.load_jsonl file with
        | Ok events -> events
        | Error m -> Alcotest.failf "load_jsonl failed: %s" m)
  in
  let c = E.counters e in
  Alcotest.(check bool) "something was built" true (c.E.built > 0);
  List.iter
    (fun stage ->
      let spans =
        List.filter_map
          (function
            | Obs.Span s when String.equal s.Obs.name ("engine." ^ stage) ->
                Some s.Obs.dur_s
            | Obs.Span _ | Obs.Counter _ | Obs.Gauge _ | Obs.Histogram _ ->
                None)
          events
      in
      let total = List.fold_left ( +. ) 0. spans in
      match
        List.find_map
          (function
            | Obs.Histogram (n, h) when String.equal n ("engine.stage." ^ stage ^ "_s")
              ->
                Some h
            | Obs.Span _ | Obs.Counter _ | Obs.Gauge _ | Obs.Histogram _ ->
                None)
          events
      with
      | None -> Alcotest.failf "no histogram for stage %s" stage
      | Some h ->
          Alcotest.(check bool) (stage ^ " ran") true (spans <> []);
          Alcotest.(check int) (stage ^ " count") (List.length spans) h.Obs.count;
          Alcotest.(check (float 1e-9)) (stage ^ " histogram sum") total h.Obs.sum)
    [ "sketch"; "verify"; "lower"; "passes"; "cost" ]

(* --- allocation budget ---------------------------------------------- *)

(* Minor words one cold [Engine.build] allocates for two fixed
   candidates, recorded with OCaml 5.1 (the allocation count of a
   single-domain build is deterministic there).  A rewrite that makes a
   build allocate a quarter more — a pass turning quadratic, say — fails
   here rather than only in the benchmark. *)
let alloc_budgets =
  [
    ( "mtv 2001x1024 rfactor",
      Ops.mtv 2001 1024,
      {
        Sk.default_params with
        Sk.spatial_dpus = 64;
        reduction_dpus = 4;
        tasklets = 16;
        cache_elems = 64;
        host_threads = 4;
      },
      11437. );
    ( "va 1000003",
      Ops.va 1000003,
      { Sk.default_params with Sk.spatial_dpus = 256; tasklets = 16; cache_elems = 256 },
      9629. );
  ]

let build_words op params =
  let e = E.create cfg in
  let w0 = Gc.minor_words () in
  let r = E.build e op params in
  let w = Gc.minor_words () -. w0 in
  (match r with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "build failed: %s" (E.error_to_string err));
  w

let test_build_alloc_budget () =
  List.iter
    (fun (name, op, params, recorded) ->
      (* warm up lazily initialized state outside the measurement *)
      ignore (build_words op params);
      let w = build_words op params in
      if w > 1.25 *. recorded then
        Alcotest.failf "%s: %.0f minor words, budget %.0f (1.25 x %.0f)" name w
          (1.25 *. recorded) recorded)
    alloc_budgets

(* The cost stage's inner loop allocates nothing per chunk: the minor
   words of one [kernel_cycles] call do not grow with the chunk count. *)
let test_kernel_cycles_alloc_flat () =
  let profile chunks =
    {
      U.Dpu_model.tasklets = 16;
      chunks;
      dma_bytes = [ (256, 1.); (64, 0.5) ];
      compute_slots = 200.;
      prologue_slots = 3.;
      epilogue_slots = 5.;
    }
  in
  let words chunks =
    let p = profile chunks in
    ignore (U.Dpu_model.kernel_cycles cfg p);
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (U.Dpu_model.kernel_cycles cfg p));
    Gc.minor_words () -. w0
  in
  let counts = [ 32; 3000; 4096; 1_000_000 ] in
  let ws = List.map words counts in
  let lo = List.fold_left Float.min infinity ws
  and hi = List.fold_left Float.max 0. ws in
  if hi > lo +. 8. then
    Alcotest.failf "kernel_cycles minor words grow with chunks: %s"
      (String.concat ", "
         (List.map2 (Printf.sprintf "%d chunks: %.0f") counts ws))

let () =
  Alcotest.run "engine"
    [
      ( "hashing",
        [
          Alcotest.test_case "stable" `Quick test_fingerprint_stable;
          Alcotest.test_case "distinguishes" `Quick test_fingerprint_distinguishes;
          Alcotest.test_case "allocation" `Quick test_fingerprint_alloc;
        ] );
      ( "canonical",
        [
          Alcotest.test_case "space lists each point once" `Quick
            test_space_distinct;
          Alcotest.test_case "equal tilings, equal programs" `Quick
            test_canonical_sound;
          Alcotest.test_case "batch shares prefixes" `Quick
            test_batch_canonical_shares;
          Alcotest.test_case "host parallelism from the schedule" `Quick
            test_host_parallel_from_schedule;
          Alcotest.test_case "non-positive fields are sketch errors" `Quick
            test_nonpositive_fields;
        ] );
      ("sampling table", [ QCheck_alcotest.to_alcotest prop_sampling_table ]);
      ( "cache",
        [
          Alcotest.test_case "hit returns identical stats" `Quick
            test_cache_hit_identical_stats;
          Alcotest.test_case "errors cached" `Quick test_errors_cached;
          Alcotest.test_case "error rendering" `Quick test_error_to_string_prefixes;
          Alcotest.test_case "eviction" `Quick test_eviction_resets_table;
          Alcotest.test_case "feature memo" `Quick test_feature_memo;
          Alcotest.test_case "one entry per key" `Quick test_one_entry_per_key;
        ] );
      ( "batch",
        [
          Alcotest.test_case "matches sequential" `Quick test_batch_matches_sequential;
          Alcotest.test_case "fresh noise on hits" `Quick
            test_measure_noise_fresh_on_hits;
          Alcotest.test_case "parallel warm-up serves hits" `Quick
            test_parallel_warmup_serves_hits;
          QCheck_alcotest.to_alcotest prop_batch_jobs_equivalent;
          Alcotest.test_case "duplicate costed once" `Quick
            test_batch_costs_duplicate_once;
          Alcotest.test_case "concurrent simulate costs once" `Quick
            test_concurrent_simulate_costs_once;
          Alcotest.test_case "stage timing is single-clock" `Quick
            test_stage_timing_single_clock;
          Alcotest.test_case "build allocation budget" `Quick
            test_build_alloc_budget;
          Alcotest.test_case "kernel_cycles allocation is flat" `Quick
            test_kernel_cycles_alloc_flat;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "variable dma bounds" `Quick
            test_verifier_variable_dma;
        ] );
      ( "integration",
        [
          Alcotest.test_case "search reports hits" `Quick test_search_reports_cache_hits;
          Alcotest.test_case "shared engine across tunes" `Quick
            test_shared_engine_across_tunes;
          Alcotest.test_case "winner not rebuilt" `Quick test_tuner_winner_not_rebuilt;
        ] );
    ]
