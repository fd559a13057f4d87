(* Autotuner tests: sketches, verifier, cost model, measurement and the
   balanced evolutionary search. *)

module Sk = Imtp_engine.Sketch
module V = Imtp_engine.Verifier
module Ms = Imtp_autotune.Measure
module Cm = Imtp_autotune.Cost_model
module Se = Imtp_autotune.Search
module Tu = Imtp_autotune.Tuner
module Rng = Imtp_engine.Rng
module Ops = Imtp_workload.Ops
module Op = Imtp_workload.Op
module U = Imtp_upmem
module T = Imtp_tensor

let cfg = U.Config.default

let test_family_detection () =
  Alcotest.(check bool) "va" true (Sk.family_of (Ops.va 8) = Sk.Elementwise);
  Alcotest.(check bool) "red" true (Sk.family_of (Ops.red 8) = Sk.Tasklet_reduce);
  Alcotest.(check bool) "mtv" true (Sk.family_of (Ops.mtv 4 4) = Sk.Mat_vec);
  Alcotest.(check bool) "mmtv" true (Sk.family_of (Ops.mmtv 2 4 4) = Sk.Batched);
  Alcotest.(check bool) "gemm" true (Sk.family_of (Ops.gemm 4 4 4) = Sk.Mat_mat)

let test_sketch_instantiates_all_families () =
  let check op p =
    let s = Sk.instantiate op p in
    let prog = Imtp_lower.Lowering.lower ~options:(Sk.lower_options p) s in
    match Imtp_tir.Program.validate prog with
    | Ok () -> ()
    | Error m -> Alcotest.fail m
  in
  let p = { Sk.default_params with Sk.spatial_dpus = 8; tasklets = 4; cache_elems = 8 } in
  check (Ops.va 500) p;
  check (Ops.red 500) { p with Sk.reduction_dpus = 4 };
  check (Ops.mtv 30 40) p;
  check (Ops.mtv 30 40) { p with Sk.reduction_dpus = 2 };
  check (Ops.mmtv 3 10 20) { p with Sk.rows_per_tasklet = 2 };
  check (Ops.ttv 3 10 20) { p with Sk.reduction_dpus = 2; rows_per_tasklet = 2 };
  check (Ops.gemm 10 12 14) p;
  check (Ops.gemm 10 12 14) { p with Sk.reduction_dpus = 2 }

let test_sketch_correctness_random_params () =
  let rng = Rng.create ~seed:11 in
  List.iter
    (fun op ->
      for _ = 1 to 5 do
        let p = Sk.random rng cfg op in
        match Ms.build cfg op p with
        | Error _ -> () (* verifier may reject; that's fine *)
        | Ok prog ->
            let inputs = Ops.random_inputs op in
            let outs = Imtp_tir.Eval.run prog ~inputs in
            let got = T.Tensor.to_value_list (List.assoc (fst op.Op.output) outs) in
            let want = T.Tensor.to_value_list (Op.reference op inputs) in
            if got <> want then
              Alcotest.failf "wrong result for %s under %s" op.Op.opname
                (Sk.describe p)
      done)
    [
      Ops.va 333;
      Ops.geva ~c:3 ~d:2 333;
      Ops.red 257;
      Ops.mtv 19 37;
      Ops.gemv ~c:5 19 37;
      Ops.ttv 3 9 17;
      Ops.mmtv 3 9 17;
      Ops.gemm 13 11 9;
    ]

let test_verifier_rejects_too_many_tasklets () =
  let s =
    Sk.instantiate (Ops.va 100000)
      { Sk.default_params with Sk.tasklets = 24; spatial_dpus = 16 }
  in
  (match V.check_sched cfg s with Ok () -> () | Error _ -> Alcotest.fail "24 ok");
  (* 25 tasklets cannot even be expressed through the sketch choices;
     check the verifier directly on a hand schedule. *)
  let op = Ops.va 100000 in
  let sch = Imtp_schedule.Sched.create op in
  let i = List.hd (Imtp_schedule.Sched.order sch) in
  (match Imtp_schedule.Sched.split sch i ~factors:[ 25; 4 ] with
  | [ _o; th; _inner ] -> Imtp_schedule.Sched.bind sch th Imtp_schedule.Sched.Thread_x
  | _ -> assert false);
  match V.check_sched cfg sch with
  | Error r -> Alcotest.(check string) "constraint" "tasklets" r.V.constraint_name
  | Ok () -> Alcotest.fail "25 tasklets accepted"

let test_verifier_rejects_wram_overflow () =
  (* 512-element caches x 3 buffers x 24 tasklets = 144 KB > 64 KB. *)
  let p =
    {
      Sk.default_params with
      Sk.spatial_dpus = 4;
      tasklets = 24;
      cache_elems = 512;
    }
  in
  match Ms.build cfg (Ops.va 1000000) p with
  | Error m ->
      Alcotest.(check bool) "mentions wram" true
        (String.length m > 0
        &&
        let rec find i =
          i + 4 <= String.length m && (String.sub m i 4 = "WRAM" || find (i + 1))
        in
        find 0)
  | Ok _ -> Alcotest.fail "WRAM overflow accepted"

let test_verifier_rejects_grid_overflow () =
  let small = U.Config.with_dpus cfg 64 in
  let p = { Sk.default_params with Sk.spatial_dpus = 2048; tasklets = 2; cache_elems = 4 } in
  match Ms.build small (Ops.va (1 lsl 20)) p with
  | Error _ -> ()
  | Ok prog ->
      Alcotest.(check bool) "grid within machine" true
        (Imtp_tir.Program.dpus_used prog <= 64)

let test_wram_accounting () =
  (* VA with 4 tasklets and 16-element caches: 3 buffers x 64 B x 4
     tasklets = 768 B of WRAM. *)
  let p = { Sk.default_params with Sk.spatial_dpus = 4; tasklets = 4; cache_elems = 16 } in
  let prog = Ms.build cfg (Ops.va 4096) p |> Result.get_ok in
  let k = List.hd prog.Imtp_tir.Program.kernels in
  Alcotest.(check int) "wram bytes" (3 * 64 * 4) (V.kernel_wram_bytes k)

let test_measure_deterministic_without_rng () =
  let op = Ops.mtv 64 128 in
  let p = { Sk.default_params with Sk.spatial_dpus = 16; tasklets = 4; cache_elems = 16 } in
  match (Ms.measure cfg op p, Ms.measure cfg op p) with
  | Ok a, Ok b ->
      Alcotest.(check (float 0.)) "deterministic" a.Ms.latency_s b.Ms.latency_s
  | _ -> Alcotest.fail "measurement failed"

let test_measure_noise_bounded () =
  let op = Ops.mtv 64 128 in
  let p = { Sk.default_params with Sk.spatial_dpus = 16; tasklets = 4; cache_elems = 16 } in
  let base = match Ms.measure cfg op p with Ok r -> r.Ms.latency_s | Error m -> failwith m in
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 20 do
    match Ms.measure ~rng cfg op p with
    | Ok r ->
        let rel = Float.abs (r.Ms.latency_s -. base) /. base in
        Alcotest.(check bool) "within 2%" true (rel <= Ms.noise_amplitude +. 1e-9)
    | Error m -> Alcotest.fail m
  done

let test_cost_model_learns_ranking () =
  let model = Cm.create () in
  let op = Ops.mtv 256 512 in
  let rng = Rng.create ~seed:5 in
  let samples = ref [] in
  (* train on random candidates *)
  let tries = ref 0 in
  while List.length !samples < 30 && !tries < 300 do
    incr tries;
    let p = Sk.random rng cfg op in
    match Ms.measure cfg op p with
    | Ok r ->
        samples := (p, r.Ms.latency_s) :: !samples;
        Cm.observe model (Cm.features cfg op p) r.Ms.latency_s
    | Error _ -> ()
  done;
  Alcotest.(check bool) "trained" true (Cm.trained model);
  (* rank correlation on held-out pairs: the model should order most
     clearly-separated pairs correctly. *)
  let eval = ref [] in
  let tries = ref 0 in
  while List.length !eval < 20 && !tries < 300 do
    incr tries;
    let p = Sk.random rng cfg op in
    match Ms.measure cfg op p with
    | Ok r -> eval := (Cm.predict model (Cm.features cfg op p), r.Ms.latency_s) :: !eval
    | Error _ -> ()
  done;
  let correct = ref 0 and total = ref 0 in
  List.iteri
    (fun i (pi, yi) ->
      List.iteri
        (fun j (pj, yj) ->
          if i < j && Float.abs (log yi -. log yj) > 0.7 then begin
            incr total;
            if (pi < pj) = (yi < yj) then incr correct
          end)
        !eval)
    !eval;
  if !total > 0 then
    Alcotest.(check bool)
      (Printf.sprintf "ranking accuracy %d/%d" !correct !total)
      true
      (float_of_int !correct /. float_of_int !total > 0.6)

let test_search_finds_improvement () =
  let op = Ops.mtv 512 1024 in
  let o = Se.run ~seed:7 cfg op ~trials:48 in
  Alcotest.(check bool) "measured something" true (o.Se.measured > 10);
  match (o.Se.history, o.Se.best) with
  | first :: _, Some best ->
      Alcotest.(check bool) "improved over first trial" true
        (best.Ms.latency_s <= first.Se.latency_s)
  | _ -> Alcotest.fail "no history"

let test_search_deterministic_per_seed () =
  let op = Ops.mtv 128 256 in
  let a = Se.run ~seed:9 cfg op ~trials:24 in
  let b = Se.run ~seed:9 cfg op ~trials:24 in
  let latencies o = List.map (fun r -> r.Se.latency_s) o.Se.history in
  Alcotest.(check bool) "same trace" true (latencies a = latencies b)

let test_search_history_monotone_best () =
  let op = Ops.mtv 128 256 in
  (* best_so_far is island-local, so the global monotonicity check only
     holds for a single population. *)
  let o = Se.run ~seed:13 ~islands:1 cfg op ~trials:32 in
  let rec check prev = function
    | [] -> ()
    | r :: rest ->
        Alcotest.(check bool) "best never regresses" true
          (r.Se.best_so_far <= prev +. 1e-12);
        check r.Se.best_so_far rest
  in
  check infinity o.Se.history

let test_epsilon_schedule () =
  (* indirect: adaptive search explores more distinct rfactor states
     early on than the default. Direct check of the schedule itself. *)
  let strategies = [ Se.tvm_default; Se.imtp_default ] in
  List.iter
    (fun s ->
      let op = Ops.mtv 64 128 in
      let o = Se.run ~strategy:s ~seed:3 cfg op ~trials:16 in
      Alcotest.(check bool) "ran" true (o.Se.measured > 0))
    strategies

let test_tuner_end_to_end () =
  let op = Ops.va 100_000 in
  match Tu.tune ~seed:21 ~trials:32 cfg op with
  | Error m -> Alcotest.fail m
  | Ok r ->
      (* the tuned program computes the right answer *)
      let inputs = Ops.random_inputs op in
      let outs = Imtp_tir.Eval.run r.Tu.program ~inputs in
      let got = T.Tensor.to_value_list (List.assoc "C" outs) in
      let want = T.Tensor.to_value_list (Op.reference op inputs) in
      Alcotest.(check bool) "correct" true (got = want);
      Alcotest.(check bool) "describe non-empty" true
        (String.length (Tu.describe r) > 0)

let test_tuning_log_roundtrip () =
  let module Tl = Imtp_autotune.Tuning_log in
  let op = Ops.mtv 128 256 in
  let o = Se.run ~seed:41 cfg op ~trials:16 in
  let path = Filename.temp_file "imtp_log" ".txt" in
  Tl.save path ~op_name:"mtv" o;
  (match Tl.load path with
  | Error m -> Alcotest.fail m
  | Ok (hdr, entries) ->
      Alcotest.(check string) "op name" "mtv" hdr.Tl.op_name;
      Alcotest.(check bool) "duration recorded" true
        (match hdr.Tl.duration_s with Some d -> d >= 0. | None -> false);
      Alcotest.(check int) "entry count" (List.length o.Se.history)
        (List.length entries);
      (match (Tl.best entries, o.Se.best) with
      | Some e, Some b ->
          Alcotest.(check (float 1e-12)) "best latency preserved"
            b.Ms.latency_s e.Tl.latency_s;
          Alcotest.(check bool) "best params preserved" true
            (e.Tl.params = b.Ms.params)
      | _ -> Alcotest.fail "missing best"));
  Sys.remove path

(* The tuning-log line as it was rendered through [Printf] before lines
   were written into a [Buffer]: the oracle the buffer rendering must
   match byte for byte, history digests and log files included. *)
let printf_entry (e : Imtp_autotune.Tuning_log.entry) =
  let module Tl = Imtp_autotune.Tuning_log in
  let p = e.Tl.params in
  Printf.sprintf "trial=%d latency=%.9e %s measured=%d%s%s" e.Tl.trial
    e.Tl.latency_s
    (Printf.sprintf "sd=%d rd=%d t=%d c=%d rows=%d unroll=%d ht=%d"
       p.Sk.spatial_dpus p.Sk.reduction_dpus p.Sk.tasklets p.Sk.cache_elems
       p.Sk.rows_per_tasklet
       (if p.Sk.unroll_inner then 1 else 0)
       p.Sk.host_threads)
    (if e.Tl.measured then 1 else 0)
    (match e.Tl.predicted_s with
    | Some p -> Printf.sprintf " predicted_cost=%.9e" p
    | None -> "")
    (if e.Tl.island > 0 then Printf.sprintf " island=%d" e.Tl.island else "")

let prop_entry_to_string_matches_printf =
  let module Tl = Imtp_autotune.Tuning_log in
  let open QCheck2.Gen in
  let edge_int =
    oneof
      [
        oneofl [ min_int; min_int + 1; max_int; max_int - 1; 0; -1; 1; -9; -10; 10 ];
        int;
        int_range (-100_000) 100_000;
      ]
  in
  let edge_float =
    oneof
      [
        oneofl
          [
            nan; Float.neg nan; infinity; neg_infinity; 0.; -0.; 4.9e-324;
            -4.9e-324; 2.225073858507201e-308; Float.min_float;
            Float.max_float; 1e-9; 9.9999999995e-1;
          ];
        float;
        map Int64.float_of_bits ui64;
      ]
  in
  let gen =
    let* trial = edge_int and* island = oneof [ pure 0; edge_int ] in
    let* spatial_dpus = edge_int and* reduction_dpus = edge_int
    and* tasklets = edge_int and* cache_elems = edge_int in
    let* rows_per_tasklet = edge_int and* unroll_inner = bool
    and* host_threads = edge_int in
    let* latency_s = edge_float and* measured = bool
    and* predicted_s = opt edge_float in
    pure
      {
        Tl.trial;
        island;
        params =
          {
            Sk.spatial_dpus;
            reduction_dpus;
            tasklets;
            cache_elems;
            rows_per_tasklet;
            unroll_inner;
            host_threads;
          };
        latency_s;
        measured;
        predicted_s;
      }
  in
  QCheck2.Test.make ~name:"entry_to_string = Printf rendering" ~count:2000
    ~print:printf_entry gen (fun e ->
      String.equal (Tl.entry_to_string e) (printf_entry e))

let test_tuning_log_params_roundtrip () =
  let module Tl = Imtp_autotune.Tuning_log in
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 50 do
    let p = Sk.random rng cfg (Ops.mtv 64 64) in
    match Tl.params_of_string (Tl.params_to_string p) with
    | Ok p' -> Alcotest.(check bool) "roundtrip" true (p = p')
    | Error m -> Alcotest.fail m
  done;
  match Tl.params_of_string "sd=1 rd=2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "partial params accepted"

(* --- measurement gating ----------------------------------------------- *)

(* The committed pre-gating search trace: two fixed-seed ungated runs,
   dumped before the measurement gate existed.  [measure_ratio = None]
   must reproduce it bit-for-bit — latencies to all 17 digits — so the
   search loop the gate shares leaves ungated trajectories untouched. *)
let dump_outcome buf name ~seed ~trials (o : Se.outcome) =
  Buffer.add_string buf
    (Printf.sprintf "%s seed=%d trials=%d measured=%d invalid=%d\n" name seed
       trials o.Se.measured o.Se.invalid_candidates);
  List.iter
    (fun (r : Se.record) ->
      Buffer.add_string buf
        (Printf.sprintf "  trial=%d latency=%.17g params=%s\n" r.Se.trial
           r.Se.latency_s
           (Imtp_autotune.Tuning_log.params_to_string r.Se.params)))
    o.Se.history

let read_golden file =
  (* cwd is test/ under `dune runtest`, the project root under
     `dune exec test/...`. *)
  let path =
    if Sys.file_exists file then file else Filename.concat "test" file
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let golden_trace () = read_golden "golden_search_trace.txt"

let check_against_golden ~got ~want =
  if got <> want then begin
    let gl = String.split_on_char '\n' got
    and wl = String.split_on_char '\n' want in
    let rec first_diff i = function
      | g :: gs, w :: ws ->
          if g = w then first_diff (i + 1) (gs, ws)
          else Alcotest.failf "line %d differs:\n  got:  %s\n  want: %s" i g w
      | _ -> Alcotest.failf "trace length differs (%d vs %d lines)"
               (List.length gl) (List.length wl)
    in
    first_diff 1 (gl, wl)
  end

(* The history digest of fixed-seed gated tunes on one and two
   islands, recorded before the proposal tables, the residuals scored
   against the gate's predictions and the buffer rendering of log
   lines: none of them may move a trajectory or a digest byte.  The
   two-island digest was re-recorded once, when the confirmation pass
   stopped re-simulating migrants the sibling island had measured. *)
let test_gated_history_digest_pinned () =
  let op = Ops.mtv 128 256 in
  List.iter
    (fun (islands, want) ->
      let o =
        Se.run ~seed:11 ~jobs:1 ~islands ~measure_ratio:0.2 cfg op ~trials:96
      in
      Alcotest.(check string)
        (Printf.sprintf "islands=%d digest" islands)
        want
        (Imtp_serve.Protocol.history_digest o))
    [
      (1, "47d30e43b723e00d013bcc16e4439893");
      (2, "3096f6ff0afabb298ca30d69b664790e");
    ]

let test_ungated_trace_matches_golden () =
  let buf = Buffer.create 4096 in
  let dump name op ~seed ~trials =
    (* ~islands:1 is the historical single-population path; the trace
       predates the island model and must survive it untouched. *)
    dump_outcome buf name ~seed ~trials (Se.run ~seed ~islands:1 cfg op ~trials)
  in
  dump "gemv" (Ops.gemv ~c:3 512 512) ~seed:77 ~trials:48;
  dump "mmtv" (Ops.mmtv 8 64 64) ~seed:77 ~trials:48;
  check_against_golden ~got:(Buffer.contents buf) ~want:(golden_trace ())

(* The committed gated search trace: the same two workloads under a
   0.2 measurement gate, on one and on two islands.  Every record keeps
   its island, whether it was simulated, its latency and the model's
   prediction to all 17 digits, so any change to which candidates the
   gate forwards, or to the noise each one draws, shows up here. *)
let dump_gated_outcome buf name ~seed ~trials ~ratio ~islands (o : Se.outcome)
    =
  Buffer.add_string buf
    (Printf.sprintf
       "%s seed=%d trials=%d ratio=%g islands=%d measured=%d skipped=%d \
        invalid=%d measured_trials=%d\n"
       name seed trials ratio islands o.Se.measured o.Se.skipped
       o.Se.invalid_candidates o.Se.measured_trials);
  List.iter
    (fun (r : Se.record) ->
      Buffer.add_string buf
        (Printf.sprintf
           "  trial=%d island=%d measured=%b latency=%.17g predicted=%s \
            params=%s\n"
           r.Se.trial r.Se.island r.Se.measured r.Se.latency_s
           (match r.Se.predicted_s with
           | Some p -> Printf.sprintf "%.17g" p
           | None -> "none")
           (Imtp_autotune.Tuning_log.params_to_string r.Se.params)))
    o.Se.history

let gated_trace () =
  let buf = Buffer.create 16384 in
  List.iter
    (fun islands ->
      let dump name op =
        let seed = 77 and trials = 48 and ratio = 0.2 in
        dump_gated_outcome buf name ~seed ~trials ~ratio ~islands
          (Se.run ~seed ~islands ~measure_ratio:ratio cfg op ~trials)
      in
      dump "gemv" (Ops.gemv ~c:3 512 512);
      dump "mmtv" (Ops.mmtv 8 64 64))
    [ 1; 2 ];
  Buffer.contents buf

let test_gated_trace_matches_golden () =
  check_against_golden ~got:(gated_trace ())
    ~want:(read_golden "golden_gated_trace.txt")

let noise_free op params =
  let engine = Imtp_engine.Engine.create cfg in
  match Imtp_engine.Engine.measure engine op params with
  | Ok m -> m.Imtp_engine.Engine.latency_s
  | Error e -> Alcotest.fail (Imtp_engine.Engine.error_to_string e)

(* The statistical acceptance harness: on both paper workloads, at a
   fixed seed, the gated search must find a schedule at least as good
   as the full-measurement baseline (compared noise-free, so the
   baseline's 5x-larger pool of noisy draws cannot hide a worse
   schedule behind a lucky sample) while paying for at least 5x fewer
   simulator executions. *)
let check_gate_acceptance name op =
  let seed = 13 and trials = 200 and ratio = 0.05 in
  let full = Se.run ~seed ~islands:1 cfg op ~trials in
  let gated = Se.run ~seed ~islands:1 ~measure_ratio:ratio cfg op ~trials in
  let best o =
    match o.Se.best with
    | Some b -> noise_free op b.Ms.params
    | None -> Alcotest.failf "%s: no best" name
  in
  let bf = best full and bg = best gated in
  Alcotest.(check bool)
    (Printf.sprintf "%s: gated best %.6e <= full best %.6e" name bg bf)
    true (bg <= bf);
  Alcotest.(check bool)
    (Printf.sprintf "%s: >=5x fewer simulator executions (%d vs %d)" name
       full.Se.measured_trials gated.Se.measured_trials)
    true
    (full.Se.measured_trials >= 5 * gated.Se.measured_trials);
  Alcotest.(check bool) "gate actually skipped candidates" true
    (gated.Se.skipped > 0);
  Alcotest.(check bool) "ungated run skipped none" true (full.Se.skipped = 0)

let test_gate_acceptance_gemv () =
  check_gate_acceptance "gemv 512x512" (Ops.gemv ~c:3 512 512)

let test_gate_acceptance_mmtv () =
  check_gate_acceptance "mmtv 8x64x64" (Ops.mmtv 8 64 64)

let history_key (o : Se.outcome) =
  List.map
    (fun (r : Se.record) ->
      ( r.Se.trial,
        r.Se.island,
        r.Se.params,
        r.Se.latency_s,
        r.Se.measured,
        r.Se.predicted_s ))
    o.Se.history

let test_gated_jobs_equivalence () =
  let op = Ops.mtv 128 256 in
  (* islands left at its default, which must not follow [jobs]: a
     different island count would be a different search. *)
  let run jobs = Se.run ~seed:9 ~jobs ~measure_ratio:0.2 cfg op ~trials:48 in
  let a = run 1 and b = run 4 in
  Alcotest.(check bool) "history identical at any job count" true
    (history_key a = history_key b);
  Alcotest.(check int) "same simulator ledger" a.Se.measured_trials
    b.Se.measured_trials;
  Alcotest.(check int) "same skips" a.Se.skipped b.Se.skipped

(* Replaying a gated log re-ranks identically: within every generation
   block, each measured entry's recorded prediction is no worse than
   every prediction the gate skipped on — the ranking that picked the
   simulator set is recoverable from the log alone. *)
let test_gated_log_reranks_identically () =
  let module Tl = Imtp_autotune.Tuning_log in
  let trials = 96 in
  let o =
    Se.run ~seed:5 ~islands:1 ~measure_ratio:0.2 cfg (Ops.mmtv 8 64 64) ~trials
  in
  let path = Filename.temp_file "imtp_gated_log" ".txt" in
  Tl.save path ~op_name:"mmtv" o;
  (match Tl.load path with
  | Error m -> Alcotest.fail m
  | Ok (_, entries) ->
      let block e = e.Tl.trial / 16 in
      let blocks =
        List.sort_uniq compare
          (List.filter_map
             (fun e ->
               if e.Tl.trial >= 16 && e.Tl.trial < trials then Some (block e)
               else None)
             entries)
      in
      let checked = ref 0 in
      List.iter
        (fun b ->
          let in_block =
            List.filter
              (fun e ->
                block e = b && e.Tl.trial >= 16 && e.Tl.trial < trials)
              entries
          in
          let measured_preds =
            List.filter_map
              (fun e -> if e.Tl.measured then e.Tl.predicted_s else None)
              in_block
          and skipped_preds =
            List.filter_map
              (fun e -> if e.Tl.measured then None else e.Tl.predicted_s)
              in_block
          in
          match (measured_preds, skipped_preds) with
          | _ :: _, _ :: _ ->
              incr checked;
              let worst_measured =
                List.fold_left Float.max neg_infinity measured_preds
              and best_skipped =
                List.fold_left Float.min infinity skipped_preds
              in
              Alcotest.(check bool)
                (Printf.sprintf
                   "block %d: measured set is the ranking's top (%.3e <= %.3e)"
                   b worst_measured best_skipped)
                true
                (worst_measured <= best_skipped)
          | _ -> ())
        blocks;
      Alcotest.(check bool) "some blocks had both kinds" true (!checked > 0));
  Sys.remove path

let test_gated_tuning_log_roundtrip () =
  let module Tl = Imtp_autotune.Tuning_log in
  let o = Se.run ~seed:41 ~measure_ratio:0.2 cfg (Ops.mtv 128 256) ~trials:48 in
  let path = Filename.temp_file "imtp_gated_log" ".txt" in
  Tl.save path ~op_name:"mtv" o;
  (match Tl.load path with
  | Error m -> Alcotest.fail m
  | Ok (_, entries) ->
      Alcotest.(check int) "entry count" (List.length o.Se.history)
        (List.length entries);
      List.iter2
        (fun (r : Se.record) e ->
          Alcotest.(check bool) "measured flag survives" r.Se.measured
            e.Tl.measured;
          Alcotest.(check bool) "prediction survives" true
            (Option.is_some r.Se.predicted_s = Option.is_some e.Tl.predicted_s))
        o.Se.history entries;
      Alcotest.(check bool) "log contains skipped entries" true
        (List.exists (fun e -> not e.Tl.measured) entries);
      (match (Tl.best entries, o.Se.best) with
      | Some e, Some b ->
          Alcotest.(check bool) "best is a measured entry" true e.Tl.measured;
          Alcotest.(check (float 1e-12)) "best latency preserved"
            b.Ms.latency_s e.Tl.latency_s
      | _ -> Alcotest.fail "missing best"));
  Sys.remove path

let test_pregating_log_lines_still_parse () =
  let module Tl = Imtp_autotune.Tuning_log in
  match
    Tl.entry_of_string
      "trial=3 latency=1.500000000e-03 sd=64 rd=8 t=16 c=32 rows=1 unroll=0 ht=4"
  with
  | Error m -> Alcotest.fail m
  | Ok e ->
      Alcotest.(check bool) "defaults to measured" true e.Tl.measured;
      Alcotest.(check bool) "no prediction" true (e.Tl.predicted_s = None)

(* A run's ledger counts its own work: two different ops tuned at the
   same time on one shared engine, each from its own domain, report the
   simulator runs and cache hits they report alone on a fresh engine,
   and the shared engine's counters are the two ledgers' sum. *)
let test_search_ledger_per_run () =
  let runs = [ (Ops.mtv 128 256, None); (Ops.mmtv 8 64 64, Some 0.25) ] in
  let tune ?engine (op, measure_ratio) =
    Se.run ~seed:31 ~jobs:1 ?measure_ratio ?engine cfg op ~trials:160
  in
  let alone = List.map (fun r -> tune r) runs in
  let engine = Imtp_engine.Engine.create cfg in
  let together =
    List.map (fun r -> Domain.spawn (fun () -> tune ~engine r)) runs
    |> List.map Domain.join
  in
  List.iter2
    (fun (a : Se.outcome) (b : Se.outcome) ->
      Alcotest.(check int) "measured_trials as alone" a.Se.measured_trials
        b.Se.measured_trials;
      Alcotest.(check int) "cache_hits as alone" a.Se.cache_hits b.Se.cache_hits)
    alone together;
  let c = Imtp_engine.Engine.counters engine in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 together in
  Alcotest.(check int) "engine costed = sum of the runs'"
    c.Imtp_engine.Engine.costed
    (sum (fun o -> o.Se.measured_trials));
  Alcotest.(check int) "engine hits = sum of the runs'" c.Imtp_engine.Engine.hits
    (sum (fun o -> o.Se.cache_hits))

(* --- Checkpoint / resume --------------------------------------------- *)

module Ck = Imtp_autotune.Checkpoint

(* Everything the bit-identity contract covers.  [measured_trials] and
   [cache_hits] are deliberately excluded: a resumed run on a cold
   engine re-pays builds the killed run had cached, so its simulator
   and cache ledgers legitimately differ from an uninterrupted run's. *)
let outcome_key (o : Se.outcome) =
  ( List.map
      (fun (r : Se.record) ->
        (r.Se.trial, r.Se.params, r.Se.latency_s, r.Se.best_so_far,
         r.Se.measured, r.Se.predicted_s))
      o.Se.history,
    (match o.Se.best with
    | None -> None
    | Some b -> Some (b.Ms.params, b.Ms.latency_s)),
    o.Se.invalid_candidates,
    o.Se.measured,
    o.Se.skipped )

(* Run uninterrupted; then run again stopped after [k] boundaries and
   resume from the emitted checkpoint; the stitched run must be
   bit-identical.  The init snapshot is checkpoint #1 and boundary b
   emits #(1+b); [stop] is polled after each boundary's checkpoint, so
   stopping once [!n_ck > k] interrupts right at boundary [k], whose
   snapshot is the last one emitted. *)
let check_kill_resume ?measure_ratio ?(islands = 1) ~k op ~trials =
  let seed = 23 in
  let full = Se.run ~seed ?measure_ratio ~islands cfg op ~trials in
  let n_ck = ref 0 and last = ref None in
  let killed =
    Se.run ~seed ?measure_ratio ~islands cfg op ~trials
      ~on_checkpoint:(fun ck ->
        incr n_ck;
        last := Some ck)
      ~stop:(fun () -> !n_ck > k)
  in
  Alcotest.(check bool) "killed run reports interrupted" true
    killed.Se.interrupted;
  Alcotest.(check bool) "full run not interrupted" false full.Se.interrupted;
  Alcotest.(check int) "one checkpoint per boundary through the stop" (k + 1)
    !n_ck;
  let ck = match !last with Some ck -> ck | None -> Alcotest.fail "no checkpoint" in
  Alcotest.(check int) "last checkpoint is the stopping boundary" k
    (Se.checkpoint_boundary ck);
  Alcotest.(check bool) "checkpoint mid-run" true
    (Se.checkpoint_trial ck > 0 && Se.checkpoint_trial ck < trials);
  Alcotest.(check int) "checkpoint keeps the budget" trials
    (Se.checkpoint_trials ck);
  Alcotest.(check int) "checkpoint keeps the seed" seed (Se.checkpoint_seed ck);
  Alcotest.(check bool) "checkpoint keeps the gate" true
    (Se.checkpoint_measure_ratio ck = measure_ratio);
  Alcotest.(check int) "checkpoint keeps the island count" islands
    (Se.checkpoint_islands ck);
  let resumed = Se.run ~resume:ck cfg op ~trials in
  Alcotest.(check bool) "resumed run completed" false resumed.Se.interrupted;
  Alcotest.(check bool) "resumed_from records the snapshot" true
    (resumed.Se.resumed_from = Some (Se.checkpoint_trial ck));
  Alcotest.(check bool) "full run never resumed" true
    (full.Se.resumed_from = None);
  if outcome_key resumed <> outcome_key full then
    Alcotest.fail "resumed outcome differs from uninterrupted run"

let test_kill_resume_ungated () =
  check_kill_resume ~k:1 (Ops.mtv 128 256) ~trials:48

let test_kill_resume_gated () =
  check_kill_resume ~measure_ratio:0.2 ~k:2 (Ops.mmtv 8 64 64) ~trials:64

let test_kill_resume_islands () =
  (* kill a 2-island run right after a migration boundary's checkpoint
     and resume it: the stitched run must be bit-identical to the
     uninterrupted one, migrations included.  64 trials an island are
     three generations past the initial population: boundaries 1 and 2
     both migrate. *)
  check_kill_resume ~islands:2 ~k:1 (Ops.mtv 128 256) ~trials:128

let test_kill_resume_islands_gated () =
  (* 112 trials an island: six generations, three migration boundaries,
     killed at the second. *)
  check_kill_resume ~islands:2 ~measure_ratio:0.2 ~k:2 (Ops.mmtv 8 64 64)
    ~trials:224

(* The committed acceptance criterion: a killed-then-resumed run on the
   golden workloads reproduces the golden trace byte-for-byte — same
   tuning-log lines, same counts — as if the kill never happened. *)
let test_resumed_trace_matches_golden () =
  let buf = Buffer.create 4096 in
  let dump name op ~seed ~trials =
    let n_ck = ref 0 and last = ref None in
    let killed =
      Se.run ~seed cfg op ~trials
        ~on_checkpoint:(fun ck ->
          incr n_ck;
          last := Some ck)
        ~stop:(fun () -> !n_ck > 1)
    in
    Alcotest.(check bool) (name ^ ": interrupted") true killed.Se.interrupted;
    let ck = match !last with Some ck -> ck | None -> Alcotest.fail "no ckpt" in
    dump_outcome buf name ~seed ~trials (Se.run ~resume:ck cfg op ~trials)
  in
  dump "gemv" (Ops.gemv ~c:3 512 512) ~seed:77 ~trials:48;
  dump "mmtv" (Ops.mmtv 8 64 64) ~seed:77 ~trials:48;
  Alcotest.(check bool) "resumed trace is byte-identical to the golden file"
    true
    (Buffer.contents buf = golden_trace ())

let with_tmp_dir f =
  let dir = Filename.temp_file "imtp_ckpt" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* The slot layout Checkpoint documents: a header line
   [imtp-checkpoint-v3 <capacity>], then two slots of [32 + capacity]
   bytes, each seq (int64 LE), len (int64 LE), md5, payload. *)
let slot_layout s =
  let nl = String.index s '\n' in
  let capacity =
    int_of_string (List.nth (String.split_on_char ' ' (String.sub s 0 nl)) 1)
  in
  (capacity, fun i -> nl + 1 + (i * (32 + capacity)))

let newest_slot s =
  let _, off = slot_layout s in
  let seq i =
    if off i + 32 > String.length s then -1
    else Int64.to_int (String.get_int64_le s (off i))
  in
  if seq 1 > seq 0 then 1 else 0

let flip_payload_byte s slot =
  let _, off = slot_layout s in
  let b = Bytes.of_string s in
  let p = off slot + 32 + 10 in
  Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor 0xff));
  Bytes.to_string b

let test_checkpoint_slots () =
  with_tmp_dir (fun dir ->
      let op = Ops.mtv 128 256 and trials = 96 in
      let path = Filename.concat dir "slots.ckpt" in
      let load_ok () =
        match Ck.load path with Ok ck -> ck | Error m -> Alcotest.fail m
      in
      let boundary_loaded () = Se.checkpoint_boundary (load_ok ()) in
      (* several saves: the file holds the last one, and it resumes
         bit-identically *)
      let cks = ref [] in
      let _killed =
        Se.run ~seed:23 cfg op ~trials
          ~on_checkpoint:(fun ck ->
            cks := ck :: !cks;
            Ck.save path ck)
          ~stop:(fun () -> List.length !cks > 4)
      in
      let last = List.hd !cks and prev = List.nth !cks 1 in
      Alcotest.(check int) "load returns the last of five saves" 4
        (boundary_loaded ());
      let full = Se.run ~seed:23 cfg op ~trials in
      Alcotest.(check bool) "resumes bit-identically" true
        (outcome_key (Se.run ~resume:(load_ok ()) cfg op ~trials)
        = outcome_key full);
      (* newest slot torn: load falls back to the previous boundary *)
      let whole = read_file path in
      let capacity, off = slot_layout whole in
      let n = newest_slot whole in
      let torn = flip_payload_byte whole n in
      write_file path torn;
      Alcotest.(check int) "torn newest slot: previous boundary" 3
        (boundary_loaded ());
      (* ... and the next save overwrites the torn slot, never the
         valid one *)
      let valid_slot s =
        let o = off (1 - n) in
        String.sub s o (min (32 + capacity) (String.length s - o))
      in
      Ck.save path last;
      let after = read_file path in
      Alcotest.(check bool) "valid slot untouched" true
        (valid_slot after = valid_slot torn);
      Alcotest.(check int) "torn slot rewritten" n (newest_slot after);
      Alcotest.(check int) "load returns the new save" 4 (boundary_loaded ());
      (* newest slot cut short: the older slot still loads *)
      Ck.save path prev;
      let s = read_file path in
      let m = newest_slot s in
      Alcotest.(check int) "fresh save lands in the other slot" (1 - n) m;
      Alcotest.(check int) "load returns the newest save" 3
        (boundary_loaded ());
      if m = 1 then write_file path (String.sub s 0 (off 1 + 32 + 10))
      else write_file path (flip_payload_byte s 0);
      Alcotest.(check int) "cut newest slot: previous save" 4
        (boundary_loaded ());
      (* a payload past the capacity rewrites the file *)
      let big = ref None in
      let _ =
        Se.run ~seed:23 cfg op ~trials:(8 * trials)
          ~on_checkpoint:(fun ck -> big := Some ck)
      in
      let big = Option.get !big in
      Alcotest.(check bool) "payload outgrows the capacity" true
        (String.length (Marshal.to_string big []) > capacity);
      Ck.save path big;
      let grown, _ = slot_layout (read_file path) in
      Alcotest.(check bool) "file rewritten with a larger capacity" true
        (grown > capacity);
      Alcotest.(check int) "loads the new checkpoint"
        (Se.checkpoint_trial big)
        (Se.checkpoint_trial (load_ok ())))

(* One writer across a session: each save lands in the slot that does
   not hold the writer's previous one and loads back as the newest; a
   grown payload rewrites the file, and the writer keeps saving in
   place into the renamed file.  A closed writer validates again: its
   next save overwrites a slot torn meanwhile, never the valid one. *)
let test_checkpoint_writer () =
  with_tmp_dir (fun dir ->
      let op = Ops.mtv 128 256 and trials = 96 in
      let path = Filename.concat dir "writer.ckpt" in
      let load_ok () =
        match Ck.load path with Ok ck -> ck | Error m -> Alcotest.fail m
      in
      let w = Ck.writer path in
      Fun.protect ~finally:(fun () -> Ck.close w) @@ fun () ->
      let cks = ref [] and newest = ref [] in
      let _killed =
        Se.run ~seed:23 cfg op ~trials
          ~on_checkpoint:(fun ck ->
            Ck.write w ck;
            cks := ck :: !cks;
            newest := newest_slot (read_file path) :: !newest;
            Alcotest.(check int) "load returns the save just made"
              (Se.checkpoint_boundary ck)
              (Se.checkpoint_boundary (load_ok ())))
          ~stop:(fun () -> List.length !cks > 4)
      in
      Alcotest.(check (list int)) "saves alternate slots" [ 0; 1; 0; 1; 0 ]
        (List.rev !newest);
      let last = List.hd !cks and prev = List.nth !cks 1 in
      let capacity, _ = slot_layout (read_file path) in
      let big = ref None in
      let _ =
        Se.run ~seed:23 cfg op ~trials:(8 * trials)
          ~on_checkpoint:(fun ck -> big := Some ck)
      in
      Ck.write w (Option.get !big);
      let grown, _ = slot_layout (read_file path) in
      Alcotest.(check bool) "grown payload rewrites the file" true
        (grown > capacity);
      Ck.write w last;
      Alcotest.(check int) "saves in place after the rename" grown
        (fst (slot_layout (read_file path)));
      Alcotest.(check int) "the renamed file holds the save" 4
        (Se.checkpoint_boundary (load_ok ()));
      Ck.close w;
      let whole = read_file path in
      let _, off = slot_layout whole in
      let n = newest_slot whole in
      let torn = flip_payload_byte whole n in
      write_file path torn;
      let valid_slot s =
        let o = off (1 - n) in
        String.sub s o (min (32 + grown) (String.length s - o))
      in
      Ck.write w prev;
      let after = read_file path in
      Alcotest.(check bool) "valid slot untouched" true
        (valid_slot after = valid_slot torn);
      Alcotest.(check int) "torn slot rewritten" n (newest_slot after);
      Alcotest.(check int) "load returns the new save" 3
        (Se.checkpoint_boundary (load_ok ())))

(* A raising checkpoint callback surfaces as its own exception, on one
   island and on two, instead of a lock error from the boundary. *)
let test_checkpoint_failure_propagates () =
  List.iter
    (fun islands ->
      let n = ref 0 in
      let t0 = Unix.gettimeofday () in
      (match
         Se.run ~seed:23 ~islands cfg (Ops.mtv 128 256)
           ~trials:128
           ~on_checkpoint:(fun _ ->
             incr n;
             if !n = 2 then raise (Sys_error "disk full"))
       with
      | _ -> Alcotest.fail "run ignored a failing checkpoint"
      | exception Sys_error m ->
          Alcotest.(check string)
            (Printf.sprintf "islands:%d re-raises the callback's error" islands)
            "disk full" m);
      Alcotest.(check bool) "returns promptly" true
        (Unix.gettimeofday () -. t0 < 30.))
    [ 1; 2 ]

let test_checkpoint_disk_roundtrip () =
  with_tmp_dir (fun dir ->
      let op = Ops.mtv 128 256 and trials = 48 in
      let path = Filename.concat dir "mtv.ckpt" in
      let n_ck = ref 0 and last = ref None in
      let _killed =
        Se.run ~seed:23 cfg op ~trials
          ~on_checkpoint:(fun ck ->
            incr n_ck;
            last := Some ck;
            Ck.save path ck)
          ~stop:(fun () -> !n_ck > 1)
      in
      let mem = match !last with Some ck -> ck | None -> Alcotest.fail "no ckpt" in
      let loaded =
        match Ck.load path with
        | Ok ck -> ck
        | Error m -> Alcotest.fail m
      in
      Alcotest.(check int) "loaded snapshot at the same trial"
        (Se.checkpoint_trial mem) (Se.checkpoint_trial loaded);
      let from_mem = Se.run ~resume:mem cfg op ~trials in
      let from_disk = Se.run ~resume:loaded cfg op ~trials in
      Alcotest.(check bool) "disk roundtrip resumes identically" true
        (outcome_key from_mem = outcome_key from_disk);
      (* a checkpoint is reusable: resuming twice gives the same run *)
      let again = Se.run ~resume:loaded cfg op ~trials in
      Alcotest.(check bool) "resuming the same snapshot twice is stable" true
        (outcome_key from_disk = outcome_key again);
      (* error paths: missing file, wrong magic, truncated payload *)
      (match Ck.load (Filename.concat dir "absent.ckpt") with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "loaded a missing file");
      let bad = Filename.concat dir "bad.ckpt" in
      let oc = open_out_bin bad in
      output_string oc "not a checkpoint\n";
      close_out oc;
      (match Ck.load bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "loaded a wrong-magic file");
      (* the earlier rename-only container is refused, naming the magic
         this build expects *)
      let v2 = Filename.concat dir "v2.ckpt" in
      write_file v2 ("imtp-checkpoint-v2\n" ^ Marshal.to_string mem []);
      (match Ck.load v2 with
      | Error m ->
          Alcotest.(check bool) "v2 refusal names the v3 magic" true
            (contains ~sub:"imtp-checkpoint-v3" m)
      | Ok _ -> Alcotest.fail "loaded a v2 checkpoint");
      let huge = Filename.concat dir "huge.ckpt" in
      write_file huge (Printf.sprintf "imtp-checkpoint-v3 %d\n%s" max_int
        (String.make 64 'x'));
      (match Ck.load huge with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "loaded a file with an absurd capacity");
      let trunc = Filename.concat dir "trunc.ckpt" in
      write_file trunc (String.sub (read_file path) 0 40);
      match Ck.load trunc with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "loaded a truncated file")

let test_resume_wrong_op_rejected () =
  let n_ck = ref 0 and last = ref None in
  let _ =
    Se.run ~seed:23 cfg (Ops.mtv 128 256) ~trials:48
      ~on_checkpoint:(fun ck ->
        incr n_ck;
        last := Some ck)
      ~stop:(fun () -> !n_ck > 1)
  in
  let ck = match !last with Some ck -> ck | None -> Alcotest.fail "no ckpt" in
  match Se.run ~resume:ck cfg (Ops.mmtv 8 64 64) ~trials:48 with
  | _ -> Alcotest.fail "resume accepted a different operator"
  | exception Invalid_argument _ -> ()

(* --- Island model ----------------------------------------------------- *)

let test_islands_jobs_equivalence () =
  let op = Ops.mtv 128 256 in
  let run ~jobs ?measure_ratio () =
    Se.run ~seed:9 ~jobs ~islands:4 ?measure_ratio cfg op ~trials:96
  in
  let a = run ~jobs:1 () and b = run ~jobs:4 () in
  Alcotest.(check int) "4 islands in effect" 4 a.Se.islands;
  Alcotest.(check bool) "ungated: islands:4 jobs:4 = islands:4 jobs:1" true
    (history_key a = history_key b);
  let c = run ~jobs:1 ~measure_ratio:0.25 ()
  and d = run ~jobs:4 ~measure_ratio:0.25 () in
  Alcotest.(check bool) "gated: islands:4 jobs:4 = islands:4 jobs:1" true
    (history_key c = history_key d);
  Alcotest.(check int) "gated: same simulator ledger" c.Se.measured_trials
    d.Se.measured_trials

let prop_islands_jobs_equivalence =
  QCheck2.Test.make
    ~name:"islands:2 search is identical at jobs:1 and jobs:3 for any seed"
    ~count:4
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let op = Ops.mtv 128 256 in
      let run jobs =
        Se.run ~seed ~jobs ~islands:2 ~measure_ratio:0.25 cfg op ~trials:64
      in
      history_key (run 1) = history_key (run 3))

let test_migration_determinism () =
  (* migration happens at fixed generation boundaries, so two runs of
     the same seed produce identical histories, migration traffic
     included — and the ring actually moves elites.  64 trials an
     island cross two migration boundaries. *)
  let op = Ops.mtv 128 256 in
  let run () = Se.run ~seed:17 ~islands:3 cfg op ~trials:192 in
  let a = run () and b = run () in
  Alcotest.(check bool) "two same-seed island runs identical" true
    (history_key a = history_key b);
  Alcotest.(check int) "three islands reported" 3 (List.length a.Se.per_island);
  let migrations =
    List.fold_left (fun n s -> n + s.Se.island_migrations) 0 a.Se.per_island
  in
  Alcotest.(check bool) "ring migration moved elites" true (migrations > 0);
  Alcotest.(check bool) "same migration traffic" true
    (List.map (fun s -> s.Se.island_migrations) a.Se.per_island
    = List.map (fun s -> s.Se.island_migrations) b.Se.per_island)

let test_island_outcome_shape () =
  let op = Ops.mtv 128 256 in
  let o = Se.run ~seed:29 ~islands:3 cfg op ~trials:96 in
  Alcotest.(check int) "per-island entries" 3 (List.length o.Se.per_island);
  let sum f = List.fold_left (fun n s -> n + f s) 0 o.Se.per_island in
  Alcotest.(check int) "measured sums across islands" o.Se.measured
    (sum (fun s -> s.Se.island_measured));
  Alcotest.(check int) "invalid sums across islands" o.Se.invalid_candidates
    (sum (fun s -> s.Se.island_invalid));
  (* history: chronological within each island, islands in index order *)
  let rec well_ordered prev = function
    | [] -> true
    | (r : Se.record) :: rest ->
        (match prev with
        | Some (pi, pt) ->
            (r.Se.island = pi && r.Se.trial >= pt) || r.Se.island > pi
        | None -> true)
        && well_ordered (Some (r.Se.island, r.Se.trial)) rest
  in
  Alcotest.(check bool) "history grouped by island, chronological within" true
    (well_ordered None o.Se.history);
  let island_best =
    List.filter_map (fun s -> s.Se.island_best_s) o.Se.per_island
    |> List.fold_left Float.min infinity
  in
  match o.Se.best with
  | Some b ->
      Alcotest.(check (float 1e-15)) "best is the min across islands"
        island_best b.Ms.latency_s
  | None -> Alcotest.fail "no best"

(* A confirmation pass simulates predicted-only population members; a
   migrant the sibling island measured is not one.  Re-simulating it
   logged the sibling's measurement as the record's prediction. *)
let test_confirm_skips_measured_migrants () =
  List.iter
    (fun (name, op, seed) ->
      let o = Se.run ~seed ~jobs:1 ~islands:2 ~measure_ratio:0.2 cfg op ~trials:64 in
      List.iter
        (fun (r : Se.record) ->
          match r.Se.predicted_s with
          | Some p when r.Se.measured ->
              if
                List.exists
                  (fun (q : Se.record) ->
                    q.Se.island <> r.Se.island && q.Se.measured
                    && q.Se.params = r.Se.params && q.Se.latency_s = p)
                  o.Se.history
              then
                Alcotest.failf
                  "%s seed %d: island %d trial %d predicted the sibling's \
                   measurement"
                  name seed r.Se.island r.Se.trial
          | Some _ | None -> ())
        o.Se.history)
    [
      ("mtv", Ops.mtv 128 256, 1);
      ("gemv", Ops.gemv ~c:3 512 512, 2);
      ("mmtv", Ops.mmtv 8 64 64, 5);
    ]

(* The island count is the caller's, never the environment's. *)
let test_islands_ignore_environment () =
  let op = Ops.mtv 128 256 in
  let tune env =
    Unix.putenv "IMTP_ISLANDS" env;
    match Imtp_autotune.Tuner.tune ~seed:3 ~jobs:1 ~trials:64 cfg op with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  let saved = Option.value (Sys.getenv_opt "IMTP_ISLANDS") ~default:"" in
  let plain = tune "" and stray = tune "3" in
  Unix.putenv "IMTP_ISLANDS" saved;
  let search (r : Imtp_autotune.Tuner.result) = r.Imtp_autotune.Tuner.search in
  Alcotest.(check int) "one island" 1 (search stray).Se.islands;
  Alcotest.(check string) "same history digest"
    (Imtp_serve.Protocol.history_digest (search plain))
    (Imtp_serve.Protocol.history_digest (search stray));
  Alcotest.(check bool) "same winner" true
    (plain.Imtp_autotune.Tuner.params = stray.Imtp_autotune.Tuner.params)

let test_island_defaults () =
  let op = Ops.mtv 128 256 in
  (* explicit wins *)
  let o = Se.run ~seed:3 ~jobs:1 ~islands:2 cfg op ~trials:64 in
  Alcotest.(check int) "explicit islands" 2 o.Se.islands;
  (* defaults to one island, whatever the job count *)
  let o = Se.run ~seed:3 ~jobs:2 cfg op ~trials:64 in
  Alcotest.(check int) "defaults to one island" 1 o.Se.islands;
  (* tiny budgets shed islands so each can seed a population *)
  let o = Se.run ~seed:3 ~islands:8 cfg op ~trials:32 in
  Alcotest.(check int) "auto-shrunk to trials/16" 2 o.Se.islands;
  let o = Se.run ~seed:3 ~islands:8 cfg op ~trials:8 in
  Alcotest.(check int) "never below one island" 1 o.Se.islands

let test_rng_reproducible () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:1 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same stream" xs ys

let prop_verified_candidates_run =
  QCheck2.Test.make ~name:"verifier-accepted candidates execute without error"
    ~count:15
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 0 10000))
    (fun (n, seed) ->
      let op = Imtp_workload.Ops.va n in
      let rng = Rng.create ~seed in
      let p = Sk.random rng cfg op in
      match Ms.build cfg op p with
      | Error _ -> true
      | Ok prog -> (
          match Imtp_tir.Eval.run prog ~inputs:(Ops.random_inputs op) with
          | _ -> true
          | exception Imtp_tir.Eval.Error _ -> false))

let test_search_rejections () =
  (* A machine with almost no WRAM makes most sketches violate the
     footprint bound, so the tally has something to group. *)
  let tiny = { U.Config.default with U.Config.wram_bytes = 512 } in
  let o = Se.run ~seed:11 ~jobs:1 tiny (Ops.mtv 128 256) ~trials:32 in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 o.Se.rejections in
  Alcotest.(check int)
    "tally sums to invalid_candidates" o.Se.invalid_candidates total;
  Alcotest.(check bool)
    "rejections present" true
    (o.Se.invalid_candidates = 0 || o.Se.rejections <> [])

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "autotune"
    [
      ( "sketch",
        [
          Alcotest.test_case "families" `Quick test_family_detection;
          Alcotest.test_case "instantiate" `Quick test_sketch_instantiates_all_families;
          Alcotest.test_case "random params correct" `Quick
            test_sketch_correctness_random_params;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "tasklets" `Quick test_verifier_rejects_too_many_tasklets;
          Alcotest.test_case "wram" `Quick test_verifier_rejects_wram_overflow;
          Alcotest.test_case "grid" `Quick test_verifier_rejects_grid_overflow;
          Alcotest.test_case "wram accounting" `Quick test_wram_accounting;
        ] );
      ( "measure",
        [
          Alcotest.test_case "deterministic" `Quick
            test_measure_deterministic_without_rng;
          Alcotest.test_case "noise bounded" `Quick test_measure_noise_bounded;
        ] );
      ( "cost model",
        [ Alcotest.test_case "learns ranking" `Slow test_cost_model_learns_ranking ] );
      ( "search",
        [
          Alcotest.test_case "improves" `Quick test_search_finds_improvement;
          Alcotest.test_case "deterministic" `Quick test_search_deterministic_per_seed;
          Alcotest.test_case "monotone best" `Quick test_search_history_monotone_best;
          Alcotest.test_case "strategies run" `Quick test_epsilon_schedule;
          Alcotest.test_case "tuner end-to-end" `Quick test_tuner_end_to_end;
          Alcotest.test_case "rng" `Quick test_rng_reproducible;
          Alcotest.test_case "tuning log roundtrip" `Quick test_tuning_log_roundtrip;
          Alcotest.test_case "params roundtrip" `Quick
            test_tuning_log_params_roundtrip;
          Alcotest.test_case "rejection tally" `Quick test_search_rejections;
          Alcotest.test_case "ledger counts the run's own work" `Quick
            test_search_ledger_per_run;
        ] );
      ( "measurement gate",
        [
          Alcotest.test_case "ungated trace matches pre-gating golden" `Quick
            test_ungated_trace_matches_golden;
          Alcotest.test_case "gated trace matches golden" `Quick
            test_gated_trace_matches_golden;
          Alcotest.test_case "gated history digest pinned" `Quick
            test_gated_history_digest_pinned;
          Alcotest.test_case "gemv: same-or-better best, >=5x fewer sims"
            `Slow test_gate_acceptance_gemv;
          Alcotest.test_case "mmtv: same-or-better best, >=5x fewer sims"
            `Slow test_gate_acceptance_mmtv;
          Alcotest.test_case "gated jobs:4 = jobs:1" `Quick
            test_gated_jobs_equivalence;
          Alcotest.test_case "gated log re-ranks identically" `Quick
            test_gated_log_reranks_identically;
          Alcotest.test_case "gated log roundtrip" `Quick
            test_gated_tuning_log_roundtrip;
          Alcotest.test_case "pre-gating log lines parse" `Quick
            test_pregating_log_lines_still_parse;
        ] );
      ( "checkpoints",
        [
          Alcotest.test_case "kill+resume = uninterrupted (ungated)" `Quick
            test_kill_resume_ungated;
          Alcotest.test_case "kill+resume = uninterrupted (gated)" `Quick
            test_kill_resume_gated;
          Alcotest.test_case "kill+resume = uninterrupted (2 islands)" `Quick
            test_kill_resume_islands;
          Alcotest.test_case "kill+resume = uninterrupted (2 islands, gated)"
            `Quick test_kill_resume_islands_gated;
          Alcotest.test_case "resumed trace matches golden" `Quick
            test_resumed_trace_matches_golden;
          Alcotest.test_case "file slots: torn, cut and grown" `Quick
            test_checkpoint_slots;
          Alcotest.test_case "one writer per session" `Quick test_checkpoint_writer;
          Alcotest.test_case "failing checkpoint write re-raised" `Quick
            test_checkpoint_failure_propagates;
          Alcotest.test_case "disk roundtrip + corrupt files" `Quick
            test_checkpoint_disk_roundtrip;
          Alcotest.test_case "wrong operator rejected" `Quick
            test_resume_wrong_op_rejected;
        ] );
      ( "islands",
        [
          Alcotest.test_case "islands:4 identical at jobs:1 and jobs:4" `Quick
            test_islands_jobs_equivalence;
          Alcotest.test_case "migration boundaries deterministic" `Quick
            test_migration_determinism;
          Alcotest.test_case "outcome shape" `Quick test_island_outcome_shape;
          Alcotest.test_case "defaults and clamps" `Quick test_island_defaults;
          Alcotest.test_case "confirm skips measured migrants" `Quick
            test_confirm_skips_measured_migrants;
          Alcotest.test_case "environment sets no island count" `Quick
            test_islands_ignore_environment;
        ] );
      ( "properties",
        q
          [
            prop_verified_candidates_run;
            prop_islands_jobs_equivalence;
            prop_entry_to_string_matches_printf;
          ] );
    ]
