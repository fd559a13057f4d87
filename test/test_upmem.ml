(* Tests for the UPMEM machine model: configuration, timing formulas,
   the DPU pipeline/DMA schedule model (checked bit-for-bit against the
   original event loop), transfers and the host model. *)

module U = Imtp_upmem

let cfg = U.Config.default

let test_config_defaults () =
  Alcotest.(check int) "dpus" 2048 (U.Config.nr_dpus cfg);
  Alcotest.(check int) "tasklets" 24 cfg.U.Config.max_tasklets;
  Alcotest.(check int) "wram" 65536 cfg.U.Config.wram_bytes

let test_with_dpus () =
  let c = U.Config.with_dpus cfg 256 in
  Alcotest.(check int) "256 dpus" 256 (U.Config.nr_dpus c);
  let c = U.Config.with_dpus cfg 32 in
  Alcotest.(check int) "sub-rank" 32 (U.Config.nr_dpus c);
  let c = U.Config.with_dpus cfg 100_000 in
  Alcotest.(check int) "clamped" 2048 (U.Config.nr_dpus c)

let test_with_dpus_invalid () =
  Alcotest.check_raises "zero"
    (Invalid_argument "Config.with_dpus: non-positive DPU count") (fun () ->
      ignore (U.Config.with_dpus cfg 0))

let test_cycles_seconds_roundtrip () =
  let s = U.Config.seconds_of_cycles cfg 350e6 in
  Alcotest.(check (float 1e-9)) "1s" 1.0 s;
  Alcotest.(check (float 1e-3)) "roundtrip" 42.0
    (U.Config.cycles_of_seconds cfg (U.Config.seconds_of_cycles cfg 42.0))

let test_dma_cycles_monotone () =
  let c64 = U.Timing.dma_cycles cfg 64 and c512 = U.Timing.dma_cycles cfg 512 in
  Alcotest.(check bool) "monotone" true (c64 < c512);
  (* setup cost dominates tiny transfers *)
  let c8 = U.Timing.dma_cycles cfg 8 in
  Alcotest.(check bool) "setup floor" true (c8 >= cfg.U.Config.dma_setup_cycles)

let test_dma_legal () =
  Alcotest.(check bool) "8B ok" true (U.Timing.dma_legal cfg 8);
  Alcotest.(check bool) "2048 ok" true (U.Timing.dma_legal cfg 2048);
  Alcotest.(check bool) "4B too small" false (U.Timing.dma_legal cfg 4);
  Alcotest.(check bool) "unaligned" false (U.Timing.dma_legal cfg 12);
  Alcotest.(check bool) "too big" false (U.Timing.dma_legal cfg 4096)

let test_branch_slots_unsaturated_penalty () =
  let few = U.Timing.branch_slots cfg ~tasklets:2 in
  let many = U.Timing.branch_slots cfg ~tasklets:16 in
  Alcotest.(check bool) "penalty when unsaturated" true (few > many)

let test_int_mul_more_expensive () =
  let open U.Timing in
  let dt = Imtp_tensor.Dtype.I32 in
  Alcotest.(check bool) "mul > add" true (binop_slots dt Mul > binop_slots dt Add);
  let f = Imtp_tensor.Dtype.F32 in
  Alcotest.(check bool) "float > int" true (binop_slots f Add > binop_slots dt Add)

let profile ?(tasklets = 16) ?(chunks = 64) ?(dma = [ (256, 1.) ])
    ?(compute = 200.) () =
  {
    U.Dpu_model.tasklets;
    chunks;
    dma_bytes = dma;
    compute_slots = compute;
    prologue_slots = 0.;
    epilogue_slots = 0.;
  }

let test_pipeline_saturation () =
  (* With a fixed total amount of work, 11+ tasklets should not be
     slower than a few tasklets. *)
  let total_chunks = 240 in
  let t1 = U.Dpu_model.kernel_cycles cfg (profile ~tasklets:1 ~chunks:total_chunks ()) in
  let t8 = U.Dpu_model.kernel_cycles cfg (profile ~tasklets:8 ~chunks:total_chunks ()) in
  let t16 = U.Dpu_model.kernel_cycles cfg (profile ~tasklets:16 ~chunks:total_chunks ()) in
  Alcotest.(check bool) "8 tasklets beat 1" true (t8 < t1);
  Alcotest.(check bool) "16 not much worse than 8" true (t16 < t8 *. 1.5)

let test_revolver_saturation_point () =
  (* A compute-bound kernel's throughput saturates at the revolver
     period (11 tasklets): adding tasklets beyond that does not help. *)
  let at t = U.Dpu_model.kernel_cycles cfg (profile ~tasklets:t ~chunks:(24 * 20) ~dma:[] ~compute:500. ()) in
  Alcotest.(check bool) "2 -> 8 speeds up" true (at 8 < at 2 *. 0.5);
  let t11 = at 11 and t24 = at 24 in
  Alcotest.(check bool)
    (Printf.sprintf "11 vs 24 within 10%% (%.0f vs %.0f)" t11 t24)
    true
    (Float.abs (t24 -. t11) /. t11 < 0.10)

let test_dma_engine_serializes () =
  (* Doubling per-chunk DMA doubles the DMA-bound kernel time. *)
  let small = U.Dpu_model.kernel_cycles cfg (profile ~compute:1. ~dma:[ (2048, 1.) ] ()) in
  let big = U.Dpu_model.kernel_cycles cfg (profile ~compute:1. ~dma:[ (2048, 2.) ] ()) in
  Alcotest.(check bool) "dma bound scales" true
    (big > small *. 1.6 && big < small *. 2.4)

let test_extrapolation_linear () =
  (* Chunk counts beyond the simulation cap extrapolate ~linearly. *)
  let at n = U.Dpu_model.kernel_cycles cfg (profile ~chunks:n ()) in
  let t8k = at 8192 and t16k = at 16384 in
  let ratio = t16k /. t8k in
  Alcotest.(check bool) "doubling work ~doubles time" true
    (ratio > 1.8 && ratio < 2.2)

let test_zero_chunks () =
  let t = U.Dpu_model.kernel_cycles cfg (profile ~chunks:0 ()) in
  Alcotest.(check bool) "no work, no time" true (t >= 0. && t < 1e4)

(* Reference oracle for [Dpu_model.kernel_cycles]: the original event
   loop, which scans for the earliest-ready tasklet with chunks left at
   every step and simulates the extrapolation points separately. *)
let reference_simulate p chunks =
  let open U.Dpu_model in
  let t = max 1 p.tasklets in
  let period = issue_period cfg ~tasklets:t in
  let compute_time = p.compute_slots *. period in
  let dma_times =
    List.map (fun (b, n) -> n *. U.Timing.dma_cycles cfg b) p.dma_bytes
  in
  let remaining = Array.make t 0 in
  for i = 0 to chunks - 1 do
    remaining.(i mod t) <- remaining.(i mod t) + 1
  done;
  let ready = Array.make t (p.prologue_slots *. period) in
  let engine_free = ref 0. in
  let pick () =
    let best = ref (-1) in
    for i = 0 to t - 1 do
      if remaining.(i) > 0 && (!best < 0 || ready.(i) < ready.(!best)) then
        best := i
    done;
    !best
  in
  let continue = ref true in
  while !continue do
    let i = pick () in
    if i < 0 then continue := false
    else begin
      let now = ref ready.(i) in
      List.iter
        (fun d ->
          let start = Float.max !now !engine_free in
          engine_free := start +. d;
          now := start +. d)
        dma_times;
      now := !now +. compute_time;
      ready.(i) <- !now;
      remaining.(i) <- remaining.(i) - 1
    end
  done;
  let finish = ref 0. in
  for i = 0 to t - 1 do
    let f = ready.(i) +. (p.epilogue_slots *. period) in
    if f > !finish then finish := f
  done;
  !finish

let reference_kernel_cycles p =
  let cap = 4096 in
  if p.U.Dpu_model.chunks <= cap then reference_simulate p p.chunks
  else
    let half = cap / 2 in
    let t_half = reference_simulate p half
    and t_full = reference_simulate p cap in
    let rate = (t_full -. t_half) /. float_of_int (cap - half) in
    t_full +. (rate *. float_of_int (p.chunks - cap))

let full_profile ~tasklets ~chunks ~dma ~compute ~prologue ~epilogue =
  {
    U.Dpu_model.tasklets;
    chunks;
    dma_bytes = dma;
    compute_slots = compute;
    prologue_slots = prologue;
    epilogue_slots = epilogue;
  }

let same_bits p =
  Int64.equal
    (Int64.bits_of_float (U.Dpu_model.kernel_cycles cfg p))
    (Int64.bits_of_float (reference_kernel_cycles p))

let corner_tasklets = [ 0; 1; 24 ]
let corner_chunks = [ 0; 1; 2048; 4096; 4097; 8192; 100_001 ]

(* empty, zero-byte, zero-count and fractional-count DMA lists *)
let corner_dmas =
  [ []; [ (0, 1.) ]; [ (256, 0.) ]; [ (2048, 1.); (64, 0.25); (0, 3.) ] ]

let corner_computes = [ 0.; 1e-9; 200. ]

let test_matches_reference_corners () =
  List.iter
    (fun tasklets ->
      List.iter
        (fun chunks ->
          List.iter
            (fun dma ->
              List.iter
                (fun compute ->
                  let p =
                    full_profile ~tasklets ~chunks ~dma ~compute ~prologue:3.
                      ~epilogue:5.
                  in
                  if not (same_bits p) then
                    Alcotest.failf
                      "tasklets=%d chunks=%d dmas=%d compute=%h: %h <> %h"
                      tasklets chunks (List.length dma) compute
                      (U.Dpu_model.kernel_cycles cfg p)
                      (reference_kernel_cycles p))
                corner_computes)
            corner_dmas)
        corner_chunks)
    corner_tasklets

(* Values recorded from the event-loop implementation. *)
let test_pinned_profiles () =
  let check name expected p =
    Alcotest.(check string) name (Printf.sprintf "%h" expected)
      (Printf.sprintf "%h" (U.Dpu_model.kernel_cycles cfg p))
  in
  check "default profile" 0x1.ea4p+13 (profile ());
  check "capped, mixed dmas" 0x1.8f3f9cp+21
    (full_profile ~tasklets:11 ~chunks:3000
       ~dma:[ (2048, 1.); (64, 0.25); (8, 1.) ]
       ~compute:37.5 ~prologue:12. ~epilogue:9.);
  check "extrapolated" 0x1.2afa433p+29
    (full_profile ~tasklets:24 ~chunks:1_000_000
       ~dma:[ (512, 2.); (1024, 0.125) ]
       ~compute:3.25 ~prologue:40. ~epilogue:17.)

let gen_profile =
  let open QCheck2.Gen in
  let tasklets = frequency [ (1, oneofl corner_tasklets); (3, int_range 0 24) ] in
  let chunks =
    frequency
      [
        (2, oneofl corner_chunks);
        (1, int_range 100_001 10_000_000);
        (4, int_range 0 5000);
      ]
  in
  let count =
    frequency
      [ (1, oneofl [ 0.; 1. ]); (2, float_range 0. 4.); (1, float_range 0. 1e-6) ]
  in
  let dma =
    frequency
      [
        (1, oneofl corner_dmas);
        (4, list_size (int_range 0 4) (pair (int_range 0 4096) count));
      ]
  in
  let slots =
    frequency
      [ (1, oneofl [ 0.; 1e-12 ]); (1, float_range 0. 1e-6); (4, float_range 0. 2000.) ]
  in
  map
    (fun (tasklets, chunks, dma, (compute, prologue, epilogue)) ->
      full_profile ~tasklets ~chunks ~dma ~compute ~prologue ~epilogue)
    (tup4 tasklets chunks dma (tup3 slots slots slots))

let print_profile p =
  Printf.sprintf
    "{tasklets=%d; chunks=%d; dma=[%s]; compute=%h; prologue=%h; epilogue=%h}"
    p.U.Dpu_model.tasklets p.chunks
    (String.concat "; "
       (List.map (fun (b, n) -> Printf.sprintf "(%d, %h)" b n) p.dma_bytes))
    p.compute_slots p.prologue_slots p.epilogue_slots

let prop_matches_reference =
  QCheck2.Test.make ~count:400 ~name:"kernel cycles bit-identical to event loop"
    ~print:print_profile gen_profile same_bits

let test_transfer_parallel_beats_serial () =
  let serial =
    U.Transfer.seconds cfg U.Transfer.H2d U.Transfer.Serial ~ndpus:2048
      ~bytes_per_dpu:4096
  in
  let par =
    U.Transfer.seconds cfg U.Transfer.H2d U.Transfer.Bank_parallel ~ndpus:2048
      ~bytes_per_dpu:4096
  in
  Alcotest.(check bool) "parallel wins at scale" true (par < serial /. 10.)

let test_transfer_d2h_slower () =
  let h2d =
    U.Transfer.seconds cfg U.Transfer.H2d U.Transfer.Bank_parallel ~ndpus:2048
      ~bytes_per_dpu:65536
  in
  let d2h =
    U.Transfer.seconds cfg U.Transfer.D2h U.Transfer.Bank_parallel ~ndpus:2048
      ~bytes_per_dpu:65536
  in
  Alcotest.(check bool) "d2h slower" true (d2h > h2d)

let test_transfer_zero_bytes () =
  Alcotest.(check (float 0.)) "zero" 0.
    (U.Transfer.seconds cfg U.Transfer.H2d U.Transfer.Serial ~ndpus:64
       ~bytes_per_dpu:0)

let test_transfer_rank_parallelism () =
  (* The same total bytes spread over more ranks transfer faster. *)
  let one_rank =
    U.Transfer.seconds cfg U.Transfer.H2d U.Transfer.Bank_parallel ~ndpus:64
      ~bytes_per_dpu:(1 lsl 20)
  in
  let many_ranks =
    U.Transfer.seconds cfg U.Transfer.H2d U.Transfer.Bank_parallel ~ndpus:2048
      ~bytes_per_dpu:(1 lsl 15)
  in
  Alcotest.(check bool) "rank parallel" true (many_ranks < one_rank)

let test_broadcast_cheaper_than_pushes () =
  let bytes = 1 lsl 16 in
  let bcast = U.Transfer.broadcast_seconds cfg ~ndpus:2048 ~bytes in
  let push =
    U.Transfer.seconds cfg U.Transfer.H2d U.Transfer.Bank_parallel ~ndpus:2048
      ~bytes_per_dpu:bytes
  in
  Alcotest.(check bool) "broadcast <= push" true (bcast <= push +. 1e-9)

let test_host_model_scaling () =
  let t1 =
    U.Host_model.loop_seconds cfg ~threads:1 ~elems:1_000_000 ~ops_per_elem:4.
      ~bytes_per_elem:4.
  in
  let t8 =
    U.Host_model.loop_seconds cfg ~threads:8 ~elems:1_000_000 ~ops_per_elem:4.
      ~bytes_per_elem:4.
  in
  Alcotest.(check bool) "threads help" true (t8 < t1);
  Alcotest.(check (float 0.)) "empty" 0.
    (U.Host_model.loop_seconds cfg ~threads:4 ~elems:0 ~ops_per_elem:1.
       ~bytes_per_elem:1.)

let test_stats_algebra () =
  let s =
    {
      U.Stats.zero with
      U.Stats.h2d_s = 1.;
      kernel_s = 2.;
      d2h_s = 3.;
      host_s = 4.;
      launch_s = 0.5;
    }
  in
  Alcotest.(check (float 1e-9)) "total" 10.5 (U.Stats.total_s s);
  let d = U.Stats.add s s in
  Alcotest.(check (float 1e-9)) "add" 21. (U.Stats.total_s d);
  Alcotest.(check (float 1e-9)) "scale" 5.25 (U.Stats.total_s (U.Stats.scale 0.5 s));
  Alcotest.(check (float 1e-9)) "speedup" 2. (U.Stats.speedup ~baseline:d s)

let prop_dma_cost_monotone =
  QCheck2.Test.make ~name:"dma cost monotone in bytes"
    QCheck2.Gen.(pair (int_range 8 2040) (int_range 1 8))
    (fun (b, d) ->
      U.Timing.dma_cycles cfg b <= U.Timing.dma_cycles cfg (b + d))

let prop_kernel_cycles_monotone_chunks =
  QCheck2.Test.make ~name:"kernel cycles monotone in chunks"
    QCheck2.Gen.(pair (int_range 1 500) (int_range 1 24))
    (fun (chunks, tasklets) ->
      let a = U.Dpu_model.kernel_cycles cfg (profile ~tasklets ~chunks ()) in
      let b =
        U.Dpu_model.kernel_cycles cfg (profile ~tasklets ~chunks:(chunks + 7) ())
      in
      a <= b +. 1e-6)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "upmem"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "with_dpus" `Quick test_with_dpus;
          Alcotest.test_case "with_dpus invalid" `Quick test_with_dpus_invalid;
          Alcotest.test_case "cycles/seconds" `Quick test_cycles_seconds_roundtrip;
        ] );
      ( "timing",
        [
          Alcotest.test_case "dma monotone" `Quick test_dma_cycles_monotone;
          Alcotest.test_case "dma legal" `Quick test_dma_legal;
          Alcotest.test_case "branch penalty" `Quick
            test_branch_slots_unsaturated_penalty;
          Alcotest.test_case "op costs" `Quick test_int_mul_more_expensive;
        ] );
      ( "dpu_model",
        [
          Alcotest.test_case "pipeline saturation" `Quick test_pipeline_saturation;
          Alcotest.test_case "revolver saturation point" `Quick
            test_revolver_saturation_point;
          Alcotest.test_case "dma engine serializes" `Quick
            test_dma_engine_serializes;
          Alcotest.test_case "extrapolation" `Quick test_extrapolation_linear;
          Alcotest.test_case "zero chunks" `Quick test_zero_chunks;
          Alcotest.test_case "matches reference at corners" `Quick
            test_matches_reference_corners;
          Alcotest.test_case "pinned profiles" `Quick test_pinned_profiles;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "parallel beats serial" `Quick
            test_transfer_parallel_beats_serial;
          Alcotest.test_case "d2h slower" `Quick test_transfer_d2h_slower;
          Alcotest.test_case "zero bytes" `Quick test_transfer_zero_bytes;
          Alcotest.test_case "rank parallelism" `Quick
            test_transfer_rank_parallelism;
          Alcotest.test_case "broadcast" `Quick test_broadcast_cheaper_than_pushes;
        ] );
      ( "host+stats",
        [
          Alcotest.test_case "host scaling" `Quick test_host_model_scaling;
          Alcotest.test_case "stats algebra" `Quick test_stats_algebra;
        ] );
      ( "properties",
        q
          [
            prop_dma_cost_monotone;
            prop_kernel_cycles_monotone_chunks;
            prop_matches_reference;
          ] );
    ]
