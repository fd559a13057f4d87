(* End-to-end lowering tests: schedules for each operator are lowered
   to TIR, interpreted on the simulated machine, and checked against
   the operator's reference semantics — including misaligned shapes
   (boundary checks) and hierarchical reduction (rfactor). *)

module S = Imtp_schedule.Sched
module Op = Imtp_workload.Op
module Ops = Imtp_workload.Ops
module L = Imtp_lower.Lowering
module T = Imtp_tensor
module P = Imtp_tir.Program
module St = Imtp_tir.Stmt
module Sk = Imtp_engine.Sketch

let ceil_div a b = (a + b - 1) / b

(* 1-D elementwise schedule: i -> [dpu][thread][chunk][inner]. *)
let sched_elementwise op ~dpus ~tasklets ~cache_elems =
  let s = S.create op in
  let i = List.hd (S.order s) in
  let n = i.S.extent in
  let chunk = max 1 (ceil_div n (dpus * tasklets * cache_elems)) in
  match S.split s i ~factors:[ tasklets; chunk; cache_elems ] with
  | [ i_dpu; i_th; i_chunk; _i_in ] ->
      S.bind s i_dpu S.Block_x;
      S.bind s i_th S.Thread_x;
      List.iter
        (fun (t, _) ->
          let c = S.cache_read s t in
          S.compute_at s c i_chunk)
        (S.op s).Op.inputs;
      let cw = S.cache_write s (fst (S.op s).Op.output) in
      S.reverse_compute_at s cw i_chunk;
      s
  | _ -> assert false

(* Reduction schedule (RED): i -> [dpu(rfactor)][thread][chunk][inner],
   tasklet-level partial reduction. *)
let sched_reduction op ~dpus ~tasklets ~cache_elems =
  let s = S.create op in
  let i = List.hd (S.order s) in
  let n = i.S.extent in
  let chunk = max 1 (ceil_div n (dpus * tasklets * cache_elems)) in
  match S.split s i ~factors:[ tasklets; chunk; cache_elems ] with
  | [ i_dpu; i_th; i_chunk; _i_in ] ->
      S.bind s i_dpu S.Block_x;
      S.rfactor s i_dpu;
      S.bind s i_th S.Thread_x;
      let ca = S.cache_read s "A" in
      S.compute_at s ca i_chunk;
      let cw = S.cache_write s "C" in
      S.reverse_compute_at s cw i_th;
      s
  | _ -> assert false

(* MTV/GEMV 1-D (PrIM-style): spatial rows over DPUs/tasklets, serial
   reduction with caching; optional 2-D tiling with rfactor, whose host
   reduction runs on [host_threads] threads. *)
let sched_mv op ~i_dpus ~j_dpus ~tasklets ~rows_per_tasklet ~j_cache
    ~host_threads =
  let s = S.create op in
  let i = List.nth (S.order s) 0 and j = List.nth (S.order s) 1 in
  let i_loops = S.split s i ~factors:[ tasklets; rows_per_tasklet ] in
  let j_loops =
    if j_dpus > 1 then
      let k = (Op.axis (S.op s) "j").Op.extent in
      S.split s j ~factors:[ ceil_div k (j_dpus * j_cache); j_cache ]
    else S.split s j ~factors:[ j_cache ]
  in
  (match i_loops with
  | [ i_dpu; i_th; i_r ] -> (
      S.bind s i_dpu S.Block_x;
      S.bind s i_th S.Thread_x;
      match j_loops with
      | [ j_blk; j_chunk; j_in ] when j_dpus > 1 ->
          ignore j_in;
          S.reorder s [ j_blk; i_th; i_r; j_chunk ];
          S.bind s j_blk S.Block_y;
          S.rfactor s j_blk;
          let ca = S.cache_read s "A" and cb = S.cache_read s "B" in
          S.compute_at s ca j_chunk;
          S.compute_at s cb j_chunk;
          let cw = S.cache_write s "C" in
          S.reverse_compute_at s cw i_r;
          if host_threads > 1 then S.parallel s i_r ~threads:host_threads
      | [ j_chunk; j_in ] ->
          ignore j_in;
          let ca = S.cache_read s "A" and cb = S.cache_read s "B" in
          S.compute_at s ca j_chunk;
          S.compute_at s cb j_chunk;
          let cw = S.cache_write s "C" in
          S.reverse_compute_at s cw i_r
      | _ -> assert false)
  | _ -> assert false);
  ignore i_dpus;
  s

(* MMTV/TTV: batch over Block_x, rows over Block_y + tasklets, serial
   reduction with caching. *)
let sched_batched op ~tasklets ~rows_per_tasklet ~k_cache =
  let s = S.create op in
  let i = List.nth (S.order s) 0
  and j = List.nth (S.order s) 1
  and k = List.nth (S.order s) 2 in
  S.bind s i S.Block_x;
  let j_r =
    match S.split s j ~factors:[ tasklets; rows_per_tasklet ] with
    | [ j_dpu; j_th; j_r ] ->
        S.bind s j_dpu S.Block_y;
        S.bind s j_th S.Thread_x;
        j_r
    | _ -> assert false
  in
  (match S.split s k ~factors:[ k_cache ] with
  | [ k_chunk; _k_in ] ->
      List.iter
        (fun (t, _) ->
          let c = S.cache_read s t in
          S.compute_at s c k_chunk)
        (S.op s).Op.inputs;
      let cw = S.cache_write s (fst (S.op s).Op.output) in
      S.reverse_compute_at s cw j_r
  | _ -> assert false);
  s

let run_and_check ?options op sched =
  let prog = L.lower ?options sched in
  (match P.validate prog with Ok () -> () | Error m -> Alcotest.fail m);
  let inputs = Ops.random_inputs op in
  let outs = Imtp_tir.Eval.run prog ~inputs in
  let got = List.assoc (fst op.Op.output) outs in
  let want = Op.reference op inputs in
  let flat_want =
    (* reference returns shaped output; compare flat contents. *)
    T.Tensor.to_value_list want
  in
  let flat_got = T.Tensor.to_value_list got in
  Alcotest.(check int)
    "output length" (List.length flat_want) (List.length flat_got);
  List.iteri
    (fun idx (w, g) ->
      if not (T.Value.equal w g) then
        Alcotest.failf "%s: output[%d] = %s, expected %s" op.Op.opname idx
          (T.Value.to_string g) (T.Value.to_string w))
    (List.combine flat_want flat_got)

let test_va_aligned () =
  let op = Ops.va 1024 in
  run_and_check op (sched_elementwise op ~dpus:4 ~tasklets:4 ~cache_elems:8)

let test_va_misaligned () =
  let op = Ops.va 1000 in
  run_and_check op (sched_elementwise op ~dpus:4 ~tasklets:4 ~cache_elems:8)

let test_va_single_dpu () =
  let op = Ops.va 64 in
  run_and_check op (sched_elementwise op ~dpus:1 ~tasklets:2 ~cache_elems:4)

let test_geva () =
  let op = Ops.geva ~c:3 ~d:5 513 in
  run_and_check op (sched_elementwise op ~dpus:2 ~tasklets:3 ~cache_elems:16)

let test_red_aligned () =
  let op = Ops.red 1024 in
  run_and_check op (sched_reduction op ~dpus:4 ~tasklets:4 ~cache_elems:8)

let test_red_misaligned () =
  let op = Ops.red 999 in
  run_and_check op (sched_reduction op ~dpus:4 ~tasklets:4 ~cache_elems:8)

let test_mtv_1d () =
  let op = Ops.mtv 32 64 in
  run_and_check op
    (sched_mv op ~i_dpus:8 ~j_dpus:1 ~tasklets:4 ~rows_per_tasklet:1 ~j_cache:16
       ~host_threads:1)

let test_mtv_1d_misaligned () =
  let op = Ops.mtv 30 60 in
  run_and_check op
    (sched_mv op ~i_dpus:8 ~j_dpus:1 ~tasklets:4 ~rows_per_tasklet:1 ~j_cache:16
       ~host_threads:1)

let test_mtv_2d_rfactor () =
  let op = Ops.mtv 32 64 in
  run_and_check op
    (sched_mv op ~i_dpus:8 ~j_dpus:2 ~tasklets:4 ~rows_per_tasklet:1 ~j_cache:8
       ~host_threads:1)

let test_mtv_2d_rfactor_misaligned () =
  let op = Ops.mtv 31 61 in
  run_and_check op
    (sched_mv op ~i_dpus:8 ~j_dpus:2 ~tasklets:4 ~rows_per_tasklet:1 ~j_cache:8
       ~host_threads:1)

let test_gemv_2d () =
  let op = Ops.gemv ~c:7 33 65 in
  run_and_check op
    (sched_mv op ~i_dpus:8 ~j_dpus:2 ~tasklets:4 ~rows_per_tasklet:2 ~j_cache:8
       ~host_threads:2)

let test_ttv () =
  let op = Ops.ttv 4 16 32 in
  run_and_check op (sched_batched op ~tasklets:2 ~rows_per_tasklet:2 ~k_cache:8)

let test_mmtv () =
  let op = Ops.mmtv 4 16 32 in
  run_and_check op (sched_batched op ~tasklets:2 ~rows_per_tasklet:2 ~k_cache:8)

let test_mmtv_misaligned () =
  let op = Ops.mmtv 3 15 31 in
  run_and_check op (sched_batched op ~tasklets:2 ~rows_per_tasklet:2 ~k_cache:8)

let test_options_no_bulk () =
  let op = Ops.va 200 in
  run_and_check op
    ~options:{ L.default_options with L.bulk_transfer = false }
    (sched_elementwise op ~dpus:2 ~tasklets:2 ~cache_elems:8)

let test_options_serial_copy () =
  let op = Ops.va 200 in
  run_and_check op
    ~options:{ L.default_options with L.parallel_transfer = false }
    (sched_elementwise op ~dpus:2 ~tasklets:2 ~cache_elems:8)

let test_options_host_parallel_reduce () =
  let op = Ops.mtv 32 64 in
  run_and_check op
    (sched_mv op ~i_dpus:8 ~j_dpus:2 ~tasklets:4 ~rows_per_tasklet:1 ~j_cache:8
       ~host_threads:8)

let test_rejects_missing_cache () =
  let op = Ops.va 64 in
  let s = S.create op in
  let i = List.hd (S.order s) in
  (match S.split s i ~factors:[ 4 ] with
  | [ o; _ ] -> S.bind s o S.Block_x
  | _ -> assert false);
  match L.lower s with
  | exception L.Lower_error _ -> ()
  | _ -> Alcotest.fail "missing caches accepted"

let test_rejects_reduction_block_without_rfactor () =
  let op = Ops.mtv 16 32 in
  let s = S.create op in
  let j = List.nth (S.order s) 1 in
  (match S.split s j ~factors:[ 8 ] with
  | [ j_dpu; _ ] -> S.bind s j_dpu S.Block_x
  | _ -> assert false);
  match L.lower s with
  | exception L.Lower_error _ -> ()
  | _ -> Alcotest.fail "reduction block without rfactor accepted"

let test_cost_of_lowered () =
  let op = Ops.mtv 64 128 in
  let s =
    sched_mv op ~i_dpus:8 ~j_dpus:2 ~tasklets:4 ~rows_per_tasklet:1 ~j_cache:8
      ~host_threads:1
  in
  let prog = L.lower s in
  let stats = Imtp_tir.Cost.measure Imtp_upmem.Config.default prog in
  Alcotest.(check bool) "positive total" true (Imtp_upmem.Stats.total_s stats > 0.);
  Alcotest.(check int) "grid" 32 stats.Imtp_upmem.Stats.dpus_used

let prop_va_any_shape =
  QCheck2.Test.make ~name:"lowered VA correct for any shape/tiling" ~count:40
    QCheck2.Gen.(
      quad (int_range 1 600) (int_range 1 4) (int_range 1 4) (int_range 1 16))
    (fun (n, dpus, tasklets, cache) ->
      let op = Imtp_workload.Ops.va n in
      let s = sched_elementwise op ~dpus ~tasklets ~cache_elems:cache in
      let prog = L.lower s in
      let inputs = Ops.random_inputs ~seed:n op in
      let outs = Imtp_tir.Eval.run prog ~inputs in
      let got = List.assoc "C" outs in
      let want = Op.reference op inputs in
      T.Tensor.to_value_list got = T.Tensor.to_value_list want)

let prop_mtv_any_shape =
  QCheck2.Test.make ~name:"lowered MTV (2-D rfactor) correct for any shape"
    ~count:25
    QCheck2.Gen.(
      quad (int_range 1 40) (int_range 1 40) (int_range 1 3) (int_range 1 3))
    (fun (n, k, jd, t) ->
      let op = Imtp_workload.Ops.mtv n k in
      let s =
        sched_mv op ~i_dpus:4 ~j_dpus:(1 + jd) ~tasklets:t ~rows_per_tasklet:1
          ~j_cache:4 ~host_threads:1
      in
      let prog = L.lower s in
      let inputs = Ops.random_inputs ~seed:(n + k) op in
      let outs = Imtp_tir.Eval.run prog ~inputs in
      List.assoc "C" outs |> T.Tensor.to_value_list
      = T.Tensor.to_value_list (Op.reference op inputs))

(* --- boundary guards ------------------------------------------------- *)

let lower_sketch op p =
  L.lower ~options:L.default_options (Sk.instantiate op p)

let sketch_params ~c =
  { Sk.default_params with Sk.spatial_dpus = 4; tasklets = 4; cache_elems = c }

let has_guarded_dma body =
  let is_dma = function St.Dma _ -> true | _ -> false in
  St.exists (function St.If _ as s -> St.exists is_dma s | _ -> false) body

let test_ragged_guarded_dmas () =
  (* 500 is not a multiple of any tile: the raw kernel guards its
     copies, and the DMA-elimination pass is what removes them. *)
  let prog = lower_sketch (Ops.gemv ~c:3 500 500) (sketch_params ~c:64) in
  Alcotest.(check bool)
    "raw ragged kernel has guarded DMAs" true
    (has_guarded_dma (List.hd prog.P.kernels).P.body)

let test_divisible_zero_guards () =
  (* A fully divisible tiling needs no boundary check at all. *)
  let prog = lower_sketch (Ops.mtv 32 64) (sketch_params ~c:8) in
  Alcotest.(check int)
    "static branches" 0
    (Imtp_passes.Metrics.of_kernel (List.hd prog.P.kernels))
      .Imtp_passes.Metrics.static_branches

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "lowering"
    [
      ( "elementwise",
        [
          Alcotest.test_case "va aligned" `Quick test_va_aligned;
          Alcotest.test_case "va misaligned" `Quick test_va_misaligned;
          Alcotest.test_case "va single dpu" `Quick test_va_single_dpu;
          Alcotest.test_case "geva" `Quick test_geva;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "red aligned" `Quick test_red_aligned;
          Alcotest.test_case "red misaligned" `Quick test_red_misaligned;
        ] );
      ( "matrix-vector",
        [
          Alcotest.test_case "mtv 1d" `Quick test_mtv_1d;
          Alcotest.test_case "mtv 1d misaligned" `Quick test_mtv_1d_misaligned;
          Alcotest.test_case "mtv 2d rfactor" `Quick test_mtv_2d_rfactor;
          Alcotest.test_case "mtv 2d misaligned" `Quick
            test_mtv_2d_rfactor_misaligned;
          Alcotest.test_case "gemv 2d" `Quick test_gemv_2d;
        ] );
      ( "batched",
        [
          Alcotest.test_case "ttv" `Quick test_ttv;
          Alcotest.test_case "mmtv" `Quick test_mmtv;
          Alcotest.test_case "mmtv misaligned" `Quick test_mmtv_misaligned;
        ] );
      ( "options",
        [
          Alcotest.test_case "no bulk" `Quick test_options_no_bulk;
          Alcotest.test_case "serial copy" `Quick test_options_serial_copy;
          Alcotest.test_case "parallel host reduce" `Quick
            test_options_host_parallel_reduce;
        ] );
      ( "rejection+cost",
        [
          Alcotest.test_case "missing cache" `Quick test_rejects_missing_cache;
          Alcotest.test_case "reduction block needs rfactor" `Quick
            test_rejects_reduction_block_without_rfactor;
          Alcotest.test_case "cost" `Quick test_cost_of_lowered;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "ragged guarded dmas" `Quick
            test_ragged_guarded_dmas;
          Alcotest.test_case "divisible zero guards" `Quick
            test_divisible_zero_guards;
        ] );
      ("properties", q [ prop_va_any_shape; prop_mtv_any_shape ]);
    ]
