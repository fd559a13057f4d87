(* Robustness and accounting tests: pass idempotence, transfer byte
   accounting, weight residency, failure injection, and cross-checks
   between the functional interpreter and the cost estimator. *)

module Sk = Imtp_engine.Sketch
module L = Imtp_lower.Lowering
module Pl = Imtp_passes.Pipeline
module Ops = Imtp_workload.Ops
module Op = Imtp_workload.Op
module U = Imtp_upmem
module T = Imtp_tensor
module St = Imtp_tir.Stmt
module P = Imtp_tir.Program

let cfg = U.Config.default

let build ?(passes = Pl.all_on) op params =
  let raw =
    L.lower ~options:L.default_options (Sk.instantiate op params)
  in
  Pl.run ~config:passes cfg raw

let params ?(sd = 8) ?(rd = 1) ?(t = 4) ?(c = 8) () =
  {
    Sk.default_params with
    Sk.spatial_dpus = sd;
    reduction_dpus = rd;
    tasklets = t;
    cache_elems = c;
  }

(* --- pass idempotence --------------------------------------------------- *)

let kernel_string prog =
  Imtp_tir.Printer.stmt_to_string (List.hd prog.P.kernels).P.body

let test_passes_idempotent () =
  List.iter
    (fun (name, op, p) ->
      let once = build op p in
      let twice = Pl.run cfg once in
      Alcotest.(check string) (name ^ " idempotent") (kernel_string once)
        (kernel_string twice))
    [
      ("va", Ops.va 1000, params ());
      ("mtv", Ops.mtv 61 47, params ());
      ("mtv rf", Ops.mtv 61 47, params ~rd:2 ());
      ("red", Ops.red 999, params ~rd:4 ());
    ]

(* --- transfer byte accounting ------------------------------------------- *)

let test_h2d_bytes_va () =
  (* Aligned VA: exactly A and B move host->DPU, C moves back. *)
  let n = 1 lsl 14 in
  let op = Ops.va n in
  let prog = build op (params ~sd:8 ~t:4 ~c:16 ()) in
  let s = Imtp_tir.Cost.measure cfg prog in
  Alcotest.(check int) "h2d bytes = 2 tensors" (2 * n * 4) s.U.Stats.bytes_h2d;
  Alcotest.(check int) "d2h bytes = output" (n * 4) s.U.Stats.bytes_d2h

let test_h2d_bytes_mtv_broadcast () =
  (* 1-D MTV: A moves once; B is broadcast (counted once per DPU). *)
  let n = 64 and k = 32 in
  let op = Ops.mtv n k in
  let p = params ~sd:8 ~t:4 ~c:8 () in
  let prog = build op p in
  let s = Imtp_tir.Cost.measure cfg prog in
  let dpus = P.dpus_used prog in
  Alcotest.(check int) "h2d = A + B per dpu"
    ((n * k * 4) + (dpus * k * 4))
    s.U.Stats.bytes_h2d

let test_skip_weights_removes_h2d () =
  let op = Ops.mtv 256 512 in
  let p = params ~sd:16 ~t:4 ~c:16 () in
  let with_w =
    Imtp_autotune.Measure.measure cfg op p |> Result.get_ok
  in
  let without_w =
    Imtp_autotune.Measure.measure ~skip_inputs:[ "A" ] cfg op p |> Result.get_ok
  in
  let bw = with_w.Imtp_autotune.Measure.stats.U.Stats.bytes_h2d in
  let bw' = without_w.Imtp_autotune.Measure.stats.U.Stats.bytes_h2d in
  Alcotest.(check int) "A excluded" (bw - (256 * 512 * 4)) bw';
  Alcotest.(check bool) "latency drops" true
    (without_w.Imtp_autotune.Measure.latency_s < with_w.Imtp_autotune.Measure.latency_s)

let test_skip_weights_still_correct_when_preloaded () =
  (* A resident program must still compute correctly if A's MRAM tiles
     are preloaded by an explicit run of the full program first — here
     we simply check the resident program declares A's MRAM buffer. *)
  let op = Ops.mtv 64 32 in
  let p = params ~sd:8 ~t:4 ~c:8 () in
  let prog =
    Imtp_autotune.Measure.build ~skip_inputs:[ "A" ] cfg op p |> Result.get_ok
  in
  Alcotest.(check bool) "A_m still declared" true
    (Option.is_some (P.buffer_of prog "A_m"));
  (* and the host program contains no H2D transfer for A. *)
  let has_a_xfer = ref false in
  St.iter
    (function
      | St.Xfer { host = "A"; dir = St.To_dpu; _ } -> has_a_xfer := true
      | _ -> ())
    prog.P.host;
  Alcotest.(check bool) "no A transfer" false !has_a_xfer

(* --- failure injection --------------------------------------------------- *)

let test_poisoned_padding_is_caught () =
  (* Remove the compute boundary guard from a misaligned kernel: the
     interpreter's poisoned MRAM padding must corrupt the result,
     proving missing guards cannot pass silently. *)
  let op = Ops.red 1000 in
  let p = params ~rd:4 ~t:4 ~c:8 () in
  let raw = L.lower ~options:L.default_options (Sk.instantiate op p) in
  let strip_guards (k : P.kernel) =
    {
      k with
      P.body =
        St.rewrite_bottom_up
          (function
            | St.If { then_; else_ = None; _ } -> then_
            | s -> s)
          k.P.body;
    }
  in
  let sabotaged = { raw with P.kernels = List.map strip_guards raw.P.kernels } in
  let inputs = Ops.random_inputs op in
  let want = Op.reference op inputs in
  match Imtp_tir.Eval.run sabotaged ~inputs with
  | exception Imtp_tir.Eval.Error _ -> () (* out-of-bounds caught: fine *)
  | outs ->
      let got = List.assoc "C" outs in
      Alcotest.(check bool) "poison corrupts unguarded kernel" false
        (T.Tensor.to_value_list got = T.Tensor.to_value_list want)

let test_validate_rejects_cross_scope () =
  let op = Ops.va 64 in
  let prog = build op (params ~sd:2 ~t:2 ~c:4 ()) in
  let bad =
    {
      prog with
      P.host = St.seq [ prog.P.host; St.Barrier ];
    }
  in
  match P.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "barrier in host accepted"

let test_eval_rejects_wrong_input_size () =
  let op = Ops.va 64 in
  let prog = build op (params ~sd:2 ~t:2 ~c:4 ()) in
  let bad = T.Tensor.create T.Dtype.I32 (T.Shape.create [ 3 ]) in
  match Imtp_tir.Eval.run prog ~inputs:[ ("A", bad) ] with
  | exception Imtp_tir.Eval.Error _ -> ()
  | _ -> Alcotest.fail "wrong-size input accepted"

(* --- interpreter/cost cross-checks --------------------------------------- *)

let test_more_dpus_less_kernel_time () =
  let op = Ops.mtv 512 256 in
  let kc sd =
    let prog = build op (params ~sd ~t:4 ~c:16 ()) in
    Imtp_tir.Cost.kernel_cycles cfg prog (List.hd prog.P.kernels)
  in
  Alcotest.(check bool) "kernel time shrinks with DPUs" true (kc 64 < kc 8)

let test_unroll_reduces_kernel_time () =
  let op = Ops.mtv 128 256 in
  let t u =
    let p = { (params ~sd:16 ~t:4 ~c:16 ()) with Sk.unroll_inner = u } in
    let prog = build op p in
    Imtp_tir.Cost.kernel_cycles cfg prog (List.hd prog.P.kernels)
  in
  Alcotest.(check bool) "unroll helps" true (t true < t false)

let test_int8_correctness_all_paths () =
  (* int8 has exact modular semantics, so results are bit-exact under
     any schedule: wrap-on-store is associative for addition and
     multiplication. *)
  List.iter
    (fun (op, p) ->
      let prog = build op p in
      let inputs = Ops.random_inputs op in
      let outs = Imtp_tir.Eval.run prog ~inputs in
      let got = T.Tensor.to_value_list (List.assoc (fst op.Op.output) outs) in
      let want = T.Tensor.to_value_list (Op.reference op inputs) in
      Alcotest.(check bool) (op.Op.opname ^ " i8 correct") true (got = want))
    [
      (Ops.va ~dtype:T.Dtype.I8 1000, params ());
      (Ops.mtv ~dtype:T.Dtype.I8 31 61, params ());
      (Ops.mtv ~dtype:T.Dtype.I8 31 61, params ~rd:2 ());
      (Ops.red ~dtype:T.Dtype.I8 999, params ~rd:4 ());
    ]

let test_int8_moves_fewer_bytes () =
  let bytes dt =
    let op = Ops.va ~dtype:dt 4096 in
    let prog = build op (params ~sd:4 ~t:4 ~c:16 ()) in
    (Imtp_tir.Cost.measure cfg prog).U.Stats.bytes_h2d
  in
  Alcotest.(check int) "4x fewer bytes" (bytes T.Dtype.I32 / 4) (bytes T.Dtype.I8)

let test_int8_kernel_cheaper_than_int32 () =
  let kc dt =
    let op = Ops.mtv ~dtype:dt 64 128 in
    let prog = build op (params ~sd:8 ~t:4 ~c:8 ()) in
    Imtp_tir.Cost.kernel_cycles cfg prog (List.hd prog.P.kernels)
  in
  Alcotest.(check bool) "i8 <= i32" true (kc T.Dtype.I8 <= kc T.Dtype.I32)

let test_float_kernels_cost_more () =
  let t dt =
    let op = Ops.mtv ~dtype:dt 64 128 in
    let prog = build op (params ~sd:8 ~t:4 ~c:8 ()) in
    Imtp_tir.Cost.kernel_cycles cfg prog (List.hd prog.P.kernels)
  in
  Alcotest.(check bool) "f32 > i32" true (t T.Dtype.F32 > t T.Dtype.I32)

let test_host_threads_cut_reduction_time () =
  let op = Ops.mtv 2048 4096 in
  let t ht =
    let p = { (params ~sd:64 ~rd:16 ~t:8 ~c:32 ()) with Sk.host_threads = ht } in
    let prog = build op p in
    (Imtp_tir.Cost.measure cfg prog).U.Stats.host_s
  in
  Alcotest.(check bool) "16 threads beat 1" true (t 16 < t 1)

(* --- interpreter-vs-cost cross-validation -------------------------------- *)

let test_counters_match_cost_bytes () =
  (* Aligned VA: the cost model's transfer byte accounting must agree
     exactly with the elements the interpreter actually moved. *)
  let n = 1 lsl 12 in
  let op = Ops.va n in
  let prog = build op (params ~sd:4 ~t:4 ~c:16 ()) in
  let stats = Imtp_tir.Cost.measure cfg prog in
  let _, c = Imtp_tir.Eval.run_counted prog ~inputs:(Ops.random_inputs op) in
  Alcotest.(check int) "h2d bytes"
    stats.U.Stats.bytes_h2d
    (c.Imtp_tir.Eval.xfer_elems_h2d * 4);
  Alcotest.(check int) "d2h bytes"
    stats.U.Stats.bytes_d2h
    (c.Imtp_tir.Eval.xfer_elems_d2h * 4)

let test_counters_dma_work_matches_tensor () =
  (* Aligned VA moves each element through DMA exactly three times
     (load A, load B, store C). *)
  let n = 1 lsl 10 in
  let op = Ops.va n in
  let prog = build op (params ~sd:4 ~t:4 ~c:16 ()) in
  let _, c = Imtp_tir.Eval.run_counted prog ~inputs:(Ops.random_inputs op) in
  Alcotest.(check int) "dma elems = 3n" (3 * n) c.Imtp_tir.Eval.dma_elems;
  (* after vectorization, far fewer DMA instructions than elements *)
  Alcotest.(check bool) "dma vectorized" true
    (c.Imtp_tir.Eval.dma_ops * 8 <= c.Imtp_tir.Eval.dma_elems)

let test_counters_kernel_work_scales () =
  let count op p =
    let prog = build op p in
    let _, c = Imtp_tir.Eval.run_counted prog ~inputs:(Ops.random_inputs op) in
    c.Imtp_tir.Eval.kernel_stores
  in
  let small = count (Ops.mtv 16 32) (params ~sd:4 ~t:2 ~c:8 ()) in
  let large = count (Ops.mtv 32 64) (params ~sd:4 ~t:2 ~c:8 ()) in
  Alcotest.(check bool) "4x work, ~4x stores" true
    (large > 3 * small && large < 6 * small)

let prop_cost_deterministic =
  QCheck2.Test.make ~name:"cost measurement is deterministic" ~count:20
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let op = Ops.mtv 64 128 in
      let rng = Imtp_engine.Rng.create ~seed in
      let p = Sk.random rng cfg op in
      match
        ( Imtp_autotune.Measure.measure cfg op p,
          Imtp_autotune.Measure.measure cfg op p )
      with
      | Ok a, Ok b ->
          Float.equal a.Imtp_autotune.Measure.latency_s
            b.Imtp_autotune.Measure.latency_s
      | Error a, Error b -> String.equal a b
      | _, _ -> false)

let prop_bytes_independent_of_intra_dpu_params =
  (* For tilings that divide the per-DPU slice exactly, transferred
     bytes depend only on the data distribution, never on tasklet or
     caching-tile choices.  (Misaligned tilings legitimately transfer
     padded rows at the boundary.) *)
  QCheck2.Test.make
    ~name:"h2d bytes depend on distribution, not tasklets/cache" ~count:15
    QCheck2.Gen.(pair (oneofl [ 1; 2; 4 ]) (int_range 3 6))
    (fun (t, c_log) ->
      let op = Ops.va 4096 in
      let base = build op (params ~sd:8 ~t:2 ~c:8 ()) in
      let other = build op (params ~sd:8 ~t ~c:(1 lsl c_log) ()) in
      let b1 = (Imtp_tir.Cost.measure cfg base).U.Stats.bytes_h2d in
      let b2 = (Imtp_tir.Cost.measure cfg other).U.Stats.bytes_h2d in
      b1 = b2)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "robustness"
    [
      ("idempotence", [ Alcotest.test_case "passes" `Quick test_passes_idempotent ]);
      ( "accounting",
        [
          Alcotest.test_case "va bytes" `Quick test_h2d_bytes_va;
          Alcotest.test_case "mtv broadcast bytes" `Quick
            test_h2d_bytes_mtv_broadcast;
          Alcotest.test_case "skip weights" `Quick test_skip_weights_removes_h2d;
          Alcotest.test_case "resident program shape" `Quick
            test_skip_weights_still_correct_when_preloaded;
        ] );
      ( "failure injection",
        [
          Alcotest.test_case "poisoned padding" `Quick
            test_poisoned_padding_is_caught;
          Alcotest.test_case "cross scope" `Quick test_validate_rejects_cross_scope;
          Alcotest.test_case "wrong input size" `Quick
            test_eval_rejects_wrong_input_size;
        ] );
      ( "cost cross-checks",
        [
          Alcotest.test_case "counters match cost bytes" `Quick
            test_counters_match_cost_bytes;
          Alcotest.test_case "dma work per element" `Quick
            test_counters_dma_work_matches_tensor;
          Alcotest.test_case "kernel work scales" `Quick
            test_counters_kernel_work_scales;
          Alcotest.test_case "dpus scale kernel" `Quick test_more_dpus_less_kernel_time;
          Alcotest.test_case "unroll" `Quick test_unroll_reduces_kernel_time;
          Alcotest.test_case "float cost" `Quick test_float_kernels_cost_more;
          Alcotest.test_case "int8 correctness" `Quick
            test_int8_correctness_all_paths;
          Alcotest.test_case "int8 bytes" `Quick test_int8_moves_fewer_bytes;
          Alcotest.test_case "int8 kernel cost" `Quick
            test_int8_kernel_cheaper_than_int32;
          Alcotest.test_case "host threads" `Quick
            test_host_threads_cut_reduction_time;
        ] );
      ("properties", q [ prop_cost_deterministic; prop_bytes_independent_of_intra_dpu_params ]);
    ]
