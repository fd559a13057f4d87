(* PIM-aware optimization pass tests (§5.3): each pass and every
   ablation combination must preserve program semantics on misaligned
   shapes, and must reduce the static/dynamic metrics it targets. *)

module Sk = Imtp_engine.Sketch
module L = Imtp_lower.Lowering
module Pl = Imtp_passes.Pipeline
module M = Imtp_passes.Metrics
module Op = Imtp_workload.Op
module Ops = Imtp_workload.Ops
module P = Imtp_tir.Program
module St = Imtp_tir.Stmt
module T = Imtp_tensor
module U = Imtp_upmem

let cfg = U.Config.default

let lower_raw op params =
  L.lower ~options:L.default_options (Sk.instantiate op params)

let params ?(sd = 4) ?(rd = 1) ?(t = 4) ?(c = 8) ?(rows = 2) () =
  {
    Sk.default_params with
    Sk.spatial_dpus = sd;
    reduction_dpus = rd;
    tasklets = t;
    cache_elems = c;
    rows_per_tasklet = rows;
  }

let outputs prog op =
  let inputs = Ops.random_inputs op in
  let outs = Imtp_tir.Eval.run prog ~inputs in
  T.Tensor.to_value_list (List.assoc (fst op.Op.output) outs)

let check_semantics_all_ablations name op p =
  let raw = lower_raw op p in
  let want = outputs raw op in
  List.iter
    (fun (aname, config) ->
      let prog = Pl.run ~config cfg raw in
      let got = outputs prog op in
      Alcotest.(check bool)
        (Printf.sprintf "%s under %s" name aname)
        true (got = want))
    Pl.ablations

(* Misaligned on purpose: 1000 is not a multiple of 4*4*8. *)
let test_semantics_va () =
  check_semantics_all_ablations "va" (Ops.va 1000) (params ())

let test_semantics_red () =
  check_semantics_all_ablations "red" (Ops.red 999) (params ~rd:4 ())

let test_semantics_mtv_misaligned_cols () =
  check_semantics_all_ablations "mtv cols" (Ops.mtv 32 61) (params ~c:8 ())

let test_semantics_mtv_misaligned_rows () =
  check_semantics_all_ablations "mtv rows" (Ops.mtv 31 64) (params ~c:8 ())

let test_semantics_mtv_rfactor () =
  check_semantics_all_ablations "mtv rfactor" (Ops.mtv 31 61) (params ~rd:2 ())

let test_semantics_mmtv () =
  check_semantics_all_ablations "mmtv" (Ops.mmtv 3 15 31) (params ())

let test_semantics_gemv_fig8 () =
  (* The Fig. 8 running example: 7x40 GEMV, 2x16 tiling, one tasklet. *)
  let op = Ops.gemv ~c:1 7 40 in
  check_semantics_all_ablations "gemv 7x40"
    op
    (params ~sd:4 ~t:1 ~c:16 ())

let test_semantics_gemm () =
  (* Odd extents on all three axes: boundary guards in both spatial
     tiles and the reduction tail. *)
  check_semantics_all_ablations "gemm" (Ops.gemm 17 13 21) (params ~c:4 ())

(* Ragged shapes whose every tile is partial, checked against the
   operator's reference rather than the raw lowering. *)
let check_reference_all_ablations name op p =
  let raw = lower_raw op p in
  let inputs = Ops.random_inputs op in
  let want = T.Tensor.to_value_list (Op.reference op inputs) in
  List.iter
    (fun (aname, config) ->
      let outs = Imtp_tir.Eval.run (Pl.run ~config cfg raw) ~inputs in
      Alcotest.(check bool)
        (Printf.sprintf "%s under %s" name aname)
        true
        (T.Tensor.to_value_list (List.assoc (fst op.Op.output) outs) = want))
    Pl.ablations

let test_semantics_ragged_gemv () =
  check_reference_all_ablations "gemv 500x500" (Ops.gemv ~c:3 500 500)
    (params ~c:64 ())

let test_semantics_ragged_mmtv () =
  check_reference_all_ablations "mmtv 8x60x60" (Ops.mmtv 8 60 60)
    (params ~c:16 ())

let test_semantics_ragged_rfactor () =
  (* hierarchical reduction over a ragged reduction axis: partial
     gather, host final reduction. *)
  check_reference_all_ablations "gemv 500x500 rfactor" (Ops.gemv ~c:3 500 500)
    (params ~rd:4 ~c:64 ())

let test_semantics_mlp_chain () =
  (* A two-layer MLP as a chain of separately compiled stages
     (mtv -> mtv -> va, odd dims): every ablation must produce the
     same final activations, with each stage's output feeding the
     next stage's inputs. *)
  let d = 23 and h = 19 and o = 7 in
  let l1 = Ops.mtv h d and l2 = Ops.mtv o h in
  let bias = Ops.va o in
  let w1 = T.Tensor.random ~seed:41 ~bound:9 T.Dtype.I32 (T.Shape.create [ h; d ]) in
  let x = T.Tensor.random ~seed:42 ~bound:9 T.Dtype.I32 (T.Shape.create [ d ]) in
  let w2 = T.Tensor.random ~seed:43 ~bound:9 T.Dtype.I32 (T.Shape.create [ o; h ]) in
  let b = T.Tensor.random ~seed:44 ~bound:9 T.Dtype.I32 (T.Shape.create [ o ]) in
  let p = params ~sd:2 ~t:2 ~c:4 () in
  let run_chain config =
    let stage op inputs =
      let prog = Pl.run ~config cfg (lower_raw op p) in
      List.assoc (fst op.Op.output) (Imtp_tir.Eval.run prog ~inputs)
    in
    let y1 = stage l1 [ ("A", w1); ("B", x) ] in
    let y2 = stage l2 [ ("A", w2); ("B", y1) ] in
    T.Tensor.to_value_list (stage bias [ ("A", y2); ("B", b) ])
  in
  let reference =
    let y1 = Op.reference l1 [ ("A", w1); ("B", x) ] in
    let y2 = Op.reference l2 [ ("A", w2); ("B", y1) ] in
    T.Tensor.to_value_list (Op.reference bias [ ("A", y2); ("B", b) ])
  in
  List.iter
    (fun (aname, config) ->
      Alcotest.(check bool)
        (Printf.sprintf "mlp chain under %s" aname)
        true
        (run_chain config = reference))
    Pl.ablations

let kernel prog = List.hd prog.P.kernels

let test_dma_vectorizes () =
  let op = Ops.va 1024 in
  let raw = lower_raw op (params ()) in
  let opt = Imtp_passes.Dma_elim.run cfg raw in
  let has_wide_static_dma k =
    St.exists
      (function
        | St.Dma { elems = Imtp_tir.Expr.Int_const n; _ } -> n > 1
        | _ -> false)
      (kernel k).P.body
  in
  Alcotest.(check bool) "raw has only unit DMA" false (has_wide_static_dma raw);
  Alcotest.(check bool) "optimized has wide static DMA" true
    (has_wide_static_dma opt)

let test_dma_respects_max_size () =
  (* 1024-element tiles at 4 B = 4 KB > the 2 KB DMA limit: the pass
     must strip-vectorize rather than emit an illegal DMA. *)
  let op = Ops.va 8192 in
  let raw = lower_raw op (params ~sd:2 ~t:2 ~c:1024 ()) in
  let opt = Imtp_passes.Dma_elim.run cfg raw in
  let ok = ref true in
  St.iter
    (function
      | St.Dma { elems = Imtp_tir.Expr.Int_const n; _ } ->
          if n * 4 > cfg.U.Config.dma_max_bytes then ok := false
      | _ -> ())
    (kernel opt).P.body;
  Alcotest.(check bool) "all DMAs legal" true !ok;
  (* and semantics still hold *)
  Alcotest.(check bool) "semantics" true (outputs opt op = outputs raw op)

let test_dma_reduces_branches () =
  let op = Ops.mtv 31 61 in
  let raw = lower_raw op (params ()) in
  let opt = Imtp_passes.Dma_elim.run cfg raw in
  let m_raw = M.of_kernel (kernel raw) and m_opt = M.of_kernel (kernel opt) in
  Alcotest.(check bool) "fewer dynamic branches" true
    (m_opt.M.dynamic_branches < m_raw.M.dynamic_branches);
  Alcotest.(check bool) "fewer dynamic DMAs" true
    (m_opt.M.dynamic_dmas < m_raw.M.dynamic_dmas)

let test_loop_tighten_cuts_iterations () =
  (* Misaligned columns: the innermost reduction loop has dead
     iterations that tightening removes (Fig. 8(c): 96 -> 80). *)
  let op = Ops.mtv 32 61 in
  let p = params ~c:8 () in
  let raw = Pl.run ~config:{ Pl.all_off with Pl.dma_elim = true } cfg (lower_raw op p) in
  let lt = Imtp_passes.Loop_tighten.run raw in
  let m_raw = M.of_kernel (kernel raw) and m_lt = M.of_kernel (kernel lt) in
  Alcotest.(check bool)
    (Printf.sprintf "fewer innermost iters (%.0f -> %.0f)" m_raw.M.innermost_iters
       m_lt.M.innermost_iters)
    true
    (m_lt.M.innermost_iters < m_raw.M.innermost_iters);
  Alcotest.(check bool) "semantics" true (outputs lt op = outputs raw op)

let test_branch_hoist_reduces_dynamic_branches () =
  (* Misaligned rows: the row-boundary check is invariant in the
     reduction loop and hoists out (Fig. 8(d)). *)
  let op = Ops.mtv 31 64 in
  let p = params ~c:8 () in
  let pre =
    Pl.run
      ~config:{ Pl.all_off with Pl.dma_elim = true; Pl.loop_tighten = true }
      cfg (lower_raw op p)
  in
  let bh = Imtp_passes.Branch_hoist.run pre in
  let m_pre = M.of_kernel (kernel pre) and m_bh = M.of_kernel (kernel bh) in
  Alcotest.(check bool)
    (Printf.sprintf "dynamic branches %.0f -> %.0f" m_pre.M.dynamic_branches
       m_bh.M.dynamic_branches)
    true
    (m_bh.M.dynamic_branches < m_pre.M.dynamic_branches);
  Alcotest.(check bool) "semantics" true (outputs bh op = outputs pre op)

let total op p config =
  let prog = Pl.run ~config cfg (lower_raw op p) in
  U.Stats.total_s (Imtp_tir.Cost.measure cfg prog)

let test_passes_improve_cost_monotonically () =
  let op = Ops.mtv 62 123 in
  let p = params ~c:8 () in
  let costs = List.map (fun (n, c) -> (n, total op p c)) Pl.ablations in
  match costs with
  | [ (_, none); (_, dma); (_, dma_lt); (_, all) ] ->
      Alcotest.(check bool) "dma helps" true (dma < none);
      Alcotest.(check bool) "lt no worse" true (dma_lt <= dma *. 1.001);
      Alcotest.(check bool) "bh no worse" true (all <= dma_lt *. 1.001)
  | _ -> Alcotest.fail "expected four ablations"

let test_aligned_shapes_unaffected_semantically () =
  (* On perfectly aligned shapes LT and BH are no-ops; DMA still
     vectorizes. Everything stays correct. *)
  let op = Ops.mtv 32 64 in
  let p = params ~c:8 () in
  check_semantics_all_ablations "aligned mtv" op p;
  let raw = lower_raw op p in
  let dma_only = Pl.run ~config:{ Pl.all_off with Pl.dma_elim = true } cfg raw in
  let all = Pl.run ~config:Pl.all_on cfg raw in
  let m1 = M.of_kernel (kernel dma_only) and m2 = M.of_kernel (kernel all) in
  Alcotest.(check (float 0.)) "same innermost iters"
    m1.M.innermost_iters m2.M.innermost_iters

let test_metrics_sanity () =
  let op = Ops.mtv 31 61 in
  let raw = lower_raw op (params ~c:8 ()) in
  let m = M.of_kernel (kernel raw) in
  Alcotest.(check bool) "has branches" true (m.M.static_branches > 0);
  Alcotest.(check bool) "has dmas" true (m.M.static_dmas > 0);
  Alcotest.(check bool) "dyn >= static" true
    (m.M.dynamic_branches >= float_of_int m.M.static_branches)

let prop_passes_preserve_semantics =
  QCheck2.Test.make ~name:"all ablations preserve semantics (random mtv)"
    ~count:20
    QCheck2.Gen.(
      quad (int_range 2 40) (int_range 2 40) (int_range 1 3) (int_range 2 8))
    (fun (n, k, t, c) ->
      let op = Imtp_workload.Ops.mtv n k in
      let p = params ~sd:4 ~t ~c () in
      let raw = lower_raw op p in
      let want = outputs raw op in
      List.for_all
        (fun (_, config) -> outputs (Pl.run ~config cfg raw) op = want)
        Pl.ablations)

let prop_dma_elim_never_slower =
  QCheck2.Test.make ~name:"dma elimination never slows a kernel" ~count:20
    QCheck2.Gen.(pair (int_range 8 200) (int_range 2 16))
    (fun (n, c) ->
      let op = Imtp_workload.Ops.va n in
      let p = params ~sd:2 ~t:2 ~c () in
      let raw = lower_raw op p in
      let opt = Imtp_passes.Dma_elim.run cfg raw in
      let t_raw = Imtp_tir.Cost.kernel_cycles cfg raw (kernel raw) in
      let t_opt = Imtp_tir.Cost.kernel_cycles cfg opt (kernel opt) in
      t_opt <= t_raw *. 1.001)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "passes"
    [
      ( "semantics",
        [
          Alcotest.test_case "va" `Quick test_semantics_va;
          Alcotest.test_case "red" `Quick test_semantics_red;
          Alcotest.test_case "mtv cols" `Quick test_semantics_mtv_misaligned_cols;
          Alcotest.test_case "mtv rows" `Quick test_semantics_mtv_misaligned_rows;
          Alcotest.test_case "mtv rfactor" `Quick test_semantics_mtv_rfactor;
          Alcotest.test_case "mmtv" `Quick test_semantics_mmtv;
          Alcotest.test_case "gemv fig8" `Quick test_semantics_gemv_fig8;
          Alcotest.test_case "gemm" `Quick test_semantics_gemm;
          Alcotest.test_case "mlp chain" `Quick test_semantics_mlp_chain;
          Alcotest.test_case "ragged gemv" `Quick test_semantics_ragged_gemv;
          Alcotest.test_case "ragged mmtv" `Quick test_semantics_ragged_mmtv;
          Alcotest.test_case "ragged rfactor" `Quick
            test_semantics_ragged_rfactor;
          Alcotest.test_case "aligned" `Quick
            test_aligned_shapes_unaffected_semantically;
        ] );
      ( "dma_elim",
        [
          Alcotest.test_case "vectorizes" `Quick test_dma_vectorizes;
          Alcotest.test_case "max size" `Quick test_dma_respects_max_size;
          Alcotest.test_case "fewer branches" `Quick test_dma_reduces_branches;
        ] );
      ( "loop_tighten+branch_hoist",
        [
          Alcotest.test_case "tighten cuts iterations" `Quick
            test_loop_tighten_cuts_iterations;
          Alcotest.test_case "hoist cuts branches" `Quick
            test_branch_hoist_reduces_dynamic_branches;
          Alcotest.test_case "cost monotone" `Quick
            test_passes_improve_cost_monotonically;
          Alcotest.test_case "metrics sanity" `Quick test_metrics_sanity;
        ] );
      ("properties", q [ prop_passes_preserve_semantics; prop_dma_elim_never_slower ]);
    ]
