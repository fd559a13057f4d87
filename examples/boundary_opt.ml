(* A walkthrough of the paper's Fig. 8: the PIM-aware boundary-check
   optimizations applied step by step to a misaligned GEMV kernel.

   The running example is a 7x40 GEMV processed two rows at a time with
   16-element caching tiles (a 2x16 tiling pattern), single-tasklet —
   misaligned on both the row axis (7 vs 8 covered) and the column axis
   (40 vs 48 covered), so boundary conditions appear on both axes.

   For each optimization stage we print the kernel TIR and the Fig. 8
   instrumentation row: number of (dynamic) branches, DMA transfers and
   innermost-loop executions.

   Run with:  dune exec examples/boundary_opt.exe *)

let cfg = Imtp.default_config

let op = Imtp.Ops.gemv ~c:1 7 40

let params =
  {
    Imtp.Sketch.default_params with
    Imtp.Sketch.spatial_dpus = 4;  (* 4 DPUs x 1 tasklet x 2 rows = 8 >= 7 *)
    tasklets = 1;
    cache_elems = 16;
    reduction_dpus = 1;
    rows_per_tasklet = 2;
  }

let show stage prog =
  let k = List.hd prog.Imtp.Program.kernels in
  let m = Imtp.Pass_metrics.of_kernel k in
  Format.printf "=== %s ===@." stage;
  Format.printf "%s@." (Imtp.Printer.stmt_to_string k.Imtp.Program.body);
  Format.printf ">> %a@." Imtp.Pass_metrics.pp m;
  Format.printf ">> kernel cycles: %.0f@.@."
    (Imtp.Cost.kernel_cycles cfg prog k);
  m

let validate prog =
  let inputs = Imtp.Ops.random_inputs op in
  let outs = Imtp.execute ~inputs prog op in
  Imtp.Tensor.to_value_list (List.assoc "C" outs)
  = Imtp.Tensor.to_value_list (Imtp.Op.reference op inputs)

let () =
  Format.printf
    "Fig. 8 walkthrough: 7x40 GEMV, 2x16 tiles, one tasklet per DPU@.@.";
  let sched = Imtp.Sketch.instantiate op params in
  let raw = Imtp.Lowering.lower ~options:Imtp.Lowering.default_options sched in

  let m0 = show "(a) lowered kernel (per-element guarded DMA)" raw in
  let dma = Imtp.Dma_elim.run cfg raw in
  let m1 = show "(b) + DMA-aware boundary-check elimination" dma in
  let lt = Imtp.Loop_tighten.run dma in
  let m2 = show "(c) + loop-bound tightening" lt in
  let bh = Imtp.Branch_hoist.run lt in
  let m3 = show "(d) + invariant branch hoisting (with PDE)" bh in

  (* every stage stays semantically equal to the operator definition *)
  List.iter
    (fun (stage, prog) ->
      if not (validate prog) then begin
        Format.printf "MISMATCH at stage %s@." stage;
        exit 1
      end)
    [ ("a", raw); ("b", dma); ("c", lt); ("d", bh) ];
  Format.printf "all four stages validated bit-exact.@.@.";

  Format.printf "Fig. 8 instrumentation table:@.";
  Format.printf "%-42s %10s %8s %12s@." "stage" "branches" "DMAs" "inner iters";
  List.iter
    (fun (stage, (m : Imtp.Pass_metrics.t)) ->
      Format.printf "%-42s %10.0f %8.0f %12.0f@." stage m.Imtp.Pass_metrics.dynamic_branches
        m.Imtp.Pass_metrics.dynamic_dmas m.Imtp.Pass_metrics.innermost_iters)
    [
      ("(a) lowered", m0);
      ("(b) +dma elimination", m1);
      ("(c) +loop tightening", m2);
      ("(d) +branch hoisting", m3);
    ]
