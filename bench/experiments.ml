(* One experiment per table/figure of the paper's evaluation.  Each
   function prints the rows the paper reports; EXPERIMENTS.md records
   paper-vs-measured for every entry. *)

open Util

let sk ?(sd = 512) ?(rd = 1) ?(t = 16) ?(c = 64) ?(rows = 1) ?(ht = 1) () =
  {
    Imtp.Sketch.default_params with
    Imtp.Sketch.spatial_dpus = sd;
    reduction_dpus = rd;
    tasklets = t;
    cache_elems = c;
    rows_per_tasklet = rows;
    host_threads = ht;
  }

(* One shared engine for every experiment: repeated (op, params, passes)
   triples across figures are served from its cache.  [~verify:false]
   because several sweeps (Fig. 4 tile sizes, Fig. 12 ablations)
   deliberately step outside the verifier's hardware envelope. *)
let engine = Imtp.Engine.create cfg

let build_with passes op params =
  match Imtp.Engine.build engine ~passes ~verify:false op params with
  | Ok a -> a.Imtp.Engine.program
  | Error e -> failwith (Imtp.Engine.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Fig. 3 — boundary checks' impact on GEMV kernel execution time.     *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  heading "Fig. 3 — boundary checks' impact on GEMV kernel execution time";
  Printf.printf
    "(kernel-only time; 'checked' keeps the redundant boundary checks,\n\
     'optimized' eliminates them with the PIM-aware passes; paper: up to\n\
     23.7%% kernel speedup)\n\n";
  let pr = row_format [ 18; 14; 14; 10 ] in
  pr [ "GEMV shape"; "checked(ms)"; "optimized(ms)"; "speedup" ];
  let dma_only =
    { Imtp.Passes.all_off with Imtp.Passes.dma_elim = true }
  in
  List.iter
    (fun (n, k) ->
      let op = Imtp.Ops.gemv ~c:3 n k in
      let params = sk ~sd:256 ~t:12 ~c:16 () in
      let checked = build_with dma_only op params in
      let optimized = build_with Imtp.Passes.all_on op params in
      let tc = kernel_ms checked and topt = kernel_ms optimized in
      pr
        [
          Printf.sprintf "%dx%d" n k;
          Printf.sprintf "%.3f" tc;
          Printf.sprintf "%.3f" topt;
          x (tc /. topt);
        ])
    [ (1000, 999); (2000, 1999); (4000, 3999); (8000, 7999); (8192, 8191) ]

(* ------------------------------------------------------------------ *)
(* Fig. 4 — caching tile sizes, tiling schemes, number of DPUs.        *)
(* ------------------------------------------------------------------ *)

let fig4_shapes = [ (512, 512); (8192, 8192) ]

let fig4 () =
  heading "Fig. 4 — tile sizes, tiling schemes and DPU counts (GEMV)";

  subheading "(a) caching tile size vs kernel time (512 DPUs, 16 tasklets)";
  let pr = row_format [ 14; 12; 12 ] in
  pr [ "tile(bytes)"; "512x512"; "8192x8192" ];
  List.iter
    (fun c ->
      let cells =
        List.map
          (fun (n, k) ->
            let op = Imtp.Ops.gemv ~c:3 n k in
            let prog = build_with Imtp.Passes.all_on op (sk ~sd:512 ~t:16 ~c ()) in
            Printf.sprintf "%.3f" (kernel_ms prog))
          fig4_shapes
      in
      pr (Printf.sprintf "%d" (c * 4) :: cells))
    [ 8; 16; 32; 64; 128; 256; 512 ];

  subheading
    "(a') caching tile size vs kernel time, VA 2^18 on 2048 DPUs (the \
     paper's small-tile effect: PrIM's 1,024 B guide value under-fills \
     tasklets on small per-DPU slices)";
  let pr = row_format [ 14; 12; 16 ] in
  pr [ "tile(bytes)"; "kernel(ms)"; "tasklets busy" ];
  List.iter
    (fun c ->
      let op = Imtp.Ops.va (1 lsl 18) in
      let prog = build_with Imtp.Passes.all_on op (sk ~sd:2048 ~t:16 ~c ()) in
      pr
        [
          Printf.sprintf "%d" (c * 4);
          Printf.sprintf "%.4f" (kernel_ms prog);
          string_of_int (Imtp.Program.tasklets_used prog);
        ])
    [ 4; 8; 16; 32; 64; 128; 256 ];

  subheading "(b) inter-DPU tiling scheme vs phase times (8192x8192)";
  let pr = row_format [ 22; 12; 12; 12; 12 ] in
  pr [ "scheme"; "h2d(ms)"; "kernel(ms)"; "d2h(ms)"; "host(ms)" ];
  List.iter
    (fun (label, params) ->
      let op = Imtp.Ops.gemv ~c:3 8192 8192 in
      let prog = build_with Imtp.Passes.all_on op params in
      let s = Imtp.estimate prog in
      pr
        [
          label;
          ms s.Imtp.Stats.h2d_s;
          ms s.Imtp.Stats.kernel_s;
          ms s.Imtp.Stats.d2h_s;
          ms (s.Imtp.Stats.host_s +. s.Imtp.Stats.launch_s);
        ])
    [
      ("1D (512,1)", sk ~sd:512 ~rd:1 ~t:16 ~c:64 ());
      ("2D (512,4)", sk ~sd:512 ~rd:4 ~t:16 ~c:64 ~ht:16 ());
      ("2D (256,8)", sk ~sd:256 ~rd:8 ~t:16 ~c:64 ~ht:16 ());
      ("2D (128,16)", sk ~sd:128 ~rd:16 ~t:16 ~c:64 ~ht:16 ());
      ("2D (64,32)", sk ~sd:64 ~rd:32 ~t:16 ~c:64 ~ht:16 ());
    ];

  subheading "(c) number of DPUs vs total time (PrIM-style 1D tiling)";
  let pr = row_format [ 10; 12; 12 ] in
  pr [ "#DPUs"; "512x512"; "8192x8192" ];
  List.iter
    (fun ndpus ->
      let cells =
        List.map
          (fun (n, k) ->
            let op = Imtp.Ops.gemv ~c:3 n k in
            match Imtp.Prim.measure cfg op { Imtp.Prim.default with Imtp.Prim.ndpus } with
            | Ok s -> ms (total s)
            | Error _ -> "n/a")
          fig4_shapes
      in
      pr (string_of_int ndpus :: cells))
    [ 64; 128; 256; 512; 1024; 2048 ]

(* ------------------------------------------------------------------ *)
(* Fig. 9 / §7.1 — autotuned tensor programs vs baselines.             *)
(* ------------------------------------------------------------------ *)

type fig9_row = {
  label : string;
  op : Imtp.Op.t;
  spim_applicable : bool;
}

let fig9_cases () =
  [
    { label = "VA(a) 2^18"; op = Imtp.Ops.va (1 lsl 18); spim_applicable = true };
    { label = "VA(b) 2^24"; op = Imtp.Ops.va (1 lsl 24); spim_applicable = true };
    { label = "RED(a) 2^18"; op = Imtp.Ops.red (1 lsl 18); spim_applicable = true };
    { label = "RED(b) 2^24"; op = Imtp.Ops.red (1 lsl 24); spim_applicable = true };
    { label = "MTV(a) 512x512"; op = Imtp.Ops.mtv 512 512; spim_applicable = false };
    { label = "MTV(b) 8192x8192"; op = Imtp.Ops.mtv 8192 8192; spim_applicable = false };
    { label = "TTV(a) 32x64x128"; op = Imtp.Ops.ttv 32 64 128; spim_applicable = false };
    {
      label = "TTV(b) 128x256x512";
      op = Imtp.Ops.ttv 128 256 512;
      spim_applicable = false;
    };
    {
      label = "MMTV(a) 16x64x256";
      op = Imtp.Ops.mmtv 16 64 256;
      spim_applicable = false;
    };
    {
      label = "MMTV(b) 64x512x256";
      op = Imtp.Ops.mmtv 64 512 256;
      spim_applicable = false;
    };
    {
      label = "GEVA(a) 2^20";
      op = Imtp.Ops.geva ~c:3 ~d:2 (1 lsl 18);
      spim_applicable = true;
    };
    {
      label = "GEVA(b) 2^25";
      op = Imtp.Ops.geva ~c:3 ~d:2 (1 lsl 24);
      spim_applicable = true;
    };
    { label = "GEMV(a) 512x512"; op = Imtp.Ops.gemv ~c:3 512 512; spim_applicable = false };
    {
      label = "GEMV(b) 8192x8192";
      op = Imtp.Ops.gemv ~c:3 8192 8192;
      spim_applicable = false;
    };
  ]

let fig9 () =
  heading "Fig. 9 / §7.1 — autotuned tensor programs vs baselines (total ms)";
  let pr = row_format [ 20; 10; 10; 10; 11; 10; 26 ] in
  pr [ "workload"; "PrIM"; "PrIM(E)"; "PrIM+s"; "SimplePIM"; "IMTP"; "speedup P/E/S" ];
  let sp_prim = ref [] and sp_prime = ref [] and sp_search = ref [] in
  let sp_spim = ref [] in
  List.iter
    (fun c ->
      let p0 = prim c.op in
      let _, pe = prim_e c.op in
      let _, ps = prim_search c.op in
      let spim = if c.spim_applicable then Result.to_option (simplepim c.op) else None in
      let tuned = tune c.op in
      let it = total tuned.Imtp.Tuner.stats in
      sp_prim := (total p0 /. it) :: !sp_prim;
      sp_prime := (total pe /. it) :: !sp_prime;
      sp_search := (total ps /. it) :: !sp_search;
      (match spim with
      | Some s -> sp_spim := (total s /. it) :: !sp_spim
      | None -> ());
      pr
        [
          c.label;
          ms (total p0);
          ms (total pe);
          ms (total ps);
          (match spim with Some s -> ms (total s) | None -> "-");
          ms it;
          Printf.sprintf "  %s %s %s"
            (x (total p0 /. it))
            (x (total pe /. it))
            (x (total ps /. it));
        ])
    (fig9_cases ());
  Printf.printf
    "\nsummary (geomean IMTP speedup): vs PrIM %s (paper avg 3.05x), vs \
     PrIM(E) %s (1.48x), vs PrIM+search %s (1.67x), vs SimplePIM %s (3.3x)\n"
    (x (geomean !sp_prim))
    (x (geomean !sp_prime))
    (x (geomean !sp_search))
    (x (geomean !sp_spim))

(* ------------------------------------------------------------------ *)
(* Table 3 — default vs searched parameters.                           *)
(* ------------------------------------------------------------------ *)

let table3 () =
  heading "Table 3 — default and searched parameters";
  let pr = row_format [ 20; 26; 34 ] in
  pr [ "workload"; "PrIM+search (d,t,cB)"; "IMTP (sd,rd,t,cache,rows,ht)" ];
  List.iter
    (fun c ->
      let ps, _ = prim_search c.op in
      let tuned = tune c.op in
      let p = tuned.Imtp.Tuner.params in
      pr
        [
          c.label;
          Printf.sprintf "(%d,%d,%dB)" ps.Imtp.Prim.ndpus ps.Imtp.Prim.tasklets
            ps.Imtp.Prim.cache_bytes;
          Printf.sprintf "(%d,%d,%d,%dB,%d,%d)" p.Imtp.Sketch.spatial_dpus
            p.Imtp.Sketch.reduction_dpus p.Imtp.Sketch.tasklets
            (p.Imtp.Sketch.cache_elems * 4)
            p.Imtp.Sketch.rows_per_tasklet p.Imtp.Sketch.host_threads;
        ])
    (fig9_cases ())

(* ------------------------------------------------------------------ *)
(* Fig. 10 — GPT-J FC (MTV) and MMTV layers, normalized to PrIM.       *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  heading "Fig. 10 — GPT-J MHA layers (latency normalized to PrIM)";

  subheading "(a) FC (MTV) kernels (weight matrix resident in MRAM, §5.4)";
  let pr = row_format [ 28; 10; 13; 12; 10 ] in
  pr [ "kernel"; "PrIM(ms)"; "PrIM+s/PrIM"; "IMTP/PrIM"; "speedup" ];
  let best = ref 0. in
  List.iter
    (fun model ->
      List.iter
        (fun kind ->
          let op = Imtp.Gptj.fc_op model kind in
          let rows, cols = Imtp.Gptj.fc_shape model kind in
          let resident = [ "A" ] in
          let p0 =
            total
              (Result.get_ok
                 (Imtp.Prim.measure ~skip_inputs:resident cfg op
                    (Imtp.Prim.default_for op)))
          in
          let ps =
            (* grid search with resident weights *)
            let best = ref infinity in
            List.iter
              (fun ndpus ->
                List.iter
                  (fun t ->
                    List.iter
                      (fun cb ->
                        match
                          Imtp.Prim.measure ~skip_inputs:resident cfg op
                            { Imtp.Prim.default with Imtp.Prim.ndpus; tasklets = t; cache_bytes = cb }
                        with
                        | Ok s -> if total s < !best then best := total s
                        | Error _ -> ())
                      [ 64; 256; 1024 ])
                  [ 8; 16; 24 ])
              [ 256; 512; 1024; 2048 ];
            !best
          in
          let tuned =
            match Imtp.autotune ~trials:128 ~seed:2025 ~skip_inputs:resident op with
            | Ok r -> r
            | Error m -> failwith m
          in
          let it = total tuned.Imtp.Tuner.stats in
          if p0 /. it > !best then best := p0 /. it;
          pr
            [
              Printf.sprintf "%s %s %dx%d" (Imtp.Gptj.model_name model)
                (Imtp.Gptj.fc_kind_name kind) rows cols;
              ms p0;
              Printf.sprintf "%.3f" (ps /. p0);
              Printf.sprintf "%.3f" (it /. p0);
              x (p0 /. it);
            ])
        Imtp.Gptj.fc_kinds)
    [ Imtp.Gptj.Gptj_6b; Imtp.Gptj.Gptj_30b ];
  Printf.printf "\nmax MTV speedup vs PrIM: %s (paper: up to 8.21x)\n" (x !best);

  subheading "(b) MMTV kernels (batch x heads, tokens, 256)";
  let pr = row_format [ 28; 10; 13; 12; 10 ] in
  pr [ "kernel"; "PrIM(ms)"; "PrIM+s/PrIM"; "IMTP/PrIM"; "speedup" ];
  let gains = ref [] in
  List.iter
    (fun model ->
      List.iter
        (fun batch ->
          List.iter
            (fun tokens ->
              let op = Imtp.Gptj.mmtv_op model ~batch ~tokens in
              let p0 = total (prim op) in
              let _, ps = prim_search op in
              let tuned = tune ~trials:256 op in
              let it = total tuned.Imtp.Tuner.stats in
              gains := ((total ps /. it) -. 1.) :: !gains;
              pr
                [
                  Printf.sprintf "%s b=%d T=%d" (Imtp.Gptj.model_name model)
                    batch tokens;
                  ms p0;
                  Printf.sprintf "%.3f" (total ps /. p0);
                  Printf.sprintf "%.3f" (it /. p0);
                  x (p0 /. it);
                ])
            Imtp.Gptj.token_sizes)
        Imtp.Gptj.batches)
    [ Imtp.Gptj.Gptj_6b; Imtp.Gptj.Gptj_30b ];
  let mn = List.fold_left Float.min infinity !gains in
  let mx = List.fold_left Float.max neg_infinity !gains in
  Printf.printf
    "\nMMTV gain over PrIM+search: %s .. %s (paper: 7.24%% .. 69.1%%)\n"
    (pct mn) (pct mx)

(* ------------------------------------------------------------------ *)
(* Fig. 11 — MMTV speedup vs spatial-dimension size.                   *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  heading "Fig. 11 — IMTP speedup for MMTV vs spatial-dimension size";
  Printf.printf
    "(reduction dim fixed at 256; paper: large speedups below ~10,000,\n\
     plateau above)\n\n";
  let pr = row_format [ 14; 12; 12; 10 ] in
  pr [ "spatial size"; "PrIM+s(ms)"; "IMTP(ms)"; "speedup" ];
  List.iter
    (fun (b, n) ->
      let op = Imtp.Ops.mmtv b n 256 in
      let _, ps = prim_search op in
      let tuned = tune ~trials:256 op in
      let it = total tuned.Imtp.Tuner.stats in
      pr
        [
          string_of_int (b * n);
          ms (total ps);
          ms it;
          x (total ps /. it);
        ])
    [
      (8, 64); (16, 64); (16, 128); (16, 256); (32, 256); (64, 256);
      (64, 512); (128, 512); (256, 512);
    ]

(* ------------------------------------------------------------------ *)
(* Fig. 12 — PIM-aware optimization ablation.                          *)
(* ------------------------------------------------------------------ *)

let fig12 () =
  heading "Fig. 12 — PIM-aware optimizations (kernel time, normalized to PrIM)";
  Printf.printf
    "(paper: DMA gives the largest gain; all three reach up to 14.7%% on\n\
     MTV and 20.5%% on VA over hand-tuned PrIM)\n\n";
  let pr = row_format [ 24; 10; 10; 10; 10; 12 ] in
  pr [ "workload"; "none"; "dma"; "dma+lt"; "dma+lt+bh"; "vs PrIM" ];
  let cases =
    [
      ("(a) MTV 2048x1000 cols", `Mtv (2048, 1000), sk ~sd:512 ~t:16 ~c:256 ());
      ("(b) MTV 2001x1024 rows", `Mtv (2001, 1024), sk ~sd:512 ~t:16 ~c:256 ());
      ("(c) MTV 1999x1999 both", `Mtv (1999, 1999), sk ~sd:512 ~t:16 ~c:256 ());
      ("(d) VA 2^22+3", `Va ((1 lsl 22) + 3), sk ~sd:2048 ~t:16 ~c:256 ());
    ]
  in
  List.iter
    (fun (label, shape, params) ->
      let op =
        match shape with
        | `Mtv (n, k) -> Imtp.Ops.mtv n k
        | `Va n -> Imtp.Ops.va n
      in
      let prim_kernel =
        match Imtp.Prim.build cfg op (Imtp.Prim.default_for op) with
        | Ok prog -> kernel_ms prog
        | Error m -> failwith m
      in
      let times =
        List.map
          (fun (_, config) -> kernel_ms (build_with config op params))
          Imtp.Passes.ablations
      in
      match times with
      | [ none; dma; lt; bh ] ->
          pr
            [
              label;
              Printf.sprintf "%.2f" (none /. prim_kernel);
              Printf.sprintf "%.2f" (dma /. prim_kernel);
              Printf.sprintf "%.2f" (lt /. prim_kernel);
              Printf.sprintf "%.2f" (bh /. prim_kernel);
              pct ((prim_kernel /. bh) -. 1.);
            ]
      | _ -> ())
    cases

(* ------------------------------------------------------------------ *)
(* Fig. 13 — balanced evolutionary search convergence.                 *)
(* ------------------------------------------------------------------ *)

let fig13_strategies =
  [
    ("tvm-default", Imtp.Search.tvm_default);
    ("balanced-only", { Imtp.Search.tvm_default with Imtp.Search.balanced_sampling = true });
    ("epsilon-only", { Imtp.Search.tvm_default with Imtp.Search.adaptive_epsilon = true });
    ("imtp (both)", Imtp.Search.imtp_default);
  ]

let fig13 ?(trials = 400) ?(op = Imtp.Ops.mmtv 112 512 256) () =
  heading "Fig. 13 — balanced sampling + adaptive epsilon-greedy convergence";
  Printf.printf
    "(best latency found so far, sampled across %d trials; paper: the\n\
     combination converges to a ~21%% better result; in this reproduction\n\
     the smaller parameter space compresses the final gap, but the\n\
     convergence-speed ordering is preserved)\n\n"
    trials;
  let checkpoints = [ 5; 10; 20; 40; 70; 100 ] in
  let pr = row_format [ 16; 10; 10; 10; 10; 10; 10; 12 ] in
  pr
    ("strategy"
    :: List.map (fun p -> Printf.sprintf "@%d%%" p) checkpoints
    @ [ "final(ms)" ]);
  let seeds = [ 3; 17; 29 ] in
  let finals = ref [] in
  List.iter
    (fun (name, strategy) ->
      (* average best-so-far over seeds at each checkpoint *)
      let runs =
        List.map (fun seed -> Imtp.Search.run ~strategy ~seed cfg op ~trials) seeds
      in
      let best_at frac =
        let cut = int_of_float (frac *. float_of_int trials) in
        geomean
          (List.filter_map
             (fun o ->
               let rec last acc = function
                 | [] -> acc
                 | r :: rest ->
                     if r.Imtp.Search.trial <= cut then
                       last (Some r.Imtp.Search.best_so_far) rest
                     else acc
               in
               last None o.Imtp.Search.history)
             runs)
      in
      let final = best_at 1.0 in
      finals := (name, final) :: !finals;
      pr
        (name
        :: List.map
             (fun p -> ms (best_at (float_of_int p /. 100.)))
             checkpoints
        @ [ ms final ]))
    fig13_strategies;
  match (List.assoc_opt "tvm-default" !finals, List.assoc_opt "imtp (both)" !finals) with
  | Some tvm, Some imtp ->
      Printf.printf "\nimtp (both) vs tvm-default at convergence: %s better\n"
        (pct ((tvm /. imtp) -. 1.))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* §8 — autotuning overheads.                                          *)
(* ------------------------------------------------------------------ *)

let overhead () =
  heading "§8 — autotuning overhead per trial";
  Printf.printf
    "(wall-clock per measured trial; 'UPMEM' includes host transfer and\n\
     DPU allocation modeling, 'kernel-only' mimics CPU-style tuning where\n\
     only the compute kernel is timed.  Paper: +20%% for MTV, +5%% for\n\
     MMTV.)\n\n";
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let pr = row_format [ 10; 16; 18; 10 ] in
  pr [ "op"; "UPMEM(ms/trial)"; "kernel-only(ms)"; "overhead" ];
  List.iter
    (fun (name, op) ->
      let trials = 60 in
      let o, t_full =
        time (fun () -> Imtp.Search.run ~seed:5 cfg op ~trials)
      in
      (* kernel-only: same search but timing just candidate build +
         kernel cost, via a machine without transfer modeling. *)
      let rng = Imtp.Rng.create ~seed:5 in
      let _, t_kernel =
        time (fun () ->
            for _ = 1 to o.Imtp.Search.measured do
              let p = Imtp.Sketch.random rng cfg op in
              match Imtp.Measure.build cfg op p with
              | Ok prog -> ignore (kernel_cycles prog)
              | Error _ -> ()
            done)
      in
      let per_full = t_full /. float_of_int (max 1 o.Imtp.Search.measured) in
      let per_kernel = t_kernel /. float_of_int (max 1 o.Imtp.Search.measured) in
      pr
        [
          name;
          Printf.sprintf "%.2f" (per_full *. 1e3);
          Printf.sprintf "%.2f" (per_kernel *. 1e3);
          pct ((per_full /. per_kernel) -. 1.);
        ])
    [ ("MTV", Imtp.Ops.mtv 2048 2048); ("MMTV", Imtp.Ops.mmtv 32 256 256) ]

(* ------------------------------------------------------------------ *)
(* Table 1 — feature matrix (qualitative).                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  heading "Table 1 — features supported by UPMEM software stacks";
  let pr = row_format [ 34; 8; 11; 7; 7 ] in
  pr [ "feature"; "PrIM"; "SimplePIM"; "CINM"; "IMTP" ];
  List.iter
    (fun r -> pr r)
    [
      [ "Programming at abstract level"; "low"; "high"; "high"; "high" ];
      [ "High-dimensional support"; "x"; "x"; "o"; "o" ];
      [ "Inter-DPU optimization"; "x"; "x"; "o"; "o" ];
      [ "Intra-DPU optimization"; "o"; "x"; "o"; "o" ];
      [ "PIM-aware optimization"; "o"; "o"; "-"; "o" ];
      [ "Autotuning support"; "x"; "x"; "x"; "o" ];
    ];
  Printf.printf
    "\n(this repository implements the PrIM and SimplePIM rows as baselines\n\
     and the IMTP column as the core system)\n"

(* ------------------------------------------------------------------ *)
(* Extra ablation: joint host+kernel space vs kernel-only tuning.      *)
(* ------------------------------------------------------------------ *)

let joint () =
  heading "Ablation — joint host+kernel search space vs kernel-only tuning";
  Printf.printf
    "(kernel-only freezes the host-side distribution at the PrIM default\n\
     and tunes only intra-DPU parameters; the joint space is §5.2.3's\n\
     motivation)\n\n";
  let pr = row_format [ 20; 14; 14; 10 ] in
  pr [ "workload"; "kernel-only(ms)"; "joint(ms)"; "gain" ];
  List.iter
    (fun (label, op) ->
      (* kernel-only: grid over tasklets x cache at fixed distribution *)
      let best_kernel_only = ref infinity in
      List.iter
        (fun t ->
          List.iter
            (fun c ->
              let p = sk ~sd:2048 ~rd:1 ~t ~c () in
              match Imtp.Measure.measure cfg op p with
              | Ok r ->
                  if r.Imtp.Measure.latency_s < !best_kernel_only then
                    best_kernel_only := r.Imtp.Measure.latency_s
              | Error _ -> ())
            [ 8; 16; 32; 64; 128; 256 ])
        [ 4; 8; 16; 24 ];
      let tuned = tune op in
      let it = total tuned.Imtp.Tuner.stats in
      pr
        [
          label;
          ms !best_kernel_only;
          ms it;
          x (!best_kernel_only /. it);
        ])
    [
      ("MTV 8192x8192", Imtp.Ops.mtv 8192 8192);
      ("GEMV 512x512", Imtp.Ops.gemv ~c:3 512 512);
      ("MMTV 16x64x256", Imtp.Ops.mmtv 16 64 256);
    ]

(* ------------------------------------------------------------------ *)
(* Extension — datatype sweep (the PrIM suite evaluates INT8/INT32/    *)
(* FLOAT; DPUs have no FPU, so float32 is software-emulated).          *)
(* ------------------------------------------------------------------ *)

let dtypes () =
  heading "Extension — datatype sweep (int8 / int32 / float32)";
  Printf.printf
    "(int8 moves 4x fewer bytes and multiplies natively on the 8x8\n\
     multiplier; float32 is software-emulated on the FPU-less DPU)\n\n";
  let pr = row_format [ 20; 12; 12; 12 ] in
  pr [ "workload"; "int8(ms)"; "int32(ms)"; "float32(ms)" ];
  List.iter
    (fun (label, mk) ->
      let t dt =
        let op = mk dt in
        let prog = build_with Imtp.Passes.all_on op (sk ~sd:512 ~t:16 ~c:64 ()) in
        total (Imtp.estimate prog)
      in
      pr
        [
          label;
          ms (t Imtp.Dtype.I8);
          ms (t Imtp.Dtype.I32);
          ms (t Imtp.Dtype.F32);
        ])
    [
      ("VA 2^22", fun dt -> Imtp.Ops.va ~dtype:dt (1 lsl 22));
      ("MTV 2048x2048", fun dt -> Imtp.Ops.mtv ~dtype:dt 2048 2048);
      ("GEMV 4096x4096", fun dt -> Imtp.Ops.gemv ~dtype:dt ~c:3 4096 4096);
    ]

(* ------------------------------------------------------------------ *)
(* Ablation — cost-model guidance of the evolutionary search.          *)
(* ------------------------------------------------------------------ *)

let costmodel () =
  heading "Ablation — cost-model guidance of the evolutionary search";
  Printf.printf
    "(Fig. 5's search is guided by a learned cost model that ranks\n\
     mutations before measuring; this ablation disables it.  Geomean\n\
     best over 3 seeds.)\n\n";
  let pr = row_format [ 20; 12; 14; 14 ] in
  pr [ "workload"; "trials"; "guided(ms)"; "unguided(ms)" ];
  List.iter
    (fun (label, op, trials) ->
      let best use_cost_model seed =
        let o = Imtp.Search.run ~seed ~use_cost_model cfg op ~trials in
        match o.Imtp.Search.best with
        | Some b -> b.Imtp.Measure.latency_s
        | None -> nan
      in
      let gm f = geomean (List.map f [ 3; 17; 29 ]) in
      pr
        [
          label;
          string_of_int trials;
          ms (gm (best true));
          ms (gm (best false));
        ])
    [
      ("MTV 2048x8192", Imtp.Ops.mtv 2048 8192, 96);
      ("MMTV 64x256x256", Imtp.Ops.mmtv 64 256 256, 96);
      ("GEMV 512x512", Imtp.Ops.gemv ~c:3 512 512, 96);
    ]

(* ------------------------------------------------------------------ *)
(* Fig. 7 ablation — data-transfer code generation.                    *)
(* ------------------------------------------------------------------ *)

let transfer () =
  heading "Fig. 7 ablation — data-transfer code generation";
  Printf.printf
    "(the three generation strategies of Fig. 7: per-element transfers,\n\
     bulk-coalesced transfers, and bank-parallel push transfers; total\n\
     latency per strategy)\n\n";
  let pr = row_format [ 20; 14; 14; 14 ] in
  pr [ "workload"; "naive(ms)"; "+bulk(ms)"; "+bank-parallel" ];
  let build op params (options : Imtp.Lowering.options) =
    let sched = Imtp.Sketch.instantiate op params in
    let prog = Imtp.compile ~config:cfg ~options sched in
    total (Imtp.estimate ~config:cfg prog)
  in
  List.iter
    (fun (label, op, params) ->
      let base = Imtp.Lowering.default_options in
      let naive =
        build op params
          { base with Imtp.Lowering.bulk_transfer = false; parallel_transfer = false }
      in
      let bulk =
        build op params
          { base with Imtp.Lowering.bulk_transfer = true; parallel_transfer = false }
      in
      let parallel =
        build op params
          { base with Imtp.Lowering.bulk_transfer = true; parallel_transfer = true }
      in
      pr [ label; ms naive; ms bulk; ms parallel ])
    [
      ("VA 2^20", Imtp.Ops.va (1 lsl 20), sk ~sd:2048 ~t:16 ~c:64 ());
      ("MTV 2048x2048", Imtp.Ops.mtv 2048 2048, sk ~sd:512 ~t:16 ~c:64 ());
      ( "GEMV 2048x2048 2D",
        Imtp.Ops.gemv ~c:3 2048 2048,
        sk ~sd:256 ~rd:8 ~t:16 ~c:64 ~ht:16 () );
    ]

(* ------------------------------------------------------------------ *)
(* §8 prototype — HBM-PIM backend.                                     *)
(* ------------------------------------------------------------------ *)

let hbm () =
  heading "§8 prototype — HBM-PIM backend (code generation + validation)";
  Printf.printf
    "(the paper validated a prototype IMTP extension for HBM-PIM on the\n\
     vendor simulator; here: command-stream codegen, functional\n\
     validation against the reference, and command-level timing vs the\n\
     UPMEM backend)\n\n";
  let hcfg = Imtp.Hbm_pim.default_config in
  let pr = row_format [ 20; 34; 12; 12 ] in
  pr [ "workload"; "command stream"; "HBM-PIM(ms)"; "UPMEM(ms)" ];
  List.iter
    (fun (label, op) ->
      match Imtp.Hbm_pim.compile hcfg op with
      | Error m -> Printf.printf "%-20s unsupported: %s\n" label m
      | Ok prog ->
          let upmem = total (tune ~trials:64 op).Imtp.Tuner.stats in
          pr
            [
              label;
              Printf.sprintf "%d units x %d cmds"
                (Imtp.Hbm_pim.units_used prog)
                (Imtp.Hbm_pim.commands_per_unit prog);
              ms (Imtp.Hbm_pim.estimate_seconds prog);
              ms upmem;
            ])
    [
      ("VA 2^20", Imtp.Ops.va (1 lsl 20));
      ("GEVA 2^20", Imtp.Ops.geva ~c:3 ~d:2 (1 lsl 20));
      ("MTV 4096x4096", Imtp.Ops.mtv 4096 4096);
      ("GEMV 8192x8192", Imtp.Ops.gemv ~c:3 8192 8192);
    ];
  (* functional validation on small shapes *)
  let validate op =
    match Imtp.Hbm_pim.compile hcfg op with
    | Error m -> failwith m
    | Ok prog ->
        let inputs = Imtp.Ops.random_inputs op in
        let got = Imtp.Hbm_pim.execute prog inputs in
        let want = Imtp.Op.reference op inputs in
        Imtp.Tensor.to_value_list got = Imtp.Tensor.to_value_list want
  in
  Printf.printf "\nfunctional validation (VA 1000, GEMV 123x77): %s\n"
    (if validate (Imtp.Ops.va 1000) && validate (Imtp.Ops.gemv ~c:3 123 77)
     then "OK" else "MISMATCH")

let all () =
  table1 ();
  fig3 ();
  fig4 ();
  fig9 ();
  table3 ();
  fig10 ();
  fig11 ();
  fig12 ();
  fig13 ();
  overhead ();
  joint ();
  transfer ();
  costmodel ();
  dtypes ();
  hbm ()
