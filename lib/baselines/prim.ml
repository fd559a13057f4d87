module Op = Imtp_workload.Op
module Sk = Imtp_engine.Sketch
module E = Imtp_tir.Expr
module St = Imtp_tir.Stmt
module B = Imtp_tir.Buffer
module V = Imtp_tir.Var
module P = Imtp_tir.Program
module U = Imtp_upmem

type params = {
  ndpus : int;
  tasklets : int;
  cache_bytes : int;
  host_threads : int;
}

let default = { ndpus = 2048; tasklets = 16; cache_bytes = 1024; host_threads = 1 }

(* Table 3 "PrIM/PrIM(E) # DPUs" row: the PrIM suite's shipped NR_DPUS
   defaults are workload-dependent. *)
let default_for (op : Imtp_workload.Op.t) =
  match op.Imtp_workload.Op.opname with
  | "va" | "geva" -> default
  | "red" -> { default with ndpus = 512 }
  | "mtv" | "gemv" -> { default with ndpus = 512 }
  | "ttv" -> { default with ndpus = 1024 }
  | "mmtv" -> { default with ndpus = 1024 }
  | _ -> default

(* PrIM is hand-optimized C: block DMA transfers, but no systematic
   loop-bound tightening or branch hoisting. *)
let prim_passes =
  { Imtp_passes.Pipeline.all_off with Imtp_passes.Pipeline.dma_elim = true }

let ceil_div a b = (a + b - 1) / b
let ei = E.int

(* --- dedicated RED builder: per-tasklet partials shipped to host ----- *)

let red_program (op : Op.t) p =
  let n = (List.hd op.Op.axes).Op.extent in
  let cache = max 2 (p.cache_bytes / 4) in
  let ndpus = max 1 (min p.ndpus n) in
  let t = p.tasklets in
  (* q: valid elements per DPU (host layout); the MRAM slice is padded
     to whole caching blocks, leaving trailing tasklets idle when the
     quota is smaller than t*cache — exactly PrIM's behaviour with its
     fixed 1,024 B blocks. *)
  let q = ceil_div n ndpus in
  let chunks = max 1 (ceil_div q (t * cache)) in
  let slice = chunks * t * cache in
  let a = B.create "A" op.Op.dtype ~elems:n B.Host in
  let c = B.create "C" op.Op.dtype ~elems:1 B.Host in
  let part = B.create "P_partial" op.Op.dtype ~elems:(ndpus * t) B.Host in
  let am = B.create "A_m" op.Op.dtype ~elems:slice B.Mram in
  let cm = B.create "C_m" op.Op.dtype ~elems:t B.Mram in
  let acc = B.create "acc_w" op.Op.dtype ~elems:1 B.Wram in
  let aw = B.create "A_w" op.Op.dtype ~elems:cache B.Wram in
  let blk = V.fresh "blk"
  and thr = V.fresh "thr"
  and ch = V.fresh "ch"
  and e1 = V.fresh "e"
  and e2 = V.fresh "e2" in
  let local ev chv =
    E.Binop
      ( E.Add,
        E.Binop
          ( E.Mul,
            E.Binop (E.Add, E.Binop (E.Mul, E.var thr, ei chunks), E.var chv),
            ei cache ),
        E.var ev )
  in
  let global ev chv = E.Binop (E.Add, E.Binop (E.Mul, E.var blk, ei q), local ev chv) in
  (* an element is valid if within this DPU's quota and the tensor. *)
  let valid ev chv =
    E.and_
      (E.Cmp (E.Lt, local ev chv, ei q))
      (E.Cmp (E.Lt, global ev chv, ei n))
  in
  let kernel_body =
    St.For
      {
        var = blk;
        extent = ei ndpus;
        kind = St.Bound St.Block_x;
        body =
          St.For
            {
              var = thr;
              extent = ei t;
              kind = St.Bound St.Thread_x;
              body =
                St.Alloc
                  {
                    buffer = acc;
                    body =
                      St.seq
                        [
                          St.store "acc_w" (ei 0) (ei 0);
                          St.For
                            {
                              var = ch;
                              extent = ei chunks;
                              kind = St.Serial;
                              body =
                                St.Alloc
                                  {
                                    buffer = aw;
                                    body =
                                      St.seq
                                        [
                                          St.for_ e1 (ei cache)
                                            (St.if_ (valid e1 ch)
                                               (St.Dma
                                                  {
                                                    dir = St.Mram_to_wram;
                                                    wram = "A_w";
                                                    wram_off = E.var e1;
                                                    mram = "A_m";
                                                    mram_off = local e1 ch;
                                                    elems = ei 1;
                                                  }));
                                          St.for_ e2 (ei cache)
                                            (St.if_ (valid e2 ch)
                                               (St.store "acc_w" (ei 0)
                                                  E.(
                                                    load "acc_w" (int 0)
                                                    + load "A_w" (var e2))));
                                        ];
                                  };
                            };
                          St.Dma
                            {
                              dir = St.Wram_to_mram;
                              wram = "acc_w";
                              wram_off = ei 0;
                              mram = "C_m";
                              mram_off = E.var thr;
                              elems = ei 1;
                            };
                        ];
                  };
            };
      }
  in
  let d = V.fresh "d" and d2 = V.fresh "d2" and fr = V.fresh "fr" in
  let host =
    St.seq
      [
        St.For
          {
            var = d;
            extent = ei ndpus;
            kind = St.Serial;
            body =
              St.if_
                E.(var d * int q < int n)
                (St.Xfer
                   {
                     dir = St.To_dpu;
                     mode = St.Push;
                     host = "A";
                     host_off = E.(var d * int q);
                     dpu = E.var d;
                     mram = "A_m";
                     mram_off = ei 0;
                     elems = E.min_e (ei q) E.(int n - (var d * int q));
                     group_dpus = ndpus;
                   });
          };
        St.Launch "prim_red";
        (* PrIM ships every tasklet's partial to the host. *)
        St.For
          {
            var = d2;
            extent = ei ndpus;
            kind = St.Serial;
            body =
              St.Xfer
                {
                  dir = St.From_dpu;
                  mode = St.Push;
                  host = "P_partial";
                  host_off = E.(var d2 * int t);
                  dpu = E.var d2;
                  mram = "C_m";
                  mram_off = ei 0;
                  elems = ei t;
                  group_dpus = ndpus;
                };
          };
        St.store "C" (ei 0) (ei 0);
        St.For
          {
            var = fr;
            extent = ei (ndpus * t);
            kind = St.Serial;
            body =
              St.store "C" (ei 0) E.(load "C" (int 0) + load "P_partial" (var fr));
          };
      ]
  in
  {
    P.name = "prim_red";
    host_buffers = [ a; c; part ];
    mram_buffers = [ am; cm ];
    kernels = [ { P.kname = "prim_red"; body = kernel_body } ];
    host;
  }

(* --- general mapping to the shared lowering -------------------------- *)

let sketch_params (op : Op.t) p =
  let cache_elems = max 2 (p.cache_bytes / 4) in
  let base =
    {
      Sk.default_params with
      Sk.spatial_dpus = p.ndpus;
      reduction_dpus = 1;
      tasklets = p.tasklets;
      cache_elems;
      host_threads = p.host_threads;
    }
  in
  match Sk.family_of op with
  | Sk.Elementwise | Sk.Mat_vec | Sk.Mat_mat | Sk.Grid_map -> base
  | Sk.Batched ->
      (* PrIM-style MMTV/TTV distribute DPUs across the flattened outer
         spatial dimensions. *)
      let batch = (List.nth op.Op.axes 0).Op.extent in
      let rows = (List.nth op.Op.axes 1).Op.extent in
      let per_batch = max 1 (p.ndpus / max 1 batch) in
      let rpt = max 1 (ceil_div rows (p.tasklets * per_batch)) in
      { base with Sk.rows_per_tasklet = rpt }
  | Sk.Tasklet_reduce -> base

let build ?skip_inputs cfg (op : Op.t) p =
  match Sk.family_of op with
  | Sk.Tasklet_reduce -> (
      let prog = red_program op p in
      let prog = Imtp_passes.Pipeline.run ~config:prim_passes cfg prog in
      match Imtp_engine.Verifier.check cfg prog with
      | Error r -> Error ("verifier: " ^ r.Imtp_engine.Verifier.reason)
      | Ok () -> Ok prog)
  | Sk.Elementwise | Sk.Mat_vec | Sk.Batched | Sk.Mat_mat | Sk.Grid_map ->
      Imtp_autotune.Measure.build ~passes:prim_passes ?skip_inputs cfg op
        (sketch_params op p)

(* The engine memoizes the cost of what it builds, so only the
   hand-built RED program is costed here. *)
let measure ?skip_inputs cfg op p =
  match Sk.family_of op with
  | Sk.Tasklet_reduce -> (
      match build ?skip_inputs cfg op p with
      | Error m -> Error m
      | Ok prog -> (
          match Imtp_tir.Cost.measure cfg prog with
          | exception Imtp_tir.Cost.Error m -> Error m
          | stats -> Ok stats))
  | Sk.Elementwise | Sk.Mat_vec | Sk.Batched | Sk.Mat_mat | Sk.Grid_map ->
      Imtp_autotune.Measure.measure ~passes:prim_passes ?skip_inputs cfg op
        (sketch_params op p)
      |> Result.map (fun r -> r.Imtp_autotune.Measure.stats)

let default_dpu_grid (op : Op.t) =
  let lo = if op.Op.opname = "mmtv" then 5 else 8 in
  List.init (11 - lo + 1) (fun i -> 1 lsl (lo + i))

let grid_search ?dpu_choices ?tasklet_choices ?cache_choices cfg op =
  let dpus = Option.value dpu_choices ~default:(default_dpu_grid op) in
  let tasklets = Option.value tasklet_choices ~default:[ 8; 16; 24 ] in
  let caches = Option.value cache_choices ~default:[ 32; 64; 128; 256; 512; 1024; 2048 ] in
  let best = ref None in
  List.iter
    (fun ndpus ->
      List.iter
        (fun t ->
          List.iter
            (fun cb ->
              let p = { default with ndpus; tasklets = t; cache_bytes = cb } in
              match measure cfg op p with
              | Error _ -> ()
              | Ok stats -> (
                  let total = U.Stats.total_s stats in
                  match !best with
                  | Some (_, _, bt) when bt <= total -> ()
                  | Some _ | None -> best := Some (p, stats, total)))
            caches)
        tasklets)
    dpus;
  match !best with
  | Some (p, stats, _) -> Ok (p, stats)
  | None -> Error "no valid PrIM configuration"

let prim_e cfg op =
  grid_search
    ~tasklet_choices:[ default.tasklets ]
    ~cache_choices:[ default.cache_bytes ] cfg op
