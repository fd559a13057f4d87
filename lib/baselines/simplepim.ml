module Op = Imtp_workload.Op
module Sk = Imtp_engine.Sketch
module E = Imtp_tir.Expr
module St = Imtp_tir.Stmt
module B = Imtp_tir.Buffer
module V = Imtp_tir.Var
module P = Imtp_tir.Program
module U = Imtp_upmem

let supported (op : Op.t) =
  match op.Op.opname with "va" | "geva" | "red" -> true | _ -> false

let ceil_div a b = (a + b - 1) / b
let ei = E.int

let spim_passes =
  { Imtp_passes.Pipeline.all_off with Imtp_passes.Pipeline.dma_elim = true }

(* VA/GEVA: the kernel is comparable to PrIM's; the published
   inefficiency is the gather, which copies the whole output array once
   more inside the host. *)
let build_va cfg (op : Op.t) =
  let n = (List.hd op.Op.axes).Op.extent in
  let params =
    {
      Sk.default_params with
      Sk.spatial_dpus = U.Config.nr_dpus cfg;
      tasklets = 16;
      cache_elems = 64;
    }
  in
  match Imtp_autotune.Measure.build ~passes:spim_passes cfg op params with
  | Error m -> Error m
  | Ok prog ->
      (* SimplePIM arrays are framework handles: creating one from user
         data copies the array into the framework buffer (scatter), and
         gathering copies the whole output array once more inside the
         host. *)
      let staging (t, _) =
        let buf = B.create ("spim_stage_" ^ t) op.Op.dtype ~elems:n B.Host in
        let v = V.fresh ("s" ^ t) in
        ( buf,
          St.For
            {
              var = v;
              extent = ei n;
              kind = St.Serial;
              body = St.store buf.B.name (E.var v) (E.load t (E.var v));
            } )
      in
      let stages = List.map staging op.Op.inputs in
      let gather = B.create "spim_gather" op.Op.dtype ~elems:n B.Host in
      let v = V.fresh "g" in
      let copy =
        St.For
          {
            var = v;
            extent = ei n;
            kind = St.Serial;
            body = St.store "spim_gather" (E.var v) (E.load "C" (E.var v));
          }
      in
      Ok
        {
          prog with
          P.name = "simplepim_" ^ op.Op.opname;
          host_buffers = prog.P.host_buffers @ List.map fst stages @ [ gather ];
          host = St.seq (List.map snd stages @ [ prog.P.host; copy ]);
        }

(* RED: per-DPU partial results (no redundant copies), but the generic
   map/reduce handlers cost extra WRAM traffic per element, tasklets
   combine through global barriers, and the host final reduction goes
   through framework functions. *)
let build_red (op : Op.t) ndpus =
  let n = (List.hd op.Op.axes).Op.extent in
  let t = 16 and cache = 64 in
  let ndpus = max 1 (min ndpus n) in
  let q = ceil_div n ndpus in
  let chunks = max 1 (ceil_div q (t * cache)) in
  let slice = chunks * t * cache in
  let a = B.create "A" op.Op.dtype ~elems:n B.Host in
  let c = B.create "C" op.Op.dtype ~elems:1 B.Host in
  let part = B.create "P_partial" op.Op.dtype ~elems:ndpus B.Host in
  let am = B.create "A_m" op.Op.dtype ~elems:slice B.Mram in
  let cm = B.create "C_m" op.Op.dtype ~elems:1 B.Mram in
  let partials = B.create "spim_partials" op.Op.dtype ~elems:t B.Wram in
  let tmp = B.create "spim_tmp" op.Op.dtype ~elems:1 B.Wram in
  let aw = B.create "A_w" op.Op.dtype ~elems:cache B.Wram in
  let blk = V.fresh "blk"
  and thr = V.fresh "thr"
  and ch = V.fresh "ch"
  and e1 = V.fresh "e"
  and e2 = V.fresh "e2" in
  let local ev = E.((E.Binop (E.Mul, E.Binop (E.Add, E.Binop (E.Mul, var thr, int chunks), var ch), int cache)) + var ev) in
  let global ev = E.(E.Binop (E.Mul, var blk, int q) + local ev) in
  let valid ev =
    E.and_ (E.Cmp (E.Lt, local ev, ei q)) (E.Cmp (E.Lt, global ev, ei n))
  in
  let log2t =
    let rec go acc v = if v <= 1 then acc else go (acc + 1) (v / 2) in
    go 0 t
  in
  let per_tasklet =
    St.seq
      [
        St.store "spim_partials" (E.var thr) (ei 0);
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
                          (St.if_ (valid e1)
                             (St.Dma
                                {
                                  dir = St.Mram_to_wram;
                                  wram = "A_w";
                                  wram_off = E.var e1;
                                  mram = "A_m";
                                  mram_off = local e1;
                                  elems = ei 1;
                                }));
                        (* generic handler: element staged through a
                           temporary before accumulation. *)
                        St.for_ e2 (ei cache)
                          (St.if_ (valid e2)
                             (St.seq
                                [
                                  St.store "spim_tmp" (ei 0)
                                    (E.load "A_w" (E.var e2));
                                  St.store "spim_partials" (E.var thr)
                                    E.(
                                      load "spim_partials" (var thr)
                                      + load "spim_tmp" (int 0));
                                ]));
                      ];
                };
          };
      ]
  in
  let combine =
    (* tree combine, statically unrolled, with a global barrier per
       step (vs. PrIM's cheap two-thread handshake). *)
    let steps =
      List.init log2t (fun s ->
          let stride = t lsr (s + 1) in
          let cv = V.fresh "cw" in
          St.seq
            [
              St.Barrier;
              St.For
                {
                  var = cv;
                  extent = ei stride;
                  kind = St.Serial;
                  body =
                    St.store "spim_partials" (E.var cv)
                      (E.Binop
                         ( E.Add,
                           E.load "spim_partials" (E.var cv),
                           E.load "spim_partials"
                             (E.Binop (E.Add, E.var cv, E.int stride)) ));
                };
            ])
    in
    St.seq steps
  in
  let kernel_body =
    St.For
      {
        var = blk;
        extent = ei ndpus;
        kind = St.Bound St.Block_x;
        body =
          St.Alloc
            {
              buffer = partials;
              body =
                St.Alloc
                  {
                    buffer = tmp;
                    body =
                      St.seq
                        [
                          St.For
                            {
                              var = thr;
                              extent = ei t;
                              kind = St.Bound St.Thread_x;
                              body = per_tasklet;
                            };
                          combine;
                          St.Dma
                            {
                              dir = St.Wram_to_mram;
                              wram = "spim_partials";
                              wram_off = ei 0;
                              mram = "C_m";
                              mram_off = ei 0;
                              elems = ei 1;
                            };
                        ];
                  };
            };
      }
  in
  let d = V.fresh "d" and d2 = V.fresh "d2" and fr = V.fresh "fr" and fh = V.fresh "fh" in
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
        St.Launch "spim_red";
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
                  host_off = E.var d2;
                  dpu = E.var d2;
                  mram = "C_m";
                  mram_off = ei 0;
                  elems = ei 1;
                  group_dpus = ndpus;
                };
          };
        St.store "C" (ei 0) (ei 0);
        (* host final reduction through framework handler functions:
           several bookkeeping operations per combined element. *)
        St.For
          {
            var = fr;
            extent = ei ndpus;
            kind = St.Serial;
            body =
              St.seq
                [
                  St.store "C" (ei 0)
                    E.(load "C" (int 0) + load "P_partial" (var fr));
                  St.For
                    {
                      var = fh;
                      extent = ei 6;
                      kind = St.Serial;
                      body = St.store "C" (ei 0) E.(load "C" (int 0) + int 0);
                    };
                ];
          };
      ]
  in
  {
    P.name = "simplepim_red";
    host_buffers = [ a; c; part ];
    mram_buffers = [ am; cm ];
    kernels = [ { P.kname = "spim_red"; body = kernel_body } ];
    host;
  }

let build cfg (op : Op.t) =
  if not (supported op) then Error "SimplePIM supports only VA/GEVA/RED"
  else
    match op.Op.opname with
    | "red" -> (
        let prog = build_red op (U.Config.nr_dpus cfg) in
        let prog = Imtp_passes.Pipeline.run ~config:spim_passes cfg prog in
        match Imtp_engine.Verifier.check cfg prog with
        | Error r -> Error ("verifier: " ^ r.Imtp_engine.Verifier.reason)
        | Ok () -> Ok prog)
    | _ -> build_va cfg op

let measure cfg op =
  match build cfg op with
  | Error m -> Error m
  | Ok prog -> (
      match Imtp_tir.Cost.measure cfg prog with
      | exception Imtp_tir.Cost.Error m -> Error m
      | stats -> Ok stats)
