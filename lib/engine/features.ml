module Stmt = Imtp_tir.Stmt
module Program = Imtp_tir.Program
module Simplify = Imtp_tir.Simplify
module Var = Imtp_tir.Var
module Cost = Imtp_tir.Cost

(* The learned cost model's features: one cheap analytic walk over
   lowered TIR. *)

let names =
  [|
    "bias";
    "log_dpus";
    "log_tasklets";
    "loop_depth";
    "log_loops";
    "log_kernel_iters";
    "log_host_iters";
    "log_dma_ops";
    "log_dma_elems";
    "log_wram_bytes";
    "xfer_copy";
    "xfer_push";
    "xfer_broadcast";
    "log_h2d_elems";
    "log_d2h_elems";
    "rfactor_depth";
  |]

let dim = Array.length names

let log2p x = log (1. +. Float.max 0. x) /. log 2.

(* Static walk accumulators.  Extents are resolved with every enclosing
   loop variable at 0; unresolvable extents count as 1 so the walk
   never raises and every feature stays finite. *)
type acc = {
  mutable loops : int;
  mutable depth : int;
  mutable copy : int;
  mutable push : int;
  mutable broadcast : int;
  mutable h2d_elems : float;
  mutable d2h_elems : float;
}

let of_program (p : Program.t) =
  let acc =
    {
      loops = 0;
      depth = 0;
      copy = 0;
      push = 0;
      broadcast = 0;
      h2d_elems = 0.;
      d2h_elems = 0.;
    }
  in
  let eval env e =
    match Simplify.eval_int env e with
    | Some n -> float_of_int (max 0 n)
    | None -> 1.
  in
  (* [mult]: product of enclosing loop extents; [d]: nesting depth.
     Returns the iteration count of the subtree (for the work terms). *)
  let rec walk mult d env (s : Stmt.t) : float =
    acc.depth <- max acc.depth d;
    match s with
    | Stmt.Nop | Stmt.Barrier | Stmt.Store _ | Stmt.Dma _ | Stmt.Launch _ ->
        mult
    | Stmt.Seq ss -> List.fold_left (fun m s -> Float.max m (walk mult d env s)) mult ss
    | Stmt.Alloc { body; _ } -> walk mult d env body
    | Stmt.For { var; extent; kind = _; body } ->
        let n = eval env extent in
        walk (mult *. n) (d + 1) (Var.Map.add var 0 env) body
    | Stmt.If { cond = _; then_; else_ } ->
        let a = walk mult d env then_ in
        let b =
          match else_ with None -> mult | Some s -> walk mult d env s
        in
        Float.max a b
    | Stmt.Xfer { dir; mode; elems; _ } ->
        (match mode with
        | Stmt.Copy -> acc.copy <- acc.copy + 1
        | Stmt.Push -> acc.push <- acc.push + 1
        | Stmt.Broadcast_x -> acc.broadcast <- acc.broadcast + 1);
        let moved = mult *. eval env elems in
        (match dir with
        | Stmt.To_dpu -> acc.h2d_elems <- acc.h2d_elems +. moved
        | Stmt.From_dpu -> acc.d2h_elems <- acc.d2h_elems +. moved);
        mult
  in
  let count_loops s =
    Stmt.iter (function Stmt.For _ -> acc.loops <- acc.loops + 1 | _ -> ()) s
  in
  let host_iters = walk 1. 0 Var.Map.empty p.Program.host in
  count_loops p.Program.host;
  let kernel_iters =
    List.fold_left
      (fun m (k : Program.kernel) ->
        count_loops k.Program.body;
        Float.max m (walk 1. 0 Var.Map.empty k.Program.body))
      0. p.Program.kernels
  in
  let wram_bytes =
    List.fold_left
      (fun m k -> max m (Verifier.kernel_wram_bytes k))
      0 p.Program.kernels
  in
  let contains_sub ~sub s =
    let n = String.length sub and l = String.length s in
    let rec go i = i + n <= l && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let rfactor_depth =
    List.length
      (List.filter
         (fun (b : Imtp_tir.Buffer.t) ->
           contains_sub ~sub:"partial" b.Imtp_tir.Buffer.name)
         (p.Program.host_buffers @ p.Program.mram_buffers))
  in
  let dma = Cost.dma_estimate p in
  let dpus = try Program.dpus_used p with Invalid_argument _ -> 1 in
  let tasklets = try Program.tasklets_used p with Invalid_argument _ -> 1 in
  [|
    1.;
    log2p (float_of_int dpus);
    log2p (float_of_int tasklets);
    float_of_int acc.depth;
    log2p (float_of_int acc.loops);
    log2p kernel_iters;
    log2p host_iters;
    log2p (float_of_int dma.Cost.dma_ops);
    log2p (float_of_int dma.Cost.dma_elems);
    log2p (float_of_int wram_bytes);
    log2p (float_of_int acc.copy);
    log2p (float_of_int acc.push);
    log2p (float_of_int acc.broadcast);
    log2p acc.h2d_elems;
    log2p acc.d2h_elems;
    float_of_int rfactor_depth;
  |]

