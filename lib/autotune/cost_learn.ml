module Stmt = Imtp_tir.Stmt
module Program = Imtp_tir.Program
module Simplify = Imtp_tir.Simplify
module Var = Imtp_tir.Var
module Cost = Imtp_tir.Cost
module Obs = Imtp_obs.Obs

(* ------------------------------------------------------------------ *)
(* Feature extraction: one cheap analytic walk over lowered TIR.       *)
(* ------------------------------------------------------------------ *)

let feature_names =
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

let dim = Array.length feature_names

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

let features (p : Program.t) =
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

(* ------------------------------------------------------------------ *)
(* Online ridge regression on log-latency.                             *)
(* ------------------------------------------------------------------ *)

type t = {
  lambda : float;
  min_samples : int;
  xtx : float array array;
  xty : float array;
  mutable n : int;
  mutable weights : float array option;  (* cache, invalidated on observe *)
  mutable err_sum : float;  (* |log pred - log actual| over trained preds *)
  mutable err_n : int;
}

let create ?(lambda = 1e-2) ?(min_samples = 8) () =
  {
    lambda;
    min_samples;
    xtx = Array.make_matrix dim dim 0.;
    xty = Array.make dim 0.;
    n = 0;
    weights = None;
    err_sum = 0.;
    err_n = 0;
  }

let copy t =
  {
    lambda = t.lambda;
    min_samples = t.min_samples;
    xtx = Array.map Array.copy t.xtx;
    xty = Array.copy t.xty;
    n = t.n;
    weights = Option.map Array.copy t.weights;
    err_sum = t.err_sum;
    err_n = t.err_n;
  }

let trained t = t.n >= t.min_samples
let sample_count t = t.n

(* (XtX + λI) w = Xty by Gaussian elimination with partial pivoting. *)
let solve t =
  let a = Array.init dim (fun i -> Array.copy t.xtx.(i)) in
  let b = Array.copy t.xty in
  for i = 0 to dim - 1 do
    a.(i).(i) <- a.(i).(i) +. t.lambda
  done;
  for col = 0 to dim - 1 do
    let pivot = ref col in
    for r = col + 1 to dim - 1 do
      if Float.abs a.(r).(col) > Float.abs a.(!pivot).(col) then pivot := r
    done;
    let tmp = a.(col) in
    a.(col) <- a.(!pivot);
    a.(!pivot) <- tmp;
    let tb = b.(col) in
    b.(col) <- b.(!pivot);
    b.(!pivot) <- tb;
    let d = a.(col).(col) in
    if Float.abs d > 1e-12 then
      for r = 0 to dim - 1 do
        if r <> col then begin
          let f = a.(r).(col) /. d in
          for c = 0 to dim - 1 do
            a.(r).(c) <- a.(r).(c) -. (f *. a.(col).(c))
          done;
          b.(r) <- b.(r) -. (f *. b.(col))
        end
      done
  done;
  Array.init dim (fun i ->
      if Float.abs a.(i).(i) > 1e-12 then b.(i) /. a.(i).(i) else 0.)

let weights t =
  match t.weights with
  | Some w -> w
  | None ->
      let w = solve t in
      t.weights <- Some w;
      w

let predict_log t x =
  if not (trained t) then infinity
  else begin
    let w = weights t in
    let acc = ref 0. in
    for i = 0 to dim - 1 do
      acc := !acc +. (w.(i) *. x.(i))
    done;
    !acc
  end

let predict t x = exp (predict_log t x)

let observe t x y =
  let ly = log (Float.max 1e-12 y) in
  (* Ground-truth the running prediction error before the sample joins
     the training set (a pure holdout residual). *)
  if trained t then begin
    let err = Float.abs (predict_log t x -. ly) in
    t.err_sum <- t.err_sum +. err;
    t.err_n <- t.err_n + 1;
    Obs.set_gauge "cost_learn.mean_abs_log_err" (t.err_sum /. float_of_int t.err_n)
  end;
  for i = 0 to dim - 1 do
    for j = 0 to dim - 1 do
      t.xtx.(i).(j) <- t.xtx.(i).(j) +. (x.(i) *. x.(j))
    done;
    t.xty.(i) <- t.xty.(i) +. (x.(i) *. ly)
  done;
  t.n <- t.n + 1;
  t.weights <- None

let mean_abs_log_err t =
  if t.err_n = 0 then None else Some (t.err_sum /. float_of_int t.err_n)

(* ------------------------------------------------------------------ *)
(* The measurement gate.                                               *)
(* ------------------------------------------------------------------ *)

let select_count ~ratio n =
  if n <= 0 then 0
  else max 1 (int_of_float (ceil (ratio *. float_of_int n)))

let rank t xs =
  let scored =
    List.mapi (fun i x -> (i, predict_log t x)) xs
  in
  (* Stable ascending order: ties (and the untrained model's uniform
     +inf) keep proposal order, so gating is a pure function of the
     trial history and the seed. *)
  List.stable_sort
    (fun (_, a) (_, b) -> Float.compare a b)
    scored
  |> List.map fst
