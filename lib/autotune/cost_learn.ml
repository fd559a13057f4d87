module Obs = Imtp_obs.Obs

(* Feature extraction lives with the engine, which memoizes it per
   fingerprint (Engine.features); these are the same function. *)
let feature_names = Features.names
let dim = Features.dim
let features = Features.of_program

(* ------------------------------------------------------------------ *)
(* Online ridge regression on log-latency.                             *)
(* ------------------------------------------------------------------ *)

(* Measured trials observed before the model claims to be trained. *)
let min_samples = 8

type t = {
  lambda : float;
  xtx : float array array;
  xty : float array;
  mutable n : int;
  mutable weights : float array option;  (* cache, invalidated on observe *)
  mutable err_sum : float;  (* |log pred - log actual| over trained preds *)
  mutable err_n : int;
}

let create ?(lambda = 1e-2) ?(dim = dim) () =
  {
    lambda;
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
    xtx = Array.map Array.copy t.xtx;
    xty = Array.copy t.xty;
    n = t.n;
    weights = Option.map Array.copy t.weights;
    err_sum = t.err_sum;
    err_n = t.err_n;
  }

let trained t = t.n >= min_samples
let sample_count t = t.n

(* (XtX + λI) w = Xty by Gaussian elimination with partial pivoting.
   Every index is below [dim], so accesses are unchecked.  Search
   trajectories depend on the weights bit for bit (a test pins them):
   keep the order of the float operations. *)
let solve t =
  let dim = Array.length t.xty in
  let a = Array.init dim (fun i -> Array.copy t.xtx.(i)) in
  let b = Array.copy t.xty in
  for i = 0 to dim - 1 do
    let ai = Array.unsafe_get a i in
    Array.unsafe_set ai i (Array.unsafe_get ai i +. t.lambda)
  done;
  for col = 0 to dim - 1 do
    let pivot = ref col in
    let best = ref (Float.abs (Array.unsafe_get (Array.unsafe_get a col) col)) in
    for r = col + 1 to dim - 1 do
      let v = Float.abs (Array.unsafe_get (Array.unsafe_get a r) col) in
      if v > !best then begin
        pivot := r;
        best := v
      end
    done;
    let p = !pivot in
    let tmp = Array.unsafe_get a col in
    Array.unsafe_set a col (Array.unsafe_get a p);
    Array.unsafe_set a p tmp;
    let tb = Array.unsafe_get b col in
    Array.unsafe_set b col (Array.unsafe_get b p);
    Array.unsafe_set b p tb;
    let acol = Array.unsafe_get a col in
    let d = Array.unsafe_get acol col in
    if Float.abs d > 1e-12 then
      for r = 0 to dim - 1 do
        if r <> col then begin
          let ar = Array.unsafe_get a r in
          let f = Array.unsafe_get ar col /. d in
          for c = 0 to dim - 1 do
            Array.unsafe_set ar c
              (Array.unsafe_get ar c -. (f *. Array.unsafe_get acol c))
          done;
          Array.unsafe_set b r
            (Array.unsafe_get b r -. (f *. Array.unsafe_get b col))
        end
      done
  done;
  Array.init dim (fun i ->
      let d = Array.unsafe_get (Array.unsafe_get a i) i in
      if Float.abs d > 1e-12 then Array.unsafe_get b i /. d else 0.)

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
    for i = 0 to Array.length w - 1 do
      acc := !acc +. (w.(i) *. x.(i))
    done;
    !acc
  end

let predict t x = exp (predict_log t x)

let add t x y =
  let ly = log (Float.max 1e-12 y) in
  for i = 0 to Array.length t.xty - 1 do
    for j = 0 to Array.length t.xty - 1 do
      t.xtx.(i).(j) <- t.xtx.(i).(j) +. (x.(i) *. x.(j))
    done;
    t.xty.(i) <- t.xty.(i) +. (x.(i) *. ly)
  done;
  t.n <- t.n + 1;
  t.weights <- None

let observe ?predicted_log t x y =
  (* Ground-truth the running prediction error before the sample joins
     the training set (a pure holdout residual).  A caller that already
     predicted the sample passes that prediction, which spares the
     refit [add] would otherwise force on the next sample. *)
  if trained t then begin
    let predicted =
      match predicted_log with Some l -> l | None -> predict_log t x
    in
    let err = Float.abs (predicted -. log (Float.max 1e-12 y)) in
    t.err_sum <- t.err_sum +. err;
    t.err_n <- t.err_n + 1;
    Obs.set_gauge "cost_learn.mean_abs_log_err" (t.err_sum /. float_of_int t.err_n)
  end;
  add t x y

let adopt t ~from =
  Array.iteri (fun i row -> Array.blit row 0 t.xtx.(i) 0 (Array.length row)) from.xtx;
  Array.blit from.xty 0 t.xty 0 (Array.length t.xty);
  t.n <- from.n;
  t.err_sum <- from.err_sum;
  t.err_n <- from.err_n;
  (* A replay ends with an [add], which drops the cached weights. *)
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
  let predicted = Array.map (predict_log t) xs in
  (* Stable ascending order: ties (and the untrained model's uniform
     +inf) keep proposal order, so gating is a pure function of the
     trial history and the seed. *)
  let order =
    List.stable_sort
      (fun i j -> Float.compare predicted.(i) predicted.(j))
      (List.init (Array.length xs) Fun.id)
  in
  (order, predicted)
