(* The mutation ranker is the gate model's ridge regression over 11
   sketch-parameter features, fed through [Cost_learn.add]: no holdout
   residual, so an observation never pays for a solve. *)
type t = Cost_learn.t

let create () = Cost_learn.create ~dim:11 ()

(* [log2] is tabulated over every value the sampling tables hold and
   their tasklet x cache products; larger values fall back to the same
   expression. *)
let log2_expr x = log (float_of_int (max 1 x)) /. log 2.
let log2_table = Array.init (1 lsl 14) log2_expr

let log2 x =
  if x >= 0 && x < Array.length log2_table then Array.unsafe_get log2_table x
  else log2_expr x

let features cfg op (p : Sketch.params) =
  let work = (Sketch.table cfg op).Sketch.work in
  let dpus = p.Sketch.spatial_dpus * p.Sketch.reduction_dpus in
  [|
    1.;
    log2 p.Sketch.spatial_dpus;
    log2 p.Sketch.reduction_dpus;
    log2 p.Sketch.tasklets;
    log2 p.Sketch.cache_elems;
    log2 p.Sketch.rows_per_tasklet;
    (if p.Sketch.unroll_inner then 1. else 0.);
    log2 p.Sketch.host_threads;
    (if Sketch.uses_rfactor p then 1. else 0.);
    log (1. +. (work /. float_of_int (max 1 dpus))) /. log 2.;
    log2 (p.Sketch.tasklets * p.Sketch.cache_elems);
  |]

let observe = Cost_learn.add
let trained = Cost_learn.trained
let sample_count = Cost_learn.sample_count
let predict t x = if trained t then Cost_learn.predict_log t x else 0.
