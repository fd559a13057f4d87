module Op = Imtp_workload.Op

(* The mutation ranker is the gate model's ridge regression over 11
   sketch-parameter features, fed through [Cost_learn.add]: no holdout
   residual, so an observation never pays for a solve. *)
type t = Cost_learn.t

let create () = Cost_learn.create ~dim:11 ()
let copy = Cost_learn.copy

let log2 x = log (float_of_int (max 1 x)) /. log 2.

let features op (p : Sketch.params) =
  let work = Op.total_flops op in
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
