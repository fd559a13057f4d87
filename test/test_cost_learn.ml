(* Learned TIR cost model tests: exact ridge recovery on a synthetic
   linear cost, bit-identical feature extraction across cache states,
   gate arithmetic, and feature finiteness over fuzz-generated
   workloads. *)

module Cl = Imtp_autotune.Cost_learn
module Sk = Imtp_engine.Sketch
module Rng = Imtp_engine.Rng
module Engine = Imtp_engine.Engine
module Ops = Imtp_workload.Ops
module Cost = Imtp_tir.Cost
module U = Imtp_upmem

let cfg = U.Config.default

(* A deterministic pseudo-random feature vector: bias 1, then values in
   [0, 4).  No measurement involved — this exercises the regressor
   alone. *)
let synth_x rng =
  Array.init Cl.dim (fun i -> if i = 0 then 1. else Rng.float rng 4.)

let test_ridge_recovers_linear_cost () =
  (* y = exp(w . x) exactly; with negligible regularization and more
     well-spread samples than dimensions, the normal equations recover
     w and every prediction matches to floating-point accuracy. *)
  let rng = Rng.create ~seed:31 in
  let w = Array.init Cl.dim (fun i -> 0.05 *. float_of_int (i mod 7) -. 0.1) in
  let dot x = Array.fold_left ( +. ) 0. (Array.mapi (fun i v -> v *. w.(i)) x) in
  let model = Cl.create ~lambda:1e-9 () in
  let train = List.init 120 (fun _ -> synth_x rng) in
  List.iter (fun x -> Cl.observe model x (exp (dot x))) train;
  Alcotest.(check bool) "trained" true (Cl.trained model);
  Alcotest.(check int) "sample count" 120 (Cl.sample_count model);
  let holdout = List.init 20 (fun _ -> synth_x rng) in
  List.iter
    (fun x ->
      let got = Cl.predict_log model x and want = dot x in
      if Float.abs (got -. want) > 1e-6 then
        Alcotest.failf "prediction off: got %.12g want %.12g" got want)
    holdout;
  (* and the residuals tracked for these 20 observes are tiny too: the
     running mean covers every post-training observe (including the
     early, under-determined ones), so recover just the holdout
     contribution from the before/after means and counts. *)
  let n_before = float_of_int (120 - 8) in
  let e_before = Option.get (Cl.mean_abs_log_err model) in
  List.iter (fun x -> Cl.observe model x (exp (dot x))) holdout;
  let e_after = Option.get (Cl.mean_abs_log_err model) in
  let holdout_mean =
    (((n_before +. 20.) *. e_after) -. (n_before *. e_before)) /. 20.
  in
  Alcotest.(check bool) "holdout mean log err ~ 0" true (holdout_mean < 1e-6)

(* The island merge adopts a lone observer's model instead of replaying
   its observations into the shared one: both must end identical, error
   mean and weight cache included, so the merged model does not depend
   on which path built it.  The observer predicts between observations, as a search
   does, so its own weight cache is populated when it is adopted. *)
let test_adopt_equals_replay () =
  let rng = Rng.create ~seed:5 in
  let y x = exp (Array.fold_left ( +. ) 0. x /. 10.) in
  let shared = Cl.create () in
  List.iter (fun x -> Cl.observe shared x (y x)) (List.init 5 (fun _ -> synth_x rng));
  List.iter
    (fun n ->
      let island = Cl.copy shared in
      let epoch = List.init n (fun _ -> synth_x rng) in
      List.iter
        (fun x ->
          Cl.observe island x (y x);
          ignore (Cl.predict island (synth_x rng)))
        epoch;
      let replay = Cl.copy shared in
      List.iter (fun x -> Cl.observe replay x (y x)) epoch;
      Cl.adopt shared ~from:island;
      Alcotest.(check bool)
        (Printf.sprintf "adopted = replayed after %d observations" n)
        true (replay = shared))
    [ 1; 2; 9; 30 ]

(* Fixed normal-equation systems in exact arithmetic: 40 samples over
   [dim] features with a zero last column and, at 16 features, a
   column that is twice another, so the unregularized system is
   singular and the solver's small-pivot path runs. *)
let pinned_model ~dim ~lambda =
  let m = Cl.create ~lambda ~dim () in
  for k = 0 to 39 do
    let x =
      Array.init dim (fun i ->
          if i = 0 then 1.
          else if i = dim - 1 then 0.
          else if i = dim - 2 then float_of_int (k * 5 mod 11) /. 4.
          else float_of_int (((k * ((2 * i) + 3)) + (i * i)) mod 11) /. 4.)
    in
    if dim > 12 then x.(dim - 3) <- x.(3) *. 2.;
    Cl.observe m x (1e-4 *. float_of_int (1 + (((k * 7) + 3) mod 13)))
  done;
  m

(* [predict_log] of the i-th unit vector is the i-th weight exactly. *)
let weights_of m dim =
  Array.init dim (fun i ->
      Cl.predict_log m (Array.init dim (fun j -> if i = j then 1. else 0.)))

(* Weights and holdout error recorded as hex floats before the solver
   read its arrays unchecked and cached the pivot magnitude: the
   rewrite must reproduce every bit. *)
let test_solver_weights_pinned () =
  let check name m dim want_w want_err =
    Array.iteri
      (fun i w ->
        if Int64.bits_of_float w <> Int64.bits_of_float want_w.(i) then
          Alcotest.failf "%s: weight %d is %h, pinned %h" name i w want_w.(i))
      (weights_of m dim);
    let err = Option.get (Cl.mean_abs_log_err m) in
    if Int64.bits_of_float err <> Int64.bits_of_float want_err then
      Alcotest.failf "%s: mean error %h, pinned %h" name err want_err
  in
  check "11 features" (pinned_model ~dim:11 ~lambda:1e-2) 11
    [|
      -0x1.877d181a8d051p+1; 0x1.239100ed706cfp-1; 0x1.755cab81bd2d5p-2;
      0x1.b5a19d7d38f4dp-3; -0x1.e95c5e212e0eep+1; 0x1.17a22bdb4940fp-3;
      -0x1.12a1f82fb0a6p-5; -0x1.ba7ef0365a6f5p-2; -0x1.9cc0ad3e6c053p-2;
      -0x1.2dbc14ec65334p-3; 0x0p+0;
    |]
    0x1.679bacd58fd1fp-1;
  check "16 features" (pinned_model ~dim:16 ~lambda:1e-2) 16
    [|
      -0x1.efd7ac833505cp+0; 0x1.71d1c5225dffep-2; -0x1.6283c7bb4efdcp-1;
      -0x1.3829922f4377dp-2; -0x1.35e6cbd1fe9b9p+1; -0x1.3260b1d8a1915p-1;
      -0x1.4f85d7f5fbacep+0; -0x1.9a8b396b942e2p-1; 0x1.fd2d8dbeb2a9ap-1;
      0x1.bd103bb1512e9p-1; -0x1.7408af9fb0bfbp-1; 0x1.e203de39e670fp-1;
      0x1.71d1c5225e3e3p-2; -0x1.3829922f455fap-1; 0x1.b9f66c07216a2p-4;
      0x0p+0;
    |]
    0x1.2122e3769e5b6p-1;
  check "16 features, singular" (pinned_model ~dim:16 ~lambda:0.) 16
    [|
      -0x1.db069360e7711p+2; 0x1.90b7363a233c7p-1; 0x1.3c2e10295e801p-2;
      -0x1.fc5d1a4762a83p-2; 0x0p+0; 0x1.8644722532b5fp-2;
      -0x1.7814f1b3c8971p-2; -0x1.7e5385bfb5af5p-1; 0x1.6c7eac4a5b6acp-10;
      0x1.94d1400f8b1e5p-1; -0x1.69721a2a9ff88p-1; 0x0p+0; 0x0p+0; 0x0p+0;
      0x0p+0; 0x0p+0;
    |]
    0x1.0461ed3f98c24p-1

(* A caller-supplied prediction replaces the residual's solve and
   nothing else: the weights are those of observing without it, and
   the error mean is the error of the supplied predictions. *)
let test_observe_predicted_log () =
  let rng = Rng.create ~seed:9 in
  let y x = exp (Array.fold_left ( +. ) 0. x /. 10.) in
  let plain = Cl.create () and given = Cl.create () in
  let errs = ref [] in
  for k = 1 to 30 do
    let x = synth_x rng in
    Cl.observe plain x (y x);
    let predicted_log = float_of_int k /. 7. in
    if Cl.trained given then
      errs := Float.abs (predicted_log -. log (y x)) :: !errs;
    Cl.observe ~predicted_log given x (y x)
  done;
  Alcotest.(check bool) "same weights" true
    (weights_of plain Cl.dim = weights_of given Cl.dim);
  let n = float_of_int (List.length !errs) in
  let want = List.fold_left ( +. ) 0. (List.rev !errs) /. n in
  match Cl.mean_abs_log_err given with
  | None -> Alcotest.fail "no residual tracked"
  | Some e ->
      if Float.abs (e -. want) > 1e-12 *. Float.abs want then
        Alcotest.failf "error mean %.17g, want %.17g" e want

let test_untrained_predicts_infinity () =
  let model = Cl.create () in
  let rng = Rng.create ~seed:1 in
  let x = synth_x rng in
  Alcotest.(check bool) "untrained -> +inf" true
    (Cl.predict_log model x = infinity);
  for _ = 1 to 7 do
    Cl.observe model (synth_x rng) 1e-3
  done;
  Alcotest.(check bool) "7 < min_samples" false (Cl.trained model);
  Cl.observe model (synth_x rng) 1e-3;
  Alcotest.(check bool) "8 = min_samples" true (Cl.trained model)

let test_features_shape_and_finiteness () =
  let op = Ops.mtv 64 128 in
  let p = { Sk.default_params with Sk.spatial_dpus = 16; tasklets = 4; cache_elems = 16 } in
  let engine = Engine.create cfg in
  match Engine.prepare engine op p with
  | Error e -> Alcotest.fail (Engine.error_to_string e)
  | Ok prep ->
      let x = Cl.features prep.Engine.pprogram in
      Alcotest.(check int) "dim" Cl.dim (Array.length x);
      Alcotest.(check int) "names" Cl.dim (Array.length Cl.feature_names);
      Array.iteri
        (fun i v ->
          if not (Float.is_finite v) then
            Alcotest.failf "feature %s not finite" Cl.feature_names.(i))
        x;
      Alcotest.(check (float 0.)) "bias" 1. x.(0)

let test_features_bit_identical_cache_hit_vs_fresh () =
  let op = Ops.mmtv 4 32 32 in
  let rng = Rng.create ~seed:17 in
  for _ = 1 to 10 do
    let p = Sk.random rng cfg op in
    let fresh_engine = Engine.create cfg in
    match Engine.prepare fresh_engine op p with
    | Error _ -> () (* verifier may reject; that's fine *)
    | Ok prep_fresh ->
        let x_fresh = Cl.features prep_fresh.Engine.pprogram in
        (* complete the pipeline so the artifact table now owns the key,
           then re-prepare: this is served from the artifact cache. *)
        (match Engine.simulate fresh_engine prep_fresh with
        | Error e -> Alcotest.fail (Engine.error_to_string e)
        | Ok _ -> ());
        (match Engine.prepare fresh_engine op p with
        | Error e -> Alcotest.fail (Engine.error_to_string e)
        | Ok prep_hit ->
            let x_hit = Cl.features prep_hit.Engine.pprogram in
            Alcotest.(check bool) "cache-hit features bit-identical" true
              (x_fresh = x_hit));
        (* and an independent engine building from scratch agrees *)
        let other = Engine.create cfg in
        (match Engine.prepare other op p with
        | Error e -> Alcotest.fail (Engine.error_to_string e)
        | Ok prep2 ->
            Alcotest.(check bool) "fresh-engine features bit-identical" true
              (x_fresh = Cl.features prep2.Engine.pprogram))
  done

let test_dma_estimate_sanity () =
  (* Evenly divided tiling: no guard branches, so the analytic estimate
     must dominate the exact per-iteration enumeration and both must be
     positive. *)
  let op = Ops.mtv 64 128 in
  let p = { Sk.default_params with Sk.spatial_dpus = 16; tasklets = 4; cache_elems = 16 } in
  let engine = Engine.create cfg in
  match Engine.prepare engine op p with
  | Error e -> Alcotest.fail (Engine.error_to_string e)
  | Ok prep ->
      let est = Cost.dma_estimate prep.Engine.pprogram in
      let exact = Cost.dma_counts prep.Engine.pprogram in
      Alcotest.(check bool) "ops > 0" true (est.Cost.dma_ops > 0);
      Alcotest.(check bool) "elems > 0" true (est.Cost.dma_elems > 0);
      Alcotest.(check bool) "ops >= exact" true
        (est.Cost.dma_ops >= exact.Cost.dma_ops);
      Alcotest.(check bool) "elems >= exact" true
        (est.Cost.dma_elems >= exact.Cost.dma_elems)

let test_select_count () =
  Alcotest.(check int) "empty" 0 (Cl.select_count ~ratio:0.2 0);
  Alcotest.(check int) "at least one" 1 (Cl.select_count ~ratio:0.01 10);
  Alcotest.(check int) "ceil" 4 (Cl.select_count ~ratio:0.2 16);
  Alcotest.(check int) "all" 16 (Cl.select_count ~ratio:1.0 16)

let test_rank_stable () =
  let model = Cl.create () in
  let rng = Rng.create ~seed:3 in
  let xs = Array.init 10 (fun _ -> synth_x rng) in
  (* untrained: uniform +inf predictions must keep proposal order *)
  Alcotest.(check (list int)) "untrained keeps order"
    (List.init 10 Fun.id) (fst (Cl.rank model xs));
  (* trained: ranking sorts by predicted cost, deterministically *)
  Array.iter (fun x -> Cl.observe model x (exp x.(1))) xs;
  let a, pa = Cl.rank model xs and b, _ = Cl.rank model xs in
  Alcotest.(check (list int)) "deterministic" a b;
  Alcotest.(check int) "permutation" 10
    (List.length (List.sort_uniq compare a));
  (* the returned predictions are the model's, and the order sorts them *)
  Array.iteri
    (fun i x ->
      Alcotest.(check bool) "prediction" true
        (Float.equal pa.(i) (Cl.predict_log model x)))
    xs;
  let sorted = List.map (fun i -> pa.(i)) a in
  Alcotest.(check bool) "ascending" true
    (List.sort Float.compare sorted = sorted)

(* Fuzz-generated workload x random schedule: every prepared candidate
   yields an all-finite feature vector. *)
let prop_features_finite =
  QCheck2.Test.make ~name:"features finite on fuzz-generated candidates"
    ~count:40
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let w = Imtp_fuzz.Gen_workload.random rng in
      let op = Imtp_fuzz.Gen_workload.op w in
      let p = Sk.random rng cfg op in
      let engine = Engine.create cfg in
      match Engine.prepare engine op p with
      | Error _ -> true (* rejection is not a feature-extraction failure *)
      | Ok prep ->
          let x = Cl.features prep.Engine.pprogram in
          Array.length x = Cl.dim && Array.for_all Float.is_finite x)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "cost_learn"
    [
      ( "ridge",
        [
          Alcotest.test_case "recovers linear cost" `Quick
            test_ridge_recovers_linear_cost;
          Alcotest.test_case "untrained predicts +inf" `Quick
            test_untrained_predicts_infinity;
          Alcotest.test_case "adopt equals replay" `Quick
            test_adopt_equals_replay;
          Alcotest.test_case "solver weights pinned" `Quick
            test_solver_weights_pinned;
          Alcotest.test_case "observe with the caller's prediction" `Quick
            test_observe_predicted_log;
        ] );
      ( "features",
        [
          Alcotest.test_case "shape and finiteness" `Quick
            test_features_shape_and_finiteness;
          Alcotest.test_case "cache-hit vs fresh bit-identical" `Quick
            test_features_bit_identical_cache_hit_vs_fresh;
          Alcotest.test_case "dma estimate sanity" `Quick
            test_dma_estimate_sanity;
        ] );
      ( "gate",
        [
          Alcotest.test_case "select count" `Quick test_select_count;
          Alcotest.test_case "rank stable" `Quick test_rank_stable;
        ] );
      ("properties", q [ prop_features_finite ]);
    ]
