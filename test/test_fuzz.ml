(* Differential fuzzing subsystem tests: a fixed-seed campaign that
   must come back clean with every schedule primitive exercised, the
   counters-vs-analytic-cost cross-check on the example workloads, an
   injected-fault canary proving the oracle actually detects broken
   programs, and unit tests for the greedy shrinker and reproducer
   output. *)

module Fz = Imtp_fuzz.Driver
module Oracle = Imtp_fuzz.Oracle
module Shrink = Imtp_fuzz.Shrink
module Gw = Imtp_fuzz.Gen_workload
module Gs = Imtp_fuzz.Gen_sched
module Gp = Imtp_fuzz.Gen_passes
module Sk = Imtp_engine.Sketch
module L = Imtp_lower.Lowering
module Pl = Imtp_passes.Pipeline
module Op = Imtp_workload.Op
module Ops = Imtp_workload.Ops
module P = Imtp_tir.Program
module St = Imtp_tir.Stmt
module Eval = Imtp_tir.Eval
module Exec = Imtp_tir.Exec
module Cost = Imtp_tir.Cost
module T = Imtp_tensor
module U = Imtp_upmem

let cfg = U.Config.default

(* --- the fixed-seed campaign ------------------------------------------ *)

let campaign_seed = 1
let campaign_cases = 200

let campaign = lazy (Fz.run ~seed:campaign_seed ~cases:campaign_cases ())

let test_campaign_clean () =
  let o = Lazy.force campaign in
  List.iter
    (fun (index, case, failure) ->
      print_string (Fz.report_failure index case failure))
    o.Fz.failures;
  Alcotest.(check int) "no failures" 0 (List.length o.Fz.failures);
  Alcotest.(check int) "all cases ran" campaign_cases o.Fz.cases

let test_campaign_config_coverage () =
  let o = Lazy.force campaign in
  (* every checked case is compared under at least the four Fig. 12
     ablations (plus usually one extra config). *)
  Alcotest.(check bool)
    (Printf.sprintf "configs_checked %d >= 4 per case" o.Fz.configs_checked)
    true
    (o.Fz.configs_checked >= 4 * campaign_cases)

let test_campaign_primitive_coverage () =
  let c = (Lazy.force campaign).Fz.coverage in
  let assert_cov name n =
    Alcotest.(check bool) (Printf.sprintf "%s exercised (%d)" name n) true (n > 0)
  in
  assert_cov "split" c.Fz.split;
  assert_cov "reorder" c.Fz.reorder;
  assert_cov "bind" c.Fz.bind;
  assert_cov "rfactor" c.Fz.rfactor;
  assert_cov "unroll" c.Fz.unroll;
  assert_cov "parallel" c.Fz.parallel;
  assert_cov "cache_read+compute_at" c.Fz.cache_read;
  assert_cov "cache_write+reverse_compute_at" c.Fz.cache_write

(* Host post-processing threads are only a [parallel] schedule step, so
   the campaign's threaded host reductions come from [parallel] steps on
   rfactor schedules: some campaign case must lower to a
   [Host_parallel] host loop. *)
let test_campaign_threaded_host_reduction () =
  let rec threaded = function
    | St.For { kind = St.Host_parallel _; _ } -> true
    | St.For { body; _ } | St.Alloc { body; _ } -> threaded body
    | St.Seq l -> List.exists threaded l
    | St.If { then_; else_; _ } ->
        threaded then_ || Option.fold ~none:false ~some:threaded else_
    | St.Store _ | St.Dma _ | St.Xfer _ | St.Launch _ | St.Barrier | St.Nop -> false
  in
  let n =
    List.length
      (List.filter
         (fun index ->
           match Fz.case_of_seed ~seed:campaign_seed ~index with
           | None -> false
           | Some case -> (
               match Oracle.lower case with
               | Ok prog -> threaded prog.P.host
               | Error _ -> false))
         (List.init campaign_cases Fun.id))
  in
  Alcotest.(check bool)
    (Printf.sprintf "threaded host reductions (%d)" n)
    true (n > 0)

let test_case_of_seed_deterministic () =
  match
    (Fz.case_of_seed ~seed:campaign_seed ~index:3,
     Fz.case_of_seed ~seed:campaign_seed ~index:3)
  with
  | Some a, Some b ->
      Alcotest.(check bool) "same workload" true (a.Oracle.workload = b.Oracle.workload);
      Alcotest.(check bool) "same steps" true (a.Oracle.steps = b.Oracle.steps);
      Alcotest.(check int) "same input seed" a.Oracle.input_seed b.Oracle.input_seed
  | _ -> Alcotest.fail "case 3 of the campaign seed should lower"

(* --- oracle rejection path -------------------------------------------- *)

let test_oracle_rejects_invalid () =
  (* A DPU-bound reduction segment without rfactor is structurally
     invalid: the oracle must classify it as a rejected draw, not a
     failure. *)
  let case =
    {
      Oracle.workload = { Gw.kind = Gw.Red; dims = [ 64 ] };
      steps = [ Gs.Split ("i", [ 8 ]); Gs.Bind ("io", Imtp_schedule.Sched.Block_x) ];
      options = L.default_options;
      extra_config = None;
      input_seed = 7;
    }
  in
  match Oracle.check case with
  | Oracle.Rejected _ -> ()
  | Oracle.Passed _ -> Alcotest.fail "invalid schedule accepted"
  | Oracle.Failed f -> Alcotest.fail (Oracle.failure_to_string f)

(* --- counters vs analytic cost on the example workloads --------------- *)

let params ?(sd = 4) ?(rd = 1) ?(t = 4) ?(c = 8) ?(rows = 2) () =
  {
    Sk.default_params with
    Sk.spatial_dpus = sd;
    reduction_dpus = rd;
    tasklets = t;
    cache_elems = c;
    rows_per_tasklet = rows;
  }

let check_counters name op p =
  let raw = L.lower ~options:(Sk.lower_options p) (Sk.instantiate op p) in
  let inputs = Ops.random_inputs op in
  List.iter
    (fun (aname, config) ->
      let prog = Pl.run ~config cfg raw in
      let _, counters = Eval.run_counted prog ~inputs in
      let analytic = Cost.dma_counts prog in
      Alcotest.(check int)
        (Printf.sprintf "%s/%s dma_ops" name aname)
        counters.Eval.dma_ops analytic.Cost.dma_ops;
      Alcotest.(check int)
        (Printf.sprintf "%s/%s dma_elems" name aname)
        counters.Eval.dma_elems analytic.Cost.dma_elems;
      let xfer = Cost.xfer_counts prog in
      Alcotest.(check int)
        (Printf.sprintf "%s/%s xfer_elems_h2d" name aname)
        counters.Eval.xfer_elems_h2d xfer.Cost.xfer_elems_h2d;
      Alcotest.(check int)
        (Printf.sprintf "%s/%s xfer_elems_d2h" name aname)
        counters.Eval.xfer_elems_d2h xfer.Cost.xfer_elems_d2h)
    Pl.ablations

let test_counters_va () = check_counters "va" (Ops.va 1000) (params ())
let test_counters_red () = check_counters "red" (Ops.red 999) (params ~rd:4 ())
let test_counters_mtv () = check_counters "mtv" (Ops.mtv 31 61) (params ())
let test_counters_mmtv () = check_counters "mmtv" (Ops.mmtv 3 15 31) (params ())

let test_counters_gemm () =
  check_counters "gemm" (Ops.gemm 17 13 21) (params ~c:4 ())

(* --- injected fault: the oracle must notice ---------------------------- *)

(* Strip every boundary guard from the kernels.  On a misaligned shape
   the computation then reads poisoned MRAM padding, so the output must
   diverge from the reference semantics — if it doesn't, the oracle's
   comparison (or the interpreter's poisoning) has gone soft. *)
let strip_guards (p : P.t) =
  let rec strip (s : St.t) =
    match s with
    | St.If { cond = _; then_; else_ = _ } -> strip then_
    | St.Seq ss -> St.Seq (List.map strip ss)
    | St.For { var; extent; kind; body } ->
        St.For { var; extent; kind; body = strip body }
    | St.Alloc { buffer; body } -> St.Alloc { buffer; body = strip body }
    | St.Nop | St.Barrier | St.Store _ | St.Dma _ | St.Xfer _ | St.Launch _ -> s
  in
  {
    p with
    P.kernels =
      List.map (fun (k : P.kernel) -> { k with P.body = strip k.P.body }) p.kernels;
  }

let test_injected_fault_detected () =
  let op = Ops.mtv 5 13 in
  let p = params ~sd:2 ~t:2 ~c:4 () in
  let raw = L.lower ~options:(Sk.lower_options p) (Sk.instantiate op p) in
  let inputs = Ops.random_inputs ~seed:11 op in
  let want = T.Tensor.to_value_list (Op.reference op inputs) in
  let broken = strip_guards raw in
  let got =
    match Eval.run broken ~inputs with
    | outs -> Some (T.Tensor.to_value_list (List.assoc (fst op.Op.output) outs))
    | exception Eval.Error _ -> None
  in
  Alcotest.(check bool) "guard-stripped program must not match reference" false
    (got = Some want)

(* --- compiled executor vs interpreter ---------------------------------- *)

(* The executor-equivalence property: for fuzz-drawn workload x
   schedule x pass-config triples, Exec.run_compiled and
   Eval.run_counted agree on every host buffer, all six counters, and
   raised Eval.Error messages.  This is the same oracle the campaign
   applies, but driven directly so it also runs under [IMTP_EXEC=interp]
   (where the campaign would skip the differential). *)
let same_outcome prog ~inputs =
  let reify run =
    match run prog ~inputs with
    | r -> Ok r
    | exception Eval.Error m -> Error m
  in
  let compiled = reify (fun p -> Exec.run_compiled (Exec.compile p)) in
  let interpreted = reify Eval.run_counted in
  match (compiled, interpreted) with
  | Error a, Error b -> String.equal a b
  | Ok (o1, c1), Ok (o2, c2) ->
      c1 = c2
      && List.length o1 = List.length o2
      && List.for_all2
           (fun (n1, t1) (n2, t2) ->
             String.equal n1 n2 && T.Tensor.equal t1 t2)
           o1 o2
  | Ok _, Error _ | Error _, Ok _ -> false

let prop_exec_equiv_eval =
  QCheck2.Test.make ~name:"compiled executor bit-matches interpreter" ~count:40
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 40))
    (fun (seed, index) ->
      match Fz.case_of_seed ~seed ~index with
      | None -> true
      | Some case -> (
          match Oracle.lower case with
          | Error _ -> true
          | Ok raw ->
              let op = Gw.op case.Oracle.workload in
              let inputs = Ops.random_inputs ~seed:case.Oracle.input_seed op in
              List.for_all
                (fun (_, config) ->
                  same_outcome (Pl.run ~config cfg raw) ~inputs)
                (Oracle.configs case)))

(* --- shrinker ---------------------------------------------------------- *)

let test_shrinker_minimizes () =
  (* Synthetic failure predicate: a case "fails" iff its steps still
     contain a Split.  The shrinker must drop every other step and
     drive all dims to 1 while keeping the predicate true. *)
  let case =
    {
      Oracle.workload = { Gw.kind = Gw.Mtv; dims = [ 24; 36 ] };
      steps =
        [
          Gs.Split ("i", [ 4 ]);
          Gs.Unroll ("i0");
          Gs.Parallel ("j", 2);
          Gs.Split ("j", [ 6 ]);
        ];
      options = L.default_options;
      extra_config = None;
      input_seed = 3;
    }
  in
  let still_fails (c : Oracle.case) =
    List.exists (function Gs.Split _ -> true | _ -> false) c.Oracle.steps
  in
  Alcotest.(check bool) "precondition" true (still_fails case);
  let min = Shrink.minimize_with ~still_fails case in
  Alcotest.(check bool) "still fails after shrinking" true (still_fails min);
  Alcotest.(check int) "only one step left" 1 (List.length min.Oracle.steps);
  Alcotest.(check (list int)) "dims at minimum" [ 1; 1 ] (Gw.dims min.Oracle.workload)

let test_shrinker_preserves_real_failure () =
  (* On a case that actually passes, minimize_with must never be handed
     a passing candidate as an improvement: with a predicate that is
     the real oracle, shrinking a passing case is a no-op contractually
     (still_fails is false immediately, nothing shrinks below it). *)
  match Fz.case_of_seed ~seed:campaign_seed ~index:0 with
  | None -> Alcotest.fail "case 0 should lower"
  | Some case ->
      let calls = ref 0 in
      let still_fails _ =
        incr calls;
        false
      in
      let min = Shrink.minimize_with ~still_fails case in
      (* nothing shrank: every candidate was refused. *)
      Alcotest.(check bool) "unchanged workload" true
        (Gw.dims min.Oracle.workload = Gw.dims case.Oracle.workload);
      Alcotest.(check int) "unchanged steps" (List.length case.Oracle.steps)
        (List.length min.Oracle.steps)

(* --- reproducer text --------------------------------------------------- *)

let test_reproducer_text () =
  match Fz.case_of_seed ~seed:campaign_seed ~index:0 with
  | None -> Alcotest.fail "case 0 should lower"
  | Some case ->
      let failure =
        Oracle.Output_mismatch
          { config = "dma+lt"; index = 5; got = "9"; want = "4" }
      in
      let text = Fz.report_failure 0 case failure in
      let contains needle =
        let n = String.length needle and h = String.length text in
        let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "names the workload" true
        (contains (Gw.describe case.Oracle.workload));
      Alcotest.(check bool) "shows the failure" true (contains "dma+lt");
      Alcotest.(check bool) "shows the schedule trace" true (contains "sch.");
      Alcotest.(check bool) "dumps the program" true (contains "def host")

(* The oracle's output verdict is [Tensor.same_values]: a NaN differs
   from itself and an I32 tensor never equals an F32 one, even where
   [Value.compare] calls the elements equal. *)
let test_first_diff () =
  let f32 l =
    let t = T.Tensor.create T.Dtype.F32 (T.Shape.create [ List.length l ]) in
    List.iteri (fun i x -> T.Tensor.set_flat t i (T.Value.Float x)) l;
    t
  in
  let i32 l =
    let t = T.Tensor.create T.Dtype.I32 (T.Shape.create [ List.length l ]) in
    List.iteri (fun i x -> T.Tensor.set_flat t i (T.Value.Int x)) l;
    t
  in
  let show = function
    | None -> "same"
    | Some (i, g, w) ->
        Printf.sprintf "%d: %s vs %s" i (T.Value.to_string g) (T.Value.to_string w)
  in
  let check what want a b =
    Alcotest.(check string) what want (show (Oracle.first_diff a b))
  in
  check "equal f32" "same" (f32 [ 1.; 2.5 ]) (f32 [ 1.; 2.5 ]);
  check "signed zeros are equal" "same" (f32 [ 0.; -0. ]) (f32 [ -0.; 0. ]);
  check "nan differs from itself" "1: nan vs nan" (f32 [ 1.; nan ]) (f32 [ 1.; nan ]);
  check "nan vs a number" "0: nan vs 3" (f32 [ nan ]) (f32 [ 3. ]);
  check "equal i32" "same" (i32 [ 1; -7 ]) (i32 [ 1; -7 ]);
  check "i32 never equals f32" "0: 1 vs 1" (i32 [ 1; 2 ]) (f32 [ 1.; 2. ]);
  check "first differing element" "2: 4 vs 5" (i32 [ 1; 2; 4 ]) (i32 [ 1; 2; 5 ]);
  check "shorter output" "2: 0 vs 3" (i32 [ 1; 2 ]) (i32 [ 1; 2; 3 ])

let () =
  Alcotest.run "fuzz"
    [
      ( "campaign",
        [
          Alcotest.test_case "200 cases clean" `Quick test_campaign_clean;
          Alcotest.test_case "config coverage" `Quick test_campaign_config_coverage;
          Alcotest.test_case "primitive coverage" `Quick
            test_campaign_primitive_coverage;
          Alcotest.test_case "threaded host reduction" `Quick
            test_campaign_threaded_host_reduction;
          Alcotest.test_case "deterministic" `Quick test_case_of_seed_deterministic;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "rejects invalid" `Quick test_oracle_rejects_invalid;
          Alcotest.test_case "injected fault detected" `Quick
            test_injected_fault_detected;
          Alcotest.test_case "first diff is same_values" `Quick test_first_diff;
        ] );
      ( "counters-vs-cost",
        [
          Alcotest.test_case "va" `Quick test_counters_va;
          Alcotest.test_case "red" `Quick test_counters_red;
          Alcotest.test_case "mtv" `Quick test_counters_mtv;
          Alcotest.test_case "mmtv" `Quick test_counters_mmtv;
          Alcotest.test_case "gemm" `Quick test_counters_gemm;
        ] );
      ( "executor",
        [ QCheck_alcotest.to_alcotest prop_exec_equiv_eval ] );
      ( "shrinker",
        [
          Alcotest.test_case "minimizes" `Quick test_shrinker_minimizes;
          Alcotest.test_case "refuses passing candidates" `Quick
            test_shrinker_preserves_real_failure;
        ] );
      ( "reproducer",
        [ Alcotest.test_case "self-contained text" `Quick test_reproducer_text ] );
    ]
