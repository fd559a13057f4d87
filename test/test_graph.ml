(* Graph-compilation layer tests: epilogue fusion lowering (kernel,
   thread-combine and rfactor-host variants), the Grid_map sketch
   family, MRAM-residency program linking, the rewritten Graph API
   (reserved names, O(N) construction, structural dedup), and the
   graph-vs-direct-op differential oracle. *)

module T = Imtp_tensor
module U = Imtp_upmem
module S = Imtp_schedule.Sched
module Op = Imtp_workload.Op
module Ops = Imtp_workload.Ops
module Nets = Imtp_workload.Nets
module L = Imtp_lower.Lowering
module P = Imtp_tir.Program
module Sk = Imtp_engine.Sketch
module Engine = Imtp_engine.Engine
module G = Imtp_graph.Graph

let cfg = U.Config.default

let check_tensors name want got =
  let fw = T.Tensor.to_value_list want and fg = T.Tensor.to_value_list got in
  Alcotest.(check int) (name ^ " length") (List.length fw) (List.length fg);
  List.iteri
    (fun i (w, g) ->
      if not (T.Value.equal w g) then
        Alcotest.failf "%s: [%d] = %s, expected %s" name i (T.Value.to_string g)
          (T.Value.to_string w))
    (List.combine fw fg)

let eval_op op params =
  let sched = Sk.instantiate op params in
  let prog = L.lower sched in
  (match P.validate prog with Ok () -> () | Error m -> Alcotest.fail m);
  let inputs = Ops.random_inputs op in
  let outs = Imtp_tir.Eval.run prog ~inputs in
  let got = List.assoc (fst op.Op.output) outs in
  check_tensors op.Op.opname (Op.reference op inputs) got

(* --- epilogue lowering ------------------------------------------------- *)

(* mtv with a fused bias-add + ReLU epilogue, as graph fusion builds it. *)
let biased_mtv n k =
  let sp name extent = { Op.aname = name; extent; kind = Op.Spatial } in
  let rd name extent = { Op.aname = name; extent; kind = Op.Reduction } in
  let op =
    Op.create ~name:"mtv_bias_relu" ~dtype:T.Dtype.I32
      ~axes:[ sp "i" n; rd "j" k ]
      ~inputs:[ ("A", [ "i"; "j" ]); ("B", [ "j" ]); ("D", [ "i" ]) ]
      ~output:("C", [ "i" ])
      ~body:(Op.Bin (Op.Mul, Op.Ref "A", Op.Ref "B"))
  in
  Op.with_epilogue op
    (Op.Bin (Op.Max, Op.Bin (Op.Add, Op.Acc, Op.Ref "D"), Op.Const (T.Value.Int 0)))

let test_epilogue_kernel () =
  (* non-rfactor: the epilogue runs in the kernel at the write-cache
     flush; ragged sizes exercise the guards. *)
  List.iter
    (fun (n, k) ->
      let op = biased_mtv n k in
      let p = { Sk.default_params with Sk.spatial_dpus = 8; tasklets = 4; cache_elems = 16 } in
      eval_op op p)
    [ (32, 64); (37, 43); (5, 999) ]

let test_epilogue_rfactor () =
  (* reduction_dpus > 1: partials reach the host, which applies the
     epilogue after the final reduction. *)
  List.iter
    (fun (n, k) ->
      let op = biased_mtv n k in
      let p =
        {
          Sk.default_params with
          Sk.spatial_dpus = 4;
          reduction_dpus = 4;
          tasklets = 4;
          cache_elems = 16;
        }
      in
      eval_op op p)
    [ (32, 64); (37, 43) ]

let test_epilogue_scalar () =
  (* scalar reduction, non-hierarchical: tasklet 0 applies the epilogue
     in the combine step. *)
  let op = Op.with_epilogue (Ops.red 999) (Op.Bin (Op.Mul, Op.Acc, Op.Const (T.Value.Int 3))) in
  let s = S.create op in
  let i = List.hd (S.order s) in
  (match S.split s i ~factors:[ 16; 8 ] with
  | [ i_th; i_chunk; _i_in ] ->
      S.bind s i_th S.Thread_x;
      let ca = S.cache_read s "A" in
      S.compute_at s ca i_chunk;
      let cw = S.cache_write s "C" in
      S.reverse_compute_at s cw i_th
  | _ -> assert false);
  let prog = L.lower s in
  let inputs = Ops.random_inputs op in
  let outs = Imtp_tir.Eval.run prog ~inputs in
  check_tensors "red_epilogue" (Op.reference op inputs)
    (List.assoc "C" outs);
  (* and the hierarchical variant: host applies it after the rf sum. *)
  let p = { Sk.default_params with Sk.spatial_dpus = 1; reduction_dpus = 8 } in
  eval_op op p

let test_epilogue_keys_distinct () =
  let base = Ops.mtv 32 64 in
  let fused =
    Op.with_epilogue base (Op.Bin (Op.Add, Op.Acc, Op.Const (T.Value.Int 1)))
  in
  if String.equal (Engine.op_key base) (Engine.op_key fused) then
    Alcotest.fail "epilogue must change the structural key";
  (* pre-epilogue keys keep their historical shape (golden traces). *)
  let k = Engine.op_key base in
  if String.length k = 0 || String.contains k '@' then
    Alcotest.fail "base op key must not mention epilogue constructs"

(* --- new ops and the Grid_map family ----------------------------------- *)

let test_new_ops_families () =
  Alcotest.(check bool) "rowsum is Mat_vec" true (Sk.family_of (Ops.rowsum 16 64) = Sk.Mat_vec);
  Alcotest.(check bool) "rowdiv is Grid_map" true (Sk.family_of (Ops.rowdiv 16 64) = Sk.Grid_map);
  Alcotest.(check bool) "relu is Elementwise" true (Sk.family_of (Ops.relu 64) = Sk.Elementwise);
  List.iter
    (fun op ->
      let p = { Sk.default_params with Sk.spatial_dpus = 32; tasklets = 4; cache_elems = 8 } in
      eval_op op p)
    [
      Ops.relu 999;
      Ops.scale ~c:5 127;
      Ops.rowsum 7 65;
      Ops.rowdiv 7 65;
      Ops.rowdiv 16 64;
      Nets.scale2d ~c:3 5 37;
    ]

let test_skip_output_transfer () =
  let op = Ops.mtv 64 64 in
  let p = { Sk.default_params with Sk.spatial_dpus = 8; tasklets = 4 } in
  let sched = Sk.instantiate op p in
  let prog =
    L.lower ~options:{ L.default_options with L.skip_output_transfer = true } sched
  in
  let stats = Imtp_tir.Cost.measure cfg prog in
  Alcotest.(check int) "no d2h bytes" 0 stats.U.Stats.bytes_d2h;
  let base = L.lower sched in
  let bstats = Imtp_tir.Cost.measure cfg base in
  Alcotest.(check bool) "baseline has d2h bytes" true (bstats.U.Stats.bytes_d2h > 0)

(* --- graph API: reserved names, O(1) construction ---------------------- *)

let expect_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let test_reserved_names () =
  let g = G.create "r" in
  ignore (G.input g ~name:"x" ~shape:[ 4 ]);
  (* the node-output namespace is off limits: an input named node0 used
     to shadow node 0's output in the run environment. *)
  expect_invalid "node0" (fun () -> G.input g ~name:"node0" ~shape:[ 4 ]);
  expect_invalid "node12" (fun () -> G.input g ~name:"node12" ~shape:[ 4 ]);
  expect_invalid "dup" (fun () -> G.input g ~name:"x" ~shape:[ 4 ]);
  expect_invalid "empty" (fun () -> G.input g ~name:"" ~shape:[ 4 ]);
  (* non-numeric suffixes are fine *)
  ignore (G.input g ~name:"node_embedding" ~shape:[ 4 ]);
  ignore (G.input g ~name:"nodes" ~shape:[ 4 ])

let test_large_graph () =
  (* 1k-node chain: construction used to be quadratic (List.nth over a
     reversed list per add). *)
  let g = G.create "chain" in
  let x = G.input g ~name:"x" ~shape:[ 8 ] in
  let tid = ref x in
  for _ = 1 to 1000 do
    tid := G.add g (Ops.relu 8) ~args:[ ("A", !tid) ]
  done;
  Alcotest.(check int) "node count" 1000 (G.node_count g);
  Alcotest.(check (list int)) "tail shape" [ 8 ] (G.shape_of g !tid)

(* --- compiled graphs ---------------------------------------------------- *)

let compile_ok ?fuse ?resident ?engine ~trials g =
  match
    G.Compiled.compile ~trials ~seed:11 ~jobs:2 ?fuse ?resident ?engine cfg g
  with
  | Ok c -> c
  | Error m -> Alcotest.fail m

let run_net ?fuse ?resident ?engine ~trials spec =
  let g, ids = G.of_spec spec in
  let c = compile_ok ?fuse ?resident ?engine ~trials g in
  let inputs = Nets.random_inputs spec in
  let outs = G.Compiled.run c ~inputs in
  let refs = Nets.reference spec ~inputs in
  (c, ids, inputs, outs, refs)

let check_net_output ids outs refs id =
  let want = List.assoc id refs in
  match List.assoc_opt (G.tid_name (List.assoc id ids)) outs with
  | Some got -> check_tensors id want got
  | None -> Alcotest.failf "output %s not materialized" id

let test_mlp_fused () =
  let spec = Nets.mlp ~d_in:32 ~d_hidden:32 ~d_out:16 () in
  let c, ids, _, outs, refs = run_net ~trials:32 spec in
  (* h1b/a1 fold into h1, out folds into h2: 5 nodes -> 2 kernels *)
  Alcotest.(check int) "fused away" 3 (G.Compiled.fused_count c);
  check_net_output ids outs refs "out"

let test_attention_fused_resident () =
  let spec = Nets.attention ~heads:4 ~tokens:16 ~dim:8 () in
  let c, ids, _, outs, refs = run_net ~trials:32 spec in
  Alcotest.(check int) "scale folds into mmtv" 1 (G.Compiled.fused_count c);
  check_net_output ids outs refs "out"

let test_unfused_differential () =
  (* satellite oracle: the unfused, non-resident combined program is
     bit-identical to running every op standalone (the reference
     chain), on both executors. *)
  List.iter
    (fun spec ->
      let c, _, inputs, outs, refs =
        run_net ~fuse:false ~resident:false ~trials:24 spec
      in
      List.iteri
        (fun i (id, want) ->
          match List.assoc_opt (Printf.sprintf "node%d" i) outs with
          | Some got -> check_tensors (spec.Nets.sname ^ ":" ^ id) want got
          | None -> Alcotest.failf "node%d (%s) not materialized" i id)
        refs;
      (* interpreter vs compiled executor on the combined program *)
      let prog = G.Compiled.program c in
      let eouts = Imtp_tir.Eval.run prog ~inputs in
      let couts, _ = Imtp_tir.Exec.run_counted prog ~inputs in
      List.iter
        (fun (name, ev) ->
          match List.assoc_opt name couts with
          | Some cv -> check_tensors ("exec:" ^ name) ev cv
          | None -> Alcotest.failf "exec lost buffer %s" name)
        eouts)
    [
      Nets.mlp ~d_in:24 ~d_hidden:16 ~d_out:8 ();
      Nets.attention ~heads:2 ~tokens:8 ~dim:4 ();
    ]

let test_fused_matches_unfused () =
  let spec = Nets.mlp ~d_in:24 ~d_hidden:16 ~d_out:8 () in
  let _, ids_f, _, outs_f, refs = run_net ~trials:24 spec in
  check_net_output ids_f outs_f refs "out";
  let _, ids_u, _, outs_u, refs_u =
    run_net ~fuse:false ~resident:false ~trials:24 spec
  in
  List.iter (fun (id, _) -> check_net_output ids_u outs_u refs_u id) refs;
  (* same final tensor both ways *)
  let f = List.assoc (G.tid_name (List.assoc "out" ids_f)) outs_f in
  let u = List.assoc (G.tid_name (List.assoc "out" ids_u)) outs_u in
  check_tensors "fused = unfused" u f

let test_engine_dedup () =
  (* two nodes with the same op share one canonical key: one tuning
     search serves both, and a second compile on the same engine is
     pure cache hits (no new builds in the ledger). *)
  let mk () =
    let g = G.create "two_mtv" in
    let a = G.input g ~name:"a" ~shape:[ 48; 32 ] in
    let v = G.input g ~name:"v" ~shape:[ 32 ] in
    let w = G.input g ~name:"w" ~shape:[ 32 ] in
    ignore (G.add g (Ops.mtv 48 32) ~args:[ ("A", a); ("B", v) ]);
    ignore (G.add g (Ops.mtv 48 32) ~args:[ ("A", a); ("B", w) ]);
    g
  in
  let e = Engine.create cfg in
  let c1 = compile_ok ~engine:e ~resident:false ~trials:24 (mk ()) in
  (match G.Compiled.node_stats c1 with
  | [ (_, s0); (_, s1) ] -> Alcotest.(check bool) "same stats" true (s0 = s1)
  | l -> Alcotest.failf "expected 2 nodes, got %d" (List.length l));
  let built1 = (Engine.counters e).Engine.built in
  let hits1 = (Engine.counters e).Engine.hits in
  let _c2 = compile_ok ~engine:e ~resident:false ~trials:24 (mk ()) in
  let built2 = (Engine.counters e).Engine.built in
  let hits2 = (Engine.counters e).Engine.hits in
  Alcotest.(check int) "no rebuilds across compiles" built1 built2;
  Alcotest.(check bool) "cache hits grew" true (hits2 > hits1)

(* --- residency re-selection ------------------------------------------- *)

(* The planner's scans as written before the tiling index: instantiate
   and test every point of the space, then keep the first 32 / 48.  The
   oracle of the indexed scans. *)
let filtered_scans cfg ops =
  {
    G.Compiled.alternatives =
      (fun pi winner ->
        let pop = ops.(pi) in
        let alts =
          List.filter
            (fun prm ->
              prm <> winner
              &&
              try S.rfactor_loop (Sk.instantiate pop prm) = None
              with Invalid_argument _ | Failure _ -> false)
            (Sk.space cfg pop)
        in
        List.filteri (fun i _ -> i < 32) alts);
    compatible =
      (fun c ok ->
        let check prm = ok (Sk.instantiate ops.(c) prm) in
        let cands =
          List.filter
            (fun prm ->
              try check prm with Invalid_argument _ | Failure _ -> false)
            (Sk.space cfg ops.(c))
        in
        List.filteri (fun i _ -> i < 48) cands);
    tilings = (fun () -> 0);
  }

(* Indexed scans that also run the filtered ones on every call and fail
   on the first differing answer; counts the calls. *)
let checked_scans calls cfg ops =
  let ix = G.Compiled.indexed_scans cfg ops and fl = filtered_scans cfg ops in
  let same what i got want =
    incr calls;
    if got <> want then
      Alcotest.failf "%s scan of plan node %d: %d points, filtered %d" what i
        (List.length got) (List.length want)
  in
  {
    ix with
    G.Compiled.alternatives =
      (fun i w ->
        let got = ix.G.Compiled.alternatives i w in
        same "alternatives" i got (fl.G.Compiled.alternatives i w);
        got);
    compatible =
      (fun i ok ->
        let got = ix.G.Compiled.compatible i ok in
        same "compatible" i got (fl.G.Compiled.compatible i ok);
        got);
  }

(* Per-node params, residency roles, plan text and modeled cost of the
   default (indexed) compile equal the filtered oracle's, scan by scan
   and in the result, over nets that commit resident edges (attention)
   and nets whose consumers find no compatible point (the MLP). *)
let test_indexed_scans_match_filtered () =
  let calls = ref 0 and edges = ref 0 in
  List.iter
    (fun (spec, trials) ->
      List.iter
        (fun (seed, islands) ->
          let compile scans =
            let g, _ = G.of_spec spec in
            match
              G.Compiled.compile_with ~scans ~trials ~seed ~jobs:1 ~islands cfg g
            with
            | Ok c -> c
            | Error m -> Alcotest.fail m
          in
          let name =
            Printf.sprintf "%s seed %d islands %d" spec.Nets.sname seed islands
          in
          let got = compile (checked_scans calls)
          and want = compile filtered_scans in
          Alcotest.(check bool) (name ^ ": params and residency") true
            (G.Compiled.plan got = G.Compiled.plan want);
          Alcotest.(check (list string)) (name ^ ": describe")
            (G.Compiled.describe want) (G.Compiled.describe got);
          Alcotest.(check bool) (name ^ ": estimate") true
            (G.Compiled.estimate got = G.Compiled.estimate want);
          edges := !edges + G.Compiled.resident_count got)
        [ (1, 1); (2, 1); (3, 1); (1, 2); (2, 2); (3, 2) ])
    [
      (Nets.mlp ~d_in:256 ~d_hidden:256 ~d_out:128 (), 64);
      (Nets.attention ~heads:16 ~tokens:64 ~dim:32 (), 96);
      (Nets.attention ~heads:8 ~tokens:32 ~dim:16 (), 96);
    ];
  Alcotest.(check bool) "scans compared" true (!calls > 0);
  Alcotest.(check bool) "resident edges committed" true (!edges > 0)

(* Minor words of one fixed-seed single-job compile of the attention
   block, recorded with OCaml 5.1 (deterministic on one domain).  The
   filtered scans allocated about ten times as much. *)
let test_compile_alloc_budget () =
  let recorded = 2827137. in
  let words () =
    let g, _ = G.of_spec (Nets.attention ~heads:16 ~tokens:64 ~dim:32 ()) in
    let engine = Engine.create cfg in
    let w0 = Gc.minor_words () in
    (match G.Compiled.compile ~seed:11 ~jobs:1 ~islands:1 ~engine cfg g with
    | Ok _ -> ()
    | Error m -> Alcotest.fail m);
    Gc.minor_words () -. w0
  in
  (* warm up lazily initialized state outside the measurement *)
  ignore (words ());
  let w = words () in
  if w > 1.25 *. recorded then
    Alcotest.failf "attention compile: %.0f minor words, budget %.0f (1.25 x %.0f)"
      w (1.25 *. recorded) recorded

let () =
  Alcotest.run "graph"
    [
      ( "epilogue",
        [
          Alcotest.test_case "kernel-site epilogue" `Quick test_epilogue_kernel;
          Alcotest.test_case "rfactor host epilogue" `Quick test_epilogue_rfactor;
          Alcotest.test_case "scalar combine epilogue" `Quick test_epilogue_scalar;
          Alcotest.test_case "structural keys distinct" `Quick test_epilogue_keys_distinct;
        ] );
      ( "ops",
        [
          Alcotest.test_case "new ops + Grid_map family" `Quick test_new_ops_families;
          Alcotest.test_case "skip_output_transfer" `Quick test_skip_output_transfer;
        ] );
      ( "api",
        [
          Alcotest.test_case "reserved input names" `Quick test_reserved_names;
          Alcotest.test_case "1k-node construction" `Quick test_large_graph;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "mlp fused end-to-end" `Quick test_mlp_fused;
          Alcotest.test_case "attention fused+resident" `Quick
            test_attention_fused_resident;
          Alcotest.test_case "unfused differential oracle" `Quick
            test_unfused_differential;
          Alcotest.test_case "fused matches unfused" `Quick
            test_fused_matches_unfused;
          Alcotest.test_case "structural dedup across nodes" `Quick
            test_engine_dedup;
        ] );
      ( "residency",
        [
          Alcotest.test_case "indexed scans match filtered" `Slow
            test_indexed_scans_match_filtered;
          Alcotest.test_case "compile allocation budget" `Quick
            test_compile_alloc_budget;
        ] );
    ]
