(* The whole-model workload: the MLP forward pass and the attention
   block compiled by [Graph.Compiled.compile] with fusion and MRAM
   residency on, then run through [Graph.Compiled.run].  It is the only
   workload where the executor (lib/tir Exec) does most of the work, and
   the only one that exercises fusion and residency. *)

open Common

(* Trial budgets per net, split across its distinct fused ops.  At the
   committed graph-pipeline rows' 64 trials the attention block's four
   ops get 16 trials each and its modeled latency swings by half from
   seed to seed; at 256 it converges. *)
let nets = [ (Imtp.Nets.mlp (), 160); (Imtp.Nets.attention (), 256) ]
let islands = 2

(* Tuning seeds per net.  Forward-pass cost follows the winning
   schedules (DPU count, tiling), so each rep compiles every net at
   several seeds and the passes cycle through all of them. *)
let slots = 4

(* Input sets per net, cycled through by the forward passes. *)
let input_sets = 8
let smoke_passes = 20

type net = {
  spec : Imtp.Nets.t;
  trials : int;
  graph : Imtp.Graph.t;
  ids : (string * Imtp.Graph.tid) list;
  prim : float;  (** per-op PrIM execution of every node, summed. *)
  prim_search : float;
  inputs : (string * Imtp.Tensor.t) list array;
  refs : (string * Imtp.Tensor.t) list array;
}

type compiled = {
  n : net;
  slot : int;
  tune_seed : int;
  c : Imtp.Graph.Compiled.t;
  engine : Imtp.Engine.t;
}

type state = {
  nets : net list;
  warm : compiled list;  (** the warm-up rep. *)
  baselines_s : float;
  inputs_s : float;
  reference_s : float;
}

let compile ?(fuse = true) ?engine n ~slot ~tune_seed =
  let engine = match engine with Some e -> e | None -> Imtp.Engine.create cfg in
  Span.run "bench.graph.compile"
    ~attrs:[ ("net", Imtp.Obs.Str n.spec.Imtp.Nets.sname) ]
    (fun () ->
      Result.map
        (fun c -> { n; slot; tune_seed; c; engine })
        (Imtp.Graph.Compiled.compile ~trials:n.trials ~seed:tune_seed ~jobs ~islands
           ~fuse ~resident:fuse ~engine cfg n.graph))

(* Every net at every slot, cold engines, with each compile's time. *)
let compile_rep tally nets ~seed =
  List.concat
    (List.mapi
       (fun i n -> List.init slots (fun slot -> (n, slot, (seed * 1000) + (10 * i) + slot)))
       nets)
  |> List.filter_map (fun (n, slot, tune_seed) ->
         let r, dt = time (fun () -> compile n ~slot ~tune_seed) in
         match r with
         | Ok c -> Some (c, dt)
         | Error m ->
             record tally false
               (lazy (Printf.sprintf "%s: compile: %s" n.spec.Imtp.Nets.sname m));
             None)

let setup ctx tally () =
  let inputs_s = ref 0. and reference_s = ref 0. and baselines_s = ref 0. in
  let nets =
    List.mapi
      (fun i (spec, trials) ->
        let graph, ids = Imtp.Graph.of_spec spec in
        (* PrIM runs the net one node at a time. *)
        let (prim, prim_search), dt =
          time (fun () ->
              let bs =
                Op_suite.baselines tally
                  (List.map
                     (fun (nd : Imtp.Nets.node) ->
                       Op_suite.entry (spec.Imtp.Nets.sname ^ "/" ^ nd.Imtp.Nets.id)
                         nd.Imtp.Nets.op)
                     spec.Imtp.Nets.nodes)
              in
              let sum f =
                Stat.sum
                  (List.map (function Ok b -> f b | Error _ -> nan) bs)
              in
              (sum (fun b -> b.Op_suite.prim), sum (fun b -> b.Op_suite.prim_search)))
        in
        baselines_s := !baselines_s +. dt;
        let inputs, dt =
          time (fun () ->
              Array.init input_sets (fun k ->
                  Imtp.Nets.random_inputs
                    ~seed:((ctx.seed * 64) + (input_sets * i) + k)
                    spec))
        in
        inputs_s := !inputs_s +. dt;
        let refs, dt =
          time (fun () -> Array.map (fun inputs -> Imtp.Nets.reference spec ~inputs) inputs)
        in
        reference_s := !reference_s +. dt;
        { spec; trials; graph; ids; prim; prim_search; inputs; refs })
      nets
  in
  let warm = List.map fst (compile_rep tally nets ~seed:ctx.seed) in
  {
    nets;
    warm;
    baselines_s = !baselines_s;
    inputs_s = !inputs_s;
    reference_s = !reference_s;
  }

let same_plan (a : compiled) (b : compiled) =
  Imtp.Graph.Compiled.describe a.c = Imtp.Graph.Compiled.describe b.c
  && Imtp.Graph.Compiled.estimate a.c = Imtp.Graph.Compiled.estimate b.c

(* One forward pass, every materialized node output checked against the
   reference chain.  Returns the pass time and executor counters. *)
let infer tally (w : compiled) k =
  let inputs = w.n.inputs.(k) in
  match
    time (fun () ->
        Span.run "bench.infer" (fun () -> Imtp.Graph.Compiled.run_counted w.c ~inputs))
  with
  | exception (Invalid_argument m | Imtp.Eval.Error m) ->
      record tally false
        (lazy (Printf.sprintf "%s: forward pass: %s" w.n.spec.Imtp.Nets.sname m));
      None
  | (outs, counters), dt ->
      Span.run "bench.validate" (fun () ->
          let checked = ref 0 in
          List.iter
            (fun (id, want) ->
              match
                List.assoc_opt
                  (Imtp.Graph.tid_name (List.assoc id w.n.ids))
                  outs
              with
              | None -> ()
              | Some got ->
                  incr checked;
                  let diff = Check.first_difference ~got ~want in
                  record tally (diff = None)
                    (lazy
                      (Printf.sprintf "%s seed %d input set %d: %s %s"
                         w.n.spec.Imtp.Nets.sname w.tune_seed k id
                         (Option.value diff ~default:""))))
            w.n.refs.(k);
          record tally (!checked > 0)
            (lazy (Printf.sprintf "%s: no output materialized" w.n.spec.Imtp.Nets.sname)));
      Some (dt, counters)

let total (w : compiled) = Imtp.Stats.total_s (Imtp.Graph.Compiled.estimate w.c)

(* Fusion and residency effect on slot 0 of each net: the per-op compile
   on the same engine, modeled and executed on input set 0. *)
let graph_layer tally st =
  let per_net =
    List.filter_map
      (fun (w : compiled) ->
        if w.slot <> 0 then None
        else
          match
            compile ~fuse:false ~engine:w.engine w.n ~slot:0 ~tune_seed:w.tune_seed
          with
          | Error m ->
              record tally false
                (lazy (Printf.sprintf "%s: per-op compile: %s" w.n.spec.Imtp.Nets.sname m));
              None
          | Ok base -> (
              match (infer tally w 0, infer tally base 0) with
              | Some (_, fc), Some (_, bc) ->
                  let xfer (c : Imtp.Eval.counters) =
                    float_of_int (c.Imtp.Eval.xfer_elems_h2d + c.Imtp.Eval.xfer_elems_d2h)
                  in
                  Some (w, total base /. total w, xfer fc, xfer bc)
              | _ -> None))
      st.warm
  in
  let sum f = Stat.sum (List.map f per_net) in
  let count f = sum (fun (w, _, _, _) -> float_of_int (f w.c)) in
  [
    ("graph.fused_away", count Imtp.Graph.Compiled.fused_count);
    ("graph.resident_edges", count Imtp.Graph.Compiled.resident_count);
    ( "graph.kernels",
      sum (fun (w, _, _, _) ->
          float_of_int
            (Imtp.Graph.node_count w.n.graph - Imtp.Graph.Compiled.fused_count w.c)) );
    ("graph.fusion_speedup", Stat.geomean (List.map (fun (_, s, _, _) -> s) per_net));
    ( "graph.xfer_saved_frac",
      1. -. (sum (fun (_, _, f, _) -> f) /. sum (fun (_, _, _, b) -> b)) );
  ]

let run ctx =
  let tally = tally () in
  let st, setup_s = repeated_setup ctx ~teardown:ignore (setup ctx tally) in
  let programs = Array.of_list st.warm in
  let np = Array.length programs in
  let passes = ref [] and next_pass = ref 0 in
  (* Fastest compile per program and fastest pass per (program, input
     set). *)
  let compiles = Array.make np infinity in
  let cells = Array.make (np * input_sets) infinity in
  let rep _ =
    let r = compile_rep tally st.nets ~seed:ctx.seed in
    List.iter
      (fun (c, dt) ->
        let i = ref (-1) in
        Array.iteri (fun j w -> if w.n == c.n && w.slot = c.slot then i := j) programs;
        let same = !i >= 0 && same_plan c programs.(!i) in
        if same then compiles.(!i) <- Float.min compiles.(!i) dt;
        record tally same
          (lazy
            (Printf.sprintf "%s seed %d: plan differs from rep 1's"
               c.n.spec.Imtp.Nets.sname c.tune_seed)))
      r;
    let compile_s = Stat.sum (List.map snd r) in
    (* Forward passes balance the compile time, cycling through every
       compiled program and every input set. *)
    let spent = ref 0. in
    let more () =
      if ctx.smoke then !next_pass < smoke_passes
      else !spent < compile_s
    in
    while more () do
      let p = !next_pass in
      incr next_pass;
      let cell = p mod Array.length cells in
      match infer tally programs.(cell mod np) (cell / np) with
      | Some (dt, c) ->
          spent := !spent +. dt;
          cells.(cell) <- Float.min cells.(cell) dt;
          passes := (dt, c) :: !passes
      | None -> ()
    done
  in
  let loop seconds = ignore (measure_loop { ctx with seconds } rep) in
  let finite a = List.filter Float.is_finite (Array.to_list a) in
  let untraced, cells, peak, traced_wall, traced_compiles, graph, exec_compile_ms =
    if not ctx.trace then begin
      loop ctx.seconds;
      (Array.copy compiles, cells, peak_rss_mb (), 0., [], [], 0.)
    end
    else begin
      loop (ctx.seconds /. 2.);
      let untraced = Array.copy compiles and untraced_cells = Array.copy cells in
      let peak = peak_rss_mb () in
      Array.fill compiles 0 np infinity;
      let (graph, exec_compile_ms), wall =
        with_tracing ctx (fun () ->
            loop (ctx.seconds /. 2.);
            let graph = graph_layer tally st in
            let _, dt =
              time (fun () ->
                  Array.iter
                    (fun w ->
                      Span.run "bench.exec" (fun () ->
                          ignore (Imtp.Exec.compile (Imtp.Graph.Compiled.program w.c))))
                    programs)
            in
            (graph, ms dt /. float_of_int np))
      in
      (untraced, untraced_cells, peak, wall, finite compiles, graph, exec_compile_ms)
    end
  in
  let pass_s = List.map fst !passes in
  let best = finite cells and tune_s = Stat.sum (finite untraced) in
  let modeled = List.map total st.warm in
  let e2e =
    [
      ("setup_s", setup_s);
      ("modeled_ms_geomean", Stat.geomean (List.map ms modeled));
      ("speedup_vs_prim", Stat.geomean (List.map (fun w -> w.n.prim /. total w) st.warm));
      ( "speedup_vs_prim_search",
        Stat.geomean (List.map (fun w -> w.n.prim_search /. total w) st.warm) );
      ("tune_s", tune_s);
      ("call_ms_p50", ms (Stat.percentile 0.5 best));
      ("call_ms_p75", ms (Stat.percentile 0.75 best));
      ("peak_rss_mb", peak);
    ]
  in
  let layer =
    if not ctx.trace then []
    else
      let counters = List.map (fun w -> Imtp.Engine.counters w.engine) st.warm in
      let n = float_of_int (max 1 (List.length counters)) in
      let per f = Stat.sum (List.map (fun c -> float_of_int (f c)) counters) /. n in
      let trials = Stat.mean (List.map (fun w -> float_of_int w.n.trials) st.warm) in
      [
        ("engine.built", per (fun c -> c.Imtp.Engine.built));
        ("engine.costed", per (fun c -> c.Imtp.Engine.costed));
        ("engine.failed", per (fun c -> c.Imtp.Engine.failed));
        ( "engine.hit_rate",
          per (fun c -> c.Imtp.Engine.hits) /. Float.max 1. (per (fun c -> c.Imtp.Engine.lookups)) );
        ( "autotune.trials_per_s",
          trials *. float_of_int (List.length (finite untraced)) /. tune_s );
        ("autotune.measured_frac", per (fun c -> c.Imtp.Engine.costed) /. trials);
        ("graph.compile_s", Stat.mean (finite untraced));
        ("baselines.s", st.baselines_s);
        ("tensor.inputs_s", st.inputs_s);
        ("tensor.reference_s", st.reference_s);
        ("tensor.validated_frac", 1.);
        ( "obs.trace_overhead_frac",
          (Stat.sum traced_compiles /. tune_s) -. 1. );
      ]
      @ exec_layer ~compile_ms:exec_compile_ms ~run_s:(Stat.sum pass_s)
          (List.map snd !passes)
      @ graph
      @ pass_layer (List.map (fun w -> Imtp.Graph.Compiled.program w.c) st.warm)
      @ upmem_layer (List.map (fun w -> Imtp.Graph.Compiled.estimate w.c) st.warm)
      @ self_frac_layer ~wall_s:traced_wall
  in
  let rows =
    List.mapi
      (fun i w ->
        Json.Obj
          [
            ("op", jstr w.n.spec.Imtp.Nets.sname);
            ("seed", jint w.tune_seed);
            ("trials", jint w.n.trials);
            ("islands", jint islands);
            ("plan", Json.List (List.map jstr (Imtp.Graph.Compiled.describe w.c)));
            ("modeled", stats_json (Imtp.Graph.Compiled.estimate w.c));
            ( "baseline",
              Json.Obj
                [
                  ("prim_ms", jnum (ms w.n.prim));
                  ("prim_search_ms", jnum (ms w.n.prim_search));
                ] );
            ("fused_away", jint (Imtp.Graph.Compiled.fused_count w.c));
            ("resident_edges", jint (Imtp.Graph.Compiled.resident_count w.c));
            ("compile_ms_best", jnum (ms untraced.(i)));
            ( "pass_ms_best",
              Json.List
                (List.init input_sets (fun k -> jnum (ms cells.((k * np) + i)))) );
            ("validated", Json.Bool true);
          ])
      st.warm
  in
  { attempted = tally.attempted; failed = tally.failed; islands; e2e; layer; programs = rows }
