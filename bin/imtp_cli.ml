(* imtp — command-line interface to the IMTP compiler and simulator.

   Subcommands:
     info                     describe the simulated machine and ops
     lower   <op> <sizes..>   print the lowered host+kernel TIR
     run     <op> <sizes..>   compile, execute, validate, and time
     tune    <op> <sizes..>   autotune and report the best schedule
     graph   <net> <sizes..>  fuse/tune/link a whole-model graph, execute
                              and validate it (--baseline for the per-op
                              comparison)
     baseline <op> <sizes..>  measure PrIM / PrIM(E) / PrIM+search / SimplePIM
     report  <trace>          summarize an observability trace (--trace)
     serve   --socket PATH    tuning-as-a-service daemon (docs/PROTOCOL.md)
     client  <cmd> ...        talk to a running daemon (run/tune/replay/
                              stats/shutdown)

   run/tune/replay/fuzz accept --trace FILE to stream tracing spans and
   a final metrics snapshot as JSONL; `imtp report FILE` renders it. *)

open Cmdliner

let cfg = Imtp.default_config

let op_conv =
  let parse s =
    if List.mem s Imtp.Ops.all_names then Ok s
    else
      Error
        (`Msg
          (Printf.sprintf "unknown op %s (expected one of: %s)" s
             (String.concat ", " Imtp.Ops.all_names)))
  in
  Arg.conv (parse, Format.pp_print_string)

(* Numeric arguments are checked where they are parsed, so a value the
   library would reject (or clamp) is a usage error like any other. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer >= 1" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let int_in ~lo ~hi =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo && n <= hi -> Ok n
    | Some _ | None ->
        Error
          (`Msg
             (Printf.sprintf "invalid value '%s', expected an integer in [%d, %d]"
                s lo hi))
  in
  Arg.conv (parse, Format.pp_print_int)

let unit_ratio =
  let parse s =
    match float_of_string_opt s with
    | Some r when r > 0. && r <= 1. -> Ok r
    | Some _ | None ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected a number in (0,1]" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let op_arg =
  Arg.(
    required
    & pos 0 (some op_conv) None
    & info [] ~docv:"OP" ~doc:"Operation name (va, geva, red, mtv, gemv, ttv, mmtv).")

let sizes_arg =
  Arg.(
    non_empty
    & pos_right 0 int []
    & info [] ~docv:"SIZES" ~doc:"Dimension extents, e.g. 'mtv 512 2048'.")

let trials_arg =
  Arg.(
    value & opt positive_int 128
    & info [ "trials" ] ~doc:"Autotuning trial budget.")

let seed_arg =
  Arg.(value & opt int 2025 & info [ "seed" ] ~doc:"Random seed for the search.")

let dpus_arg =
  Arg.(
    value
    & opt int (Imtp.Config.nr_dpus cfg)
    & info [ "dpus" ] ~doc:"Limit the simulated machine to N DPUs.")

let no_passes_arg =
  Arg.(
    value & flag
    & info [ "no-passes" ] ~doc:"Disable the PIM-aware optimization passes.")

let jobs_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel candidate evaluation.  Defaults to \
           $(b,IMTP_JOBS) from the environment, else the machine's \
           recommended domain count; $(docv)=1 disables parallelism \
           entirely (no domains are spun up).  Results are bit-identical \
           at any value — only wall-clock time changes.")

(* The CLI resolves -j once into the process-wide default, so every
   layer below (tuner batches, fuzz cases) picks it up without
   threading a parameter through each call. *)
let apply_jobs jobs = Option.iter Imtp.Pool.set_default_jobs jobs

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write an observability trace to $(docv): one JSONL line per \
           tracing span, plus a final metrics snapshot (counters, gauges, \
           histograms).  Inspect it with 'imtp report $(docv)'.")

let with_trace trace f = Imtp.Obs.with_sink trace f

let machine dpus = Imtp.Config.with_dpus cfg dpus

let build_op name sizes = Imtp.Ops.by_name name ~sizes

(* --- info ------------------------------------------------------------ *)

let info_cmd =
  let doc = "Describe the simulated UPMEM machine and available operations." in
  let run () =
    Format.printf "machine: %a@." Imtp.Config.pp cfg;
    Format.printf "operations:@.";
    List.iter
      (fun name ->
        let arity =
          match name with
          | "va" | "geva" | "red" -> "<n>"
          | "mtv" | "gemv" -> "<rows> <cols>"
          | "gemm" -> "<rows> <cols> <inner>"
          | _ -> "<batch> <rows> <cols>"
        in
        Format.printf "  %-6s %s@." name arity)
      Imtp.Ops.all_names
  in
  Cmd.v (Cmd.info "info" ~doc) Term.(const run $ const ())

(* --- lower ----------------------------------------------------------- *)

let lower_cmd =
  let doc = "Lower an operation with a default schedule and print the TIR." in
  let run name sizes no_passes dpus =
    let op = build_op name sizes in
    let config = machine dpus in
    let sched = Imtp.Sketch.instantiate op (Imtp.Sketch.default_for config op) in
    let prog =
      if no_passes then Imtp.Lowering.lower sched
      else Imtp.compile ~config sched
    in
    print_string (Imtp.Printer.program_to_string prog)
  in
  Cmd.v
    (Cmd.info "lower" ~doc)
    Term.(const run $ op_arg $ sizes_arg $ no_passes_arg $ dpus_arg)

(* --- codegen --------------------------------------------------------- *)

let codegen_cmd =
  let doc = "Emit UPMEM-SDK-style C for an operation's compiled program." in
  let run name sizes dpus =
    let op = build_op name sizes in
    let config = machine dpus in
    let sched = Imtp.Sketch.instantiate op (Imtp.Sketch.default_for config op) in
    let prog = Imtp.compile ~config sched in
    print_string (Imtp.Codegen_c.program_to_c prog)
  in
  Cmd.v (Cmd.info "codegen" ~doc) Term.(const run $ op_arg $ sizes_arg $ dpus_arg)

(* --- run ------------------------------------------------------------- *)

let run_cmd =
  let doc = "Compile with a default schedule, execute on the functional \
             simulator, validate against the reference, and report timing." in
  let run name sizes dpus jobs trace =
    apply_jobs jobs;
    with_trace trace @@ fun () ->
    let op = build_op name sizes in
    let config = machine dpus in
    let engine = Imtp.Engine.create config in
    match Imtp.Engine.build engine op (Imtp.Sketch.default_for config op) with
    | Error e ->
        Format.eprintf "error: %s@." (Imtp.Engine.error_to_string e);
        exit 1
    | Ok art ->
        let prog = art.Imtp.Engine.program in
        let inputs = Imtp.Ops.random_inputs op in
        let outs =
          Imtp.Obs.span ~name:"cli.execute" (fun () ->
              Imtp.execute ~inputs prog op)
        in
        let got = List.assoc (fst op.Imtp.Op.output) outs in
        let want = Imtp.Op.reference op inputs in
        let ok = Imtp.Tensor.same_values got want in
        Format.printf "result: %s@." (if ok then "VALID" else "MISMATCH");
        Format.printf "timing: %a@." Imtp.Stats.pp art.Imtp.Engine.stats;
        if not ok then exit 1
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ op_arg $ sizes_arg $ dpus_arg $ jobs_arg $ trace_arg)

(* --- tune ------------------------------------------------------------ *)

let log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log" ] ~docv:"FILE" ~doc:"Write the tuning history to a log file.")

let measure_ratio_arg =
  Arg.(
    value
    & opt unit_ratio 0.2
    & info [ "measure-ratio" ] ~docv:"R"
        ~doc:
          "Fraction of each search generation the learned cost model \
           forwards to the simulator (in (0,1]). Ignored under \
           $(b,--no-cost-model).")

let islands_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "islands" ] ~docv:"K"
        ~doc:
          "Shard the evolutionary search into $(docv) independent island \
           populations with ring migration of elites (see DESIGN.md).  \
           Defaults to 1, whatever the job count or the environment.  \
           Results are bit-identical at any $(b,--jobs) value for a fixed \
           $(docv); different island counts are different (equally \
           deterministic) searches.")

let no_cost_model_arg =
  Arg.(
    value & flag
    & info [ "no-cost-model" ]
        ~doc:
          "Disable the learned TIR cost model's measurement gate: the \
           search simulates every candidate it has not measured before \
           and extracts no model features.")

let tune_cmd =
  let doc = "Autotune an operation and report the winning schedule." in
  let run name sizes trials seed dpus jobs islands measure_ratio no_cost_model
      log trace =
    apply_jobs jobs;
    with_trace trace @@ fun () ->
    let op = build_op name sizes in
    let config = machine dpus in
    let measure_ratio = if no_cost_model then None else Some measure_ratio in
    match Imtp.Tuner.tune ~trials ~seed ?islands ?measure_ratio config op with
    | Error m ->
        Format.eprintf "error: %s@." m;
        exit 1
    | Ok r ->
        Format.printf "best:   %s@." (Imtp.Tuner.describe r);
        Format.printf "timing: %a@." Imtp.Stats.pp r.Imtp.Tuner.stats;
        let s = r.Imtp.Tuner.search in
        Format.printf "search: %d measured, %d invalid candidates filtered@."
          s.Imtp.Search.measured s.Imtp.Search.invalid_candidates;
        if s.Imtp.Search.islands > 1 then
          Format.printf "search: %d islands (%s migrated elites)@."
            s.Imtp.Search.islands
            (String.concat "+"
               (List.map
                  (fun (i : Imtp.Search.island_stats) ->
                    string_of_int i.Imtp.Search.island_migrations)
                  s.Imtp.Search.per_island));
        if s.Imtp.Search.rejections <> [] then
          Format.printf "search: rejected by constraint: %s@."
            (String.concat ", "
               (List.map
                  (fun (name, n) -> Printf.sprintf "%s=%d" name n)
                  s.Imtp.Search.rejections));
        Format.printf
          "search: %d simulator executions, %d candidates gated out \
           (predicted only)@."
          s.Imtp.Search.measured_trials s.Imtp.Search.skipped;
        Format.printf "search: %.2f s wall clock (%.0f trials/s)@."
          s.Imtp.Search.elapsed_s
          (float_of_int trials /. Float.max 1e-9 s.Imtp.Search.elapsed_s);
        let c = r.Imtp.Tuner.cache in
        Format.printf
          "engine: %d/%d lookups served from cache (%.0f%% hit rate), %d \
           search candidates deduplicated@."
          c.Imtp.Engine.hits c.Imtp.Engine.lookups
          (100. *. Imtp.Engine.hit_rate c)
          s.Imtp.Search.cache_hits;
        Format.printf "schedule primitives:@.";
        List.iter
          (fun line -> Format.printf "  %s@." line)
          (Imtp.Sched.trace (Imtp.Sketch.instantiate op r.Imtp.Tuner.params));
        Option.iter
          (fun path ->
            Imtp.Tuning_log.save path ~op_name:name r.Imtp.Tuner.search;
            Format.printf "tuning log written to %s@." path)
          log
  in
  Cmd.v
    (Cmd.info "tune" ~doc)
    Term.(
      const run $ op_arg $ sizes_arg $ trials_arg $ seed_arg $ dpus_arg
      $ jobs_arg $ islands_arg $ measure_ratio_arg $ no_cost_model_arg
      $ log_arg $ trace_arg)

(* --- graph ----------------------------------------------------------- *)

let graph_cmd =
  let doc =
    "Compile a whole-model graph: fuse elementwise epilogues into their \
     producers, tune the distinct fused ops jointly under one shared \
     engine, keep compatible intermediates resident in MRAM, link one \
     combined program, execute it and validate every materialized \
     output against the reference chain."
  in
  let net_conv =
    let parse s =
      if List.mem s Imtp.Nets.all_names then Ok s
      else
        Error
          (`Msg
            (Printf.sprintf "unknown net %s (expected one of: %s)" s
               (String.concat ", " Imtp.Nets.all_names)))
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let net_arg =
    Arg.(
      required
      & pos 0 (some net_conv) None
      & info [] ~docv:"NET"
          ~doc:"Model name: mlp (sizes d_in d_hidden d_out) or attention \
                (sizes heads tokens dim).")
  in
  let net_sizes_arg =
    Arg.(
      value
      & pos_right 0 int []
      & info [] ~docv:"SIZES"
          ~doc:"Optional dimension overrides, e.g. 'mlp 256 256 128'.")
  in
  let graph_trials_arg =
    Arg.(
      value & opt positive_int 96
      & info [ "trials" ]
          ~doc:
            "Joint tuning budget, split across the graph's distinct \
             (structurally deduplicated) fused ops.")
  in
  let no_fuse_arg =
    Arg.(
      value & flag
      & info [ "no-fuse" ] ~doc:"Disable epilogue fusion (one kernel per node).")
  in
  let no_resident_arg =
    Arg.(
      value & flag
      & info [ "no-resident" ]
          ~doc:"Disable MRAM residency planning (host round-trip between \
                every pair of nodes).")
  in
  let graph_baseline_arg =
    Arg.(
      value & flag
      & info [ "baseline" ]
          ~doc:
            "Also compile the per-op baseline (no fusion, no residency) \
             on the same engine and report the modeled-latency and \
             host-transfer comparison.")
  in
  let graph_cmd_run name sizes trials seed dpus jobs islands measure_ratio
      no_cost_model no_fuse no_resident baseline trace =
    apply_jobs jobs;
    with_trace trace @@ fun () ->
    let sizes = match sizes with [] -> None | s -> Some s in
    let spec = Imtp.Nets.by_name ?sizes name in
    let g, ids = Imtp.Graph.of_spec spec in
    let config = machine dpus in
    let measure_ratio = if no_cost_model then None else Some measure_ratio in
    let engine = Imtp.Engine.create config in
    let compile ~fuse ~resident =
      Imtp.Graph.Compiled.compile ~trials ~seed ?jobs ?islands ?measure_ratio
        ~fuse ~resident ~engine config g
    in
    let transfers outs_counters =
      let _, (c : Imtp.Eval.counters) = outs_counters in
      (c.Imtp.Eval.xfer_elems_h2d, c.Imtp.Eval.xfer_elems_d2h)
    in
    match compile ~fuse:(not no_fuse) ~resident:(not no_resident) with
    | Error m ->
        Format.eprintf "error: %s@." m;
        exit 1
    | Ok c ->
        Format.printf "net:    %s (%d nodes, %d fused away, %d resident \
                       edges)@."
          spec.Imtp.Nets.sname (Imtp.Graph.node_count g)
          (Imtp.Graph.Compiled.fused_count c)
          (Imtp.Graph.Compiled.resident_count c);
        List.iter
          (fun line -> Format.printf "  %s@." line)
          (Imtp.Graph.Compiled.describe c);
        Format.printf "per-node estimates:@.";
        List.iter
          (fun (key, stats) ->
            Format.printf "  %-24s %a@." key Imtp.Stats.pp stats)
          (Imtp.Graph.Compiled.node_stats c);
        let total = Imtp.Graph.Compiled.estimate c in
        Format.printf "combined: %a@." Imtp.Stats.pp total;
        let inputs = Imtp.Nets.random_inputs spec in
        let outs, counters = Imtp.Graph.Compiled.run_counted c ~inputs in
        let refs = Imtp.Nets.reference spec ~inputs in
        let checked = ref 0 and bad = ref 0 in
        List.iter
          (fun (id, want) ->
            let gname = Imtp.Graph.tid_name (List.assoc id ids) in
            match List.assoc_opt gname outs with
            | None -> ()
            | Some got ->
                incr checked;
                if not (Imtp.Tensor.same_values got want) then begin
                  incr bad;
                  Format.eprintf "MISMATCH at %s (%s)@." id gname
                end)
          refs;
        Format.printf "result: %s (%d materialized outputs checked)@."
          (if !bad = 0 then "VALID" else "MISMATCH")
          !checked;
        Format.printf
          "executed transfers: %d elems host->DPU, %d elems DPU->host@."
          counters.Imtp.Eval.xfer_elems_h2d counters.Imtp.Eval.xfer_elems_d2h;
        let cache = Imtp.Engine.counters engine in
        Format.printf "engine: %d programs built, %d cache hits@."
          cache.Imtp.Engine.built cache.Imtp.Engine.hits;
        if !bad > 0 then exit 1;
        if baseline then begin
          match compile ~fuse:false ~resident:false with
          | Error m ->
              Format.eprintf "error compiling baseline: %s@." m;
              exit 1
          | Ok b ->
              let btotal = Imtp.Graph.Compiled.estimate b in
              let bh2d, bd2h =
                transfers (Imtp.Graph.Compiled.run_counted b ~inputs)
              in
              Format.printf "baseline (per-op): %a@." Imtp.Stats.pp btotal;
              Format.printf
                "baseline transfers: %d elems host->DPU, %d elems DPU->host@."
                bh2d bd2h;
              Format.printf
                "graph vs per-op: %.2fx modeled latency, %+d h2d elems, \
                 %+d d2h elems@."
                (Imtp.Stats.speedup ~baseline:btotal total)
                (counters.Imtp.Eval.xfer_elems_h2d - bh2d)
                (counters.Imtp.Eval.xfer_elems_d2h - bd2h)
        end
  in
  Cmd.v
    (Cmd.info "graph" ~doc)
    Term.(
      const graph_cmd_run $ net_arg $ net_sizes_arg $ graph_trials_arg
      $ seed_arg $ dpus_arg $ jobs_arg $ islands_arg $ measure_ratio_arg
      $ no_cost_model_arg $ no_fuse_arg $ no_resident_arg
      $ graph_baseline_arg $ trace_arg)

(* --- replay ---------------------------------------------------------- *)

let replay_cmd =
  let doc = "Reload a tuning log and re-measure its best schedule." in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"LOG" ~doc:"Tuning log written by 'tune --log'.")
  in
  let szs =
    Arg.(
      non_empty & pos_right 0 int []
      & info [] ~docv:"SIZES" ~doc:"Dimension extents of the logged operation.")
  in
  let run file sizes trace =
    with_trace trace @@ fun () ->
    match Imtp.Tuning_log.load file with
    | Error m ->
        Format.eprintf "error: %s@." m;
        exit 1
    | Ok (hdr, entries) -> (
        let op_name = hdr.Imtp.Tuning_log.op_name in
        Format.printf "log: op=%s, %d entries@." op_name (List.length entries);
        (match hdr.Imtp.Tuning_log.duration_s with
        | Some d when d > 0. ->
            Format.printf "tuned in: %.2f s (%.0f trials/s)@." d
              (float_of_int (List.length entries) /. d)
        | Some _ | None -> ());
        match Imtp.Tuning_log.best entries with
        | None ->
            Format.eprintf "error: empty log@.";
            exit 1
        | Some e -> (
            let op = build_op op_name sizes in
            Format.printf "best logged: trial %d, %.3f ms, %s@."
              e.Imtp.Tuning_log.trial
              (e.Imtp.Tuning_log.latency_s *. 1e3)
              (Imtp.Sketch.describe e.Imtp.Tuning_log.params);
            let engine = Imtp.Engine.create cfg in
            match Imtp.Engine.measure engine op e.Imtp.Tuning_log.params with
            | Error err ->
                Format.eprintf "error: %s@." (Imtp.Engine.error_to_string err);
                exit 1
            | Ok m ->
                Format.printf "re-measured:  %.3f ms@."
                  (m.Imtp.Engine.latency_s *. 1e3)))
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const run $ file_arg $ szs $ trace_arg)

(* --- fuzz ------------------------------------------------------------ *)

let fuzz_cmd =
  let doc =
    "Run a differential-testing campaign: random workloads and schedules, \
     checked bit-exactly against reference semantics under every pass \
     configuration."
  in
  let cases_arg =
    Arg.(
      value & opt int 500
      & info [ "cases" ] ~doc:"Number of checked cases in the campaign.")
  in
  let fuzz_seed_arg =
    Arg.(
      value & opt int 2025
      & info [ "seed" ] ~doc:"Campaign seed; failures reproduce from it.")
  in
  let case_arg =
    Arg.(
      value & opt (some int) None
      & info [ "case" ]
          ~doc:
            "Re-check only the case at this index (reproduce a reported \
             failure without re-running the whole campaign).")
  in
  let no_shrink_arg =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Report failures without minimizing them.")
  in
  let fuzz_graph_arg =
    Arg.(
      value & flag
      & info [ "graph" ]
          ~doc:
            "Graph mode: random small dataflow graphs through the graph \
             compiler (fused + resident and per-op), checked bit-exactly \
             against the per-op reference chain and across both \
             executors.  Budget with a smaller $(b,--cases) — each case \
             compiles and tunes a whole graph twice.")
  in
  let run seed cases case no_shrink graph jobs trace =
    apply_jobs jobs;
    with_trace trace @@ fun () ->
    if graph then begin
      Format.printf "graph fuzzing: seed=%d cases=%d@." seed cases;
      let progress i =
        if (i + 1) mod 10 = 0 then
          Format.printf "  ... %d/%d cases@.%!" (i + 1) cases
      in
      let outcome = Imtp.Fuzz_graph.run ~progress ~seed ~cases () in
      print_string (Imtp.Fuzz_graph.summary ~seed outcome);
      if outcome.Imtp.Fuzz_graph.failures <> [] then exit 1
    end
    else
    match case with
    | Some index -> (
        match Imtp.Fuzz.case_of_seed ~seed ~index with
        | None ->
            Format.eprintf "error: case %d of seed %d never lowers@." index seed;
            exit 1
        | Some c -> (
            match Imtp.Fuzz_oracle.check c with
            | Imtp.Fuzz_oracle.Passed { configs_checked } ->
                Format.printf "case %d: PASSED (%d pass configs)@." index
                  configs_checked
            | Imtp.Fuzz_oracle.Rejected m ->
                Format.printf "case %d: rejected by lowering (%s)@." index m
            | Imtp.Fuzz_oracle.Failed f ->
                let c = if no_shrink then c else Imtp.Fuzz_shrink.minimize c in
                let f =
                  match Imtp.Fuzz_oracle.check c with
                  | Imtp.Fuzz_oracle.Failed f -> f
                  | _ -> f
                in
                print_string (Imtp.Fuzz.report_failure index c f);
                exit 1))
    | None ->
        Format.printf "fuzzing: seed=%d cases=%d jobs=%d@." seed cases
          (Imtp.Pool.default_jobs ());
        let progress i =
          if (i + 1) mod 100 = 0 then
            Format.printf "  ... %d/%d cases@.%!" (i + 1) cases
        in
        let outcome =
          Imtp.Fuzz.run ~progress ~shrink:(not no_shrink) ~seed ~cases ()
        in
        print_string (Imtp.Fuzz.summary ~seed outcome);
        if outcome.Imtp.Fuzz.failures <> [] then exit 1
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ fuzz_seed_arg $ cases_arg $ case_arg $ no_shrink_arg
      $ fuzz_graph_arg $ jobs_arg $ trace_arg)

(* --- report ---------------------------------------------------------- *)

let report_cmd =
  let doc =
    "Summarize an observability trace written with --trace: per-span latency \
     percentiles, counters, gauges, histogram quantiles, and the engine \
     cache hit rate.  With --folded, emit flamegraph-friendly folded stacks \
     instead."
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:"JSONL trace file written by 'run'/'tune'/'replay'/'fuzz' --trace.")
  in
  let folded_arg =
    Arg.(
      value & flag
      & info [ "folded" ]
          ~doc:
            "Emit folded stacks — one 'path;to;span <self-time-µs>' line per \
             call path — ready for flamegraph.pl or speedscope.")
  in
  let run file folded =
    match Imtp.Obs.load_jsonl file with
    | Error m ->
        Format.eprintf "error: %s@." m;
        exit 1
    | Ok events ->
        if folded then
          List.iter
            (fun (path, us) -> Format.printf "%s %d@." path us)
            (Imtp.Obs.folded events)
        else Format.printf "%a" Imtp.Obs.pp_events events
  in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run $ file_arg $ folded_arg)

(* --- baseline -------------------------------------------------------- *)

let baseline_cmd =
  let doc = "Measure the PrIM, PrIM(E), PrIM+search and SimplePIM baselines." in
  let run name sizes dpus =
    let op = build_op name sizes in
    let config = machine dpus in
    let show label = function
      | Ok s -> Format.printf "%-12s %a@." label Imtp.Stats.pp s
      | Error m -> Format.printf "%-12s unavailable (%s)@." label m
    in
    show "PrIM" (Imtp.Prim.measure config op (Imtp.Prim.default_for op));
    show "PrIM(E)" (Result.map snd (Imtp.Prim.prim_e config op));
    show "PrIM+search" (Result.map snd (Imtp.Prim.grid_search config op));
    show "SimplePIM" (Imtp.Simplepim.measure config op)
  in
  Cmd.v (Cmd.info "baseline" ~doc) Term.(const run $ op_arg $ sizes_arg $ dpus_arg)

(* --- serve ----------------------------------------------------------- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket path.  The daemon creates it mode 0600 and \
           removes it on clean shutdown; clients connect to it.")

let serve_cmd =
  let doc =
    "Run the tuning daemon: one shared engine (memo cache, compiled \
     executors, domain pool) serving run/tune/replay/stats requests over a \
     Unix-domain socket.  The wire format is specified in docs/PROTOCOL.md.  \
     Tune sessions checkpoint to --checkpoint-dir at every generation, so a \
     killed daemon resumes interrupted searches bit-identically."
  in
  let ckpt_dir_arg =
    Arg.(
      value
      & opt string "imtp-checkpoints"
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for tune-session checkpoints (created if missing).  \
             One $(b,<session>.ckpt) per active session; completed sessions \
             delete theirs, interrupted ones leave it for resumption.")
  in
  let max_sessions_arg =
    Arg.(
      value
      & opt (int_in ~lo:1 ~hi:Imtp.Serve.max_sessions_limit) 2
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:
            "Tune sessions run in parallel, each on a domain of its own \
             (at most 32); further requests queue.  Values above the \
             host's core count oversubscribe it.")
  in
  let queue_limit_arg =
    Arg.(
      value & opt positive_int 16
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:
            "Waiting tune requests before new ones are refused with the \
             $(b,busy) error (backpressure).")
  in
  let checkpoint_every_arg =
    Arg.(
      value & opt positive_int 1
      & info [ "checkpoint-every" ] ~docv:"G"
          ~doc:"Checkpoint period, in search generations.")
  in
  let run socket checkpoint_dir max_sessions queue_limit checkpoint_every dpus
      jobs trace =
    apply_jobs jobs;
    with_trace trace @@ fun () ->
    let config = machine dpus in
    match
      Imtp.Serve.run ~machine:config
        {
          Imtp.Serve.socket;
          checkpoint_dir;
          max_sessions;
          queue_limit;
          checkpoint_every;
        }
    with
    | Ok () -> ()
    | Error m ->
        Format.eprintf "error: %s@." m;
        exit 1
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ ckpt_dir_arg $ max_sessions_arg
      $ queue_limit_arg $ checkpoint_every_arg $ dpus_arg $ jobs_arg
      $ trace_arg)

(* --- client ---------------------------------------------------------- *)

(* Each client subcommand prints the response body as one JSON line —
   the same object the wire carries (docs/PROTOCOL.md) — so scripts
   can pipe it without scraping human-formatted text. *)

let client_fail e =
  Format.eprintf "error: %s@." (Imtp.Serve_client.error_to_string e);
  exit 1

let with_client socket f =
  match Imtp.Serve_client.with_connection ~socket f with
  | Ok body -> print_endline (Imtp.Obs.Json.to_string body)
  | Error e -> client_fail e

let client_run_cmd =
  let doc = "Compile, execute and validate an op on the daemon's engine." in
  let run socket name sizes =
    with_client socket (fun c -> Imtp.Serve_client.run c ~op:name ~sizes)
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ socket_arg $ op_arg $ sizes_arg)

let session_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "session" ] ~docv:"NAME"
        ~doc:
          "Checkpoint session name ([A-Za-z0-9._-]+).  Re-sending a tune \
           with the name of an interrupted session resumes it from its \
           checkpoint.  Derived from op/sizes/seed/trials when omitted.")

let client_tune_cmd =
  let doc =
    "Run a checkpointed tune session on the daemon (queued under its \
     admission control) and print the outcome, including the history \
     digest."
  in
  let run socket name sizes trials seed islands measure_ratio no_cost_model
      session =
    let measure_ratio = if no_cost_model then None else Some measure_ratio in
    with_client socket (fun c ->
        Imtp.Serve_client.tune c
          {
            Imtp.Protocol.op = name;
            sizes;
            trials;
            seed;
            measure_ratio;
            islands;
            session;
          })
  in
  Cmd.v (Cmd.info "tune" ~doc)
    Term.(
      const run $ socket_arg $ op_arg $ sizes_arg $ trials_arg $ seed_arg
      $ islands_arg $ measure_ratio_arg $ no_cost_model_arg $ session_arg)

let client_replay_cmd =
  let doc =
    "Re-measure the best entry of a tuning log through the daemon's shared \
     engine.  The log path is read on the $(i,server's) filesystem."
  in
  let log_pos_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"LOG" ~doc:"Server-local tuning log path.")
  in
  let szs =
    Arg.(
      non_empty & pos_right 0 int []
      & info [] ~docv:"SIZES" ~doc:"Dimension extents of the logged operation.")
  in
  let run socket log sizes =
    with_client socket (fun c -> Imtp.Serve_client.replay c ~log ~sizes)
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(const run $ socket_arg $ log_pos_arg $ szs)

let client_stats_cmd =
  let doc =
    "Print the daemon's engine/pool/session counters and metrics snapshot."
  in
  let run socket = with_client socket Imtp.Serve_client.stats in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ socket_arg)

let client_shutdown_cmd =
  let doc =
    "Ask the daemon to drain and exit: running searches checkpoint at their \
     next generation boundary and answer interrupted."
  in
  let run socket =
    match
      Imtp.Serve_client.with_connection ~socket (fun c ->
          Result.map (fun () -> Imtp.Obs.Json.Obj []) (Imtp.Serve_client.shutdown c))
    with
    | Ok _ -> print_endline "shutdown requested"
    | Error e -> client_fail e
  in
  Cmd.v (Cmd.info "shutdown" ~doc) Term.(const run $ socket_arg)

let client_cmd =
  let doc = "Talk to a running 'imtp serve' daemon (docs/PROTOCOL.md)." in
  Cmd.group
    (Cmd.info "client" ~doc)
    [
      client_run_cmd;
      client_tune_cmd;
      client_replay_cmd;
      client_stats_cmd;
      client_shutdown_cmd;
    ]

let () =
  let doc = "search-based code generation for in-memory tensor programs" in
  let info = Cmd.info "imtp" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            info_cmd;
            lower_cmd;
            codegen_cmd;
            run_cmd;
            tune_cmd;
            graph_cmd;
            replay_cmd;
            baseline_cmd;
            fuzz_cmd;
            report_cmd;
            serve_cmd;
            client_cmd;
          ]))
