(* Settings and plumbing shared by the four workloads. *)

module Json = Imtp.Obs.Json

let cfg = Imtp.default_config

(* Every call pins one worker domain.  At a fixed island count results
   do not depend on the job count, and on a small host extra domains
   only widen the run-to-run spread of the wall-clock metrics. *)
let jobs = 1

(* Settings that would change what a run measures behind its back. *)
let forbidden_env =
  [ "IMTP_EXEC"; "IMTP_JOBS"; "IMTP_ISLANDS"; "IMTP_SIM_LATENCY_US"; "IMTP_TRACE" ]

let now = Unix.gettimeofday

let start = now ()

(* Progress on stderr, stamped with the seconds since start, so stdout
   stays the metric listing. *)
let note fmt =
  Printf.ksprintf (fun s -> Printf.eprintf "suite: [%6.2f s] %s\n%!" (now () -. start) s) fmt

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

type ctx = {
  seed : int;
  seconds : float;  (** measurement budget of the run. *)
  trace : bool;  (** per-layer run: bench spans on, Obs sink, stage replay. *)
  smoke : bool;  (** one rep, 20 passes, 48 requests, one set-up. *)
  tmp : string;  (** scratch directory inside the checkout. *)
  trace_file : string option;
}

(* Attempted operations and failures; every failure is explained on
   stderr. *)
type tally = { mutable attempted : int; mutable failed : int; lock : Mutex.t }

let tally () = { attempted = 0; failed = 0; lock = Mutex.create () }

let record t ok what =
  Mutex.protect t.lock (fun () ->
      t.attempted <- t.attempted + 1;
      if not ok then t.failed <- t.failed + 1);
  if not ok then Printf.eprintf "FAILED: %s\n%!" (Lazy.force what)

type outcome = {
  attempted : int;
  failed : int;
  islands : int;  (** pinned island count of the workload's searches. *)
  e2e : (string * float) list;
  layer : (string * float) list;  (** filled on traced runs only. *)
  programs : Json.t list;  (** one row per program the run produced. *)
}

(* Set-up runs several times and the median is reported, so a change
   that moves work into set-up shows; [teardown] releases an earlier
   repetition's state outside the timed region. *)
let repeated_setup ctx ~teardown setup =
  let n = if ctx.smoke then 1 else 3 in
  let rec go i prev times =
    Option.iter teardown prev;
    Gc.full_major ();
    let state, dt = time setup in
    note "set-up %d/%d: %.2f s" (i + 1) n dt;
    if i + 1 < n then go (i + 1) (Some state) (dt :: times)
    else (state, Stat.median (dt :: times))
  in
  go 0 None []

(* Calls [rep] until [ctx.seconds] of wall clock have gone by, at least
   three times (once per half of a traced run, once in a smoke run).
   Each rep starts from a collected heap so reps see the same allocator
   state. *)
let measure_loop ctx rep =
  let min_reps = if ctx.smoke || ctx.trace then 1 else 3 in
  let t0 = now () in
  let rec go i =
    if i >= min_reps && (ctx.smoke || now () -. t0 >= ctx.seconds) then begin
      note "%d reps in %.2f s%s" i (now () -. t0)
        (if !Span.enabled then " (traced)" else "");
      i
    end
    else begin
      Gc.full_major ();
      rep i;
      go (i + 1)
    end
  in
  go 0

let ms s = 1e3 *. s

(* Every rep repeats identical work, and load from elsewhere on the host
   only ever slows a run down, so the fastest run of a piece of work is
   the least disturbed measurement of it: wall-clock metrics are built
   from each call's fastest run across reps (or, where calls overlap,
   the fastest rep). *)
let fastest xs = List.fold_left Float.min infinity xs

(* [reps] holds one list of per-call times per rep, in call order. *)
let per_call_best = function
  | [] -> []
  | r :: rest -> List.fold_left (List.map2 Float.min) r rest

(* Resident-set high-water mark of this process. *)
let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec scan () =
            match In_channel.input_line ic with
            | None -> None
            | Some l when String.starts_with ~prefix:"VmHWM:" l ->
                Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
            | Some _ -> scan ()
          in
          scan ())
    with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.

(* The commit being measured, read from [.git] in the working directory
   only (a checkout without one reports "unknown"). *)
let git_rev () =
  let read f =
    try Some (String.trim (In_channel.with_open_text f In_channel.input_all))
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | Some sha -> sha
      | None -> (
          match read ".git/packed-refs" with
          | None -> "unknown"
          | Some packed -> (
              let line =
                List.find_opt
                  (fun l -> String.ends_with ~suffix:(" " ^ r) l)
                  (String.split_on_char '\n' packed)
              in
              match line with
              | Some l -> List.hd (String.split_on_char ' ' l)
              | None -> "unknown")))
  | Some sha -> sha

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let jnum f = if Float.is_finite f then Json.Num f else Json.Null
let jint n = Json.Num (float_of_int n)
let jstr s = Json.Str s

let stats_json (s : Imtp.Stats.t) =
  Json.Obj
    [
      ("total_ms", jnum (ms (Imtp.Stats.total_s s)));
      ("h2d_ms", jnum (ms s.Imtp.Stats.h2d_s));
      ("launch_ms", jnum (ms s.Imtp.Stats.launch_s));
      ("kernel_ms", jnum (ms s.Imtp.Stats.kernel_s));
      ("d2h_ms", jnum (ms s.Imtp.Stats.d2h_s));
      ("host_ms", jnum (ms s.Imtp.Stats.host_s));
      ("bytes_h2d", jint s.Imtp.Stats.bytes_h2d);
      ("bytes_d2h", jint s.Imtp.Stats.bytes_d2h);
    ]

(* Modeled-time breakdown averaged over a run's programs. *)
let upmem_layer (stats : Imtp.Stats.t list) =
  let avg f = Stat.mean (List.map f stats) in
  [
    ("upmem.h2d_ms", avg (fun s -> ms s.Imtp.Stats.h2d_s));
    ("upmem.kernel_ms", avg (fun s -> ms s.Imtp.Stats.kernel_s));
    ("upmem.d2h_ms", avg (fun s -> ms s.Imtp.Stats.d2h_s));
    ("upmem.host_ms", avg (fun s -> ms s.Imtp.Stats.host_s));
    ("upmem.launch_ms", avg (fun s -> ms s.Imtp.Stats.launch_s));
    ( "upmem.bytes_h2d_mb",
      avg (fun s -> float_of_int s.Imtp.Stats.bytes_h2d /. 1048576.) );
    ( "upmem.bytes_d2h_mb",
      avg (fun s -> float_of_int s.Imtp.Stats.bytes_d2h /. 1048576.) );
  ]

(* Branch and DMA counts summed over [programs]' kernels. *)
let pass_layer (programs : Imtp.Program.t list) =
  let kernels =
    List.concat_map
      (fun p -> List.map Imtp.Pass_metrics.of_kernel p.Imtp.Program.kernels)
      programs
  in
  let sum f = Stat.sum (List.map f kernels) in
  [
    ( "passes.static_branches",
      sum (fun k -> float_of_int k.Imtp.Pass_metrics.static_branches) );
    ("passes.dynamic_branches", sum (fun k -> k.Imtp.Pass_metrics.dynamic_branches));
    ("passes.dynamic_dmas", sum (fun k -> k.Imtp.Pass_metrics.dynamic_dmas));
  ]

(* Executor work per execution: elements moved and memory operations
   per second of executor time; [compile_ms] is the mean time to stage a
   program into closures. *)
let exec_layer ~compile_ms ~run_s (counters : Imtp.Eval.counters list) =
  let n = float_of_int (max 1 (List.length counters)) in
  let total f = float_of_int (List.fold_left (fun a c -> a + f c) 0 counters) in
  let mops =
    total (fun c ->
        c.Imtp.Eval.kernel_loads + c.Imtp.Eval.kernel_stores + c.Imtp.Eval.dma_elems)
  in
  [
    ("tir.exec_compile_ms", compile_ms);
    ("tir.exec_mops_per_s", if run_s > 0. then mops /. run_s /. 1e6 else 0.);
    ("tir.exec_xfer_elems_h2d", total (fun c -> c.Imtp.Eval.xfer_elems_h2d) /. n);
    ("tir.exec_xfer_elems_d2h", total (fun c -> c.Imtp.Eval.xfer_elems_d2h) /. n);
    ("tir.exec_dma_elems", total (fun c -> c.Imtp.Eval.dma_elems) /. n);
  ]

(* Output validation of tuned single-op programs, with the time each
   layer spent on it. *)
type validation = {
  mutable inputs_s : float;
  mutable reference_s : float;
  mutable compile_s : float;
  mutable run_s : float;
  mutable counters : Imtp.Eval.counters list;
}

let validation () =
  { inputs_s = 0.; reference_s = 0.; compile_s = 0.; run_s = 0.; counters = [] }

(* Seeded inputs for [op] and its reference output. *)
let reference v ~seed op =
  let inputs, dt = time (fun () -> Imtp.Ops.random_inputs ~seed op) in
  v.inputs_s <- v.inputs_s +. dt;
  let want, dt =
    time (fun () -> Span.run "bench.reference" (fun () -> Imtp.Op.reference op inputs))
  in
  v.reference_s <- v.reference_s +. dt;
  (inputs, want)

(* Executes [program], a tuned [op], and checks its output against
   [want].  Collecting first keeps the peak RSS the largest execution's
   live data rather than whatever garbage the GC had not reclaimed. *)
let execute tally v ~what (op : Imtp.Op.t) program ~inputs ~want =
  Gc.full_major ();
  Span.run "bench.exec" (fun () ->
      let compiled, dt = time (fun () -> Imtp.Exec.compile program) in
      v.compile_s <- v.compile_s +. dt;
      let (outs, c), dt = time (fun () -> Imtp.Exec.run_compiled compiled ~inputs) in
      v.run_s <- v.run_s +. dt;
      v.counters <- c :: v.counters;
      let diff =
        Check.first_difference ~got:(List.assoc (fst op.Imtp.Op.output) outs) ~want
      in
      record tally (diff = None)
        (lazy (Printf.sprintf "%s: output %s" what (Option.value diff ~default:""))))

let validation_layer v =
  [ ("tensor.inputs_s", v.inputs_s); ("tensor.reference_s", v.reference_s) ]
  @ exec_layer
      ~compile_ms:(ms v.compile_s /. float_of_int (max 1 (List.length v.counters)))
      ~run_s:v.run_s v.counters

(* Runs [f] traced: the benchmark's spans are recorded and the program's
   spans stream to the trace file.  Returns [f]'s result and wall time. *)
let with_tracing ctx f =
  let path =
    Option.value ctx.trace_file ~default:(Filename.concat ctx.tmp "trace.jsonl")
  in
  Span.enabled := true;
  Imtp.Obs.set_sink path;
  Fun.protect
    ~finally:(fun () ->
      Imtp.Obs.close_sink ();
      Span.enabled := false)
    (fun () -> time f)

(* Self-time shares of the benchmark's spans over a traced phase of
   [wall_s] seconds. *)
let self_frac_layer ~wall_s =
  let totals = Span.self_times () in
  List.map
    (fun name ->
      ( "self_frac." ^ name,
        if wall_s > 0. then Span.self_s totals ("bench." ^ name) /. wall_s else 0. ))
    [ "tune"; "graph.compile"; "infer"; "request"; "validate"; "reference"; "exec" ]
