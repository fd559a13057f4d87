(* The paper-suite benchmark.

     dune exec bench/suite/suite.exe -- --workload W --seed N
         [--seconds S] [--trace 0|1] [--trace-file F] [--out F]
         [--smoke] [--baseline F] [--spec F]
     dune exec bench/suite/suite.exe -- compare OLD NEW [--spec F]

   A run executes one workload in this process, prints every metric by
   name with its unit, checks the programs' outputs, optionally appends
   one result row to [--out], and ends with one JSON line:
   {"correct", "attempted", "failed", "metrics"}.  [--trace 0] reports
   the end-to-end metrics of BENCHMARK.json, [--trace 1] its per-layer
   metrics.  README.md in this directory describes the workloads and
   metrics. *)

module Json = Imtp.Obs.Json

let workloads =
  [
    ("paper_ops", Op_suite.run Op_suite.paper_ops);
    ("gptj_gated", Op_suite.run Op_suite.gptj_gated);
    ("nets", Net_suite.run);
    ("serve", Serve_suite.run);
  ]

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let load_spec path =
  let j =
    match In_channel.with_open_text path In_channel.input_all with
    | s -> ( match Json.of_string s with Ok j -> j | Error m -> fail "%s: %s" path m)
    | exception Sys_error m -> fail "%s" m
  in
  let metrics key =
    match Json.member key j with
    | Some (Json.List l) ->
        List.map
          (fun m ->
            let s f = match Json.member f m with Some (Json.Str v) -> v | _ -> "" in
            {
              Compare.name = s "name";
              unit_ = s "unit";
              lower_better = s "better" = "lower";
              bound =
                (match Json.member "bound" m with Some (Json.Num b) -> b | _ -> 0.);
            })
          l
    | _ -> fail "%s: no %s list" path key
  in
  (metrics "end_to_end", metrics "per_layer")

type args = {
  workload : string option;
  seed : int option;
  seconds : float;
  trace : bool;
  trace_file : string option;
  out : string option;
  smoke : bool;
  baseline : string option;
  spec : string;
  compare : (string * string) option;
}

let parse argv =
  let rec go a = function
    | [] -> a
    | "compare" :: o :: n :: rest -> go { a with compare = Some (o, n) } rest
    | "--workload" :: w :: rest -> go { a with workload = Some w } rest
    | "--seed" :: s :: rest -> (
        match int_of_string_opt s with
        | Some n -> go { a with seed = Some n } rest
        | None -> fail "--seed: not an integer: %s" s)
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some x when x >= 0. -> go { a with seconds = x } rest
        | _ -> fail "--seconds: not a duration: %s" s)
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | "--trace-file" :: f :: rest -> go { a with trace_file = Some f } rest
    | "--out" :: f :: rest -> go { a with out = Some f } rest
    | "--smoke" :: rest -> go { a with smoke = true } rest
    | "--baseline" :: f :: rest -> go { a with baseline = Some f } rest
    | "--spec" :: f :: rest -> go { a with spec = f } rest
    | arg :: _ -> fail "unexpected argument %s (see the usage in bench/suite/suite.ml)" arg
  in
  go
    {
      workload = None;
      seed = None;
      seconds = 15.;
      trace = false;
      trace_file = None;
      out = None;
      smoke = false;
      baseline = None;
      spec = "BENCHMARK.json";
      compare = None;
    }
    argv

let row a ~workload ~seed (r : Common.outcome) =
  let obj l = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) l) in
  Json.Obj
    ([
       ("workload", Json.Str workload);
       ("seed", Common.jint seed);
       ("seconds", Json.Num a.seconds);
       ("trace", Json.Bool a.trace);
       ("smoke", Json.Bool a.smoke);
       ("date", Json.Num (Unix.time ()));
       ("host_cores", Common.jint (Domain.recommended_domain_count ()));
       ("git_rev", Json.Str (Common.git_rev ()));
       ("ocaml", Json.Str Sys.ocaml_version);
       ("jobs", Common.jint Common.jobs);
       ("islands", Common.jint r.islands);
       ("attempted", Common.jint r.attempted);
       ("failed", Common.jint r.failed);
       ("metrics", obj r.e2e);
     ]
    @ (if a.trace then [ ("layer", obj r.layer) ] else [])
    @ [ ("programs", Json.List r.programs) ])

(* The deterministic metrics must equal the baseline's row for the same
   workload and seed bit for bit. *)
let check_baseline path ~workload ~seed (r : Common.outcome) =
  let base =
    List.find_opt
      (fun j ->
        Compare.str "workload" j = workload
        && Json.member "seed" j = Some (Common.jint seed)
        && not (Compare.flag "trace" j))
      (Compare.load_rows path)
  in
  match base with
  | None -> fail "%s: no row for %s at seed %d" path workload seed
  | Some base ->
      List.for_all
        (fun name ->
          let want = Option.bind (Json.member "metrics" base) (Json.member name) in
          let got = List.assoc name r.e2e in
          let same = want = Some (Json.Num got) in
          if not same then
            Printf.eprintf "%s: %s is %.17g, baseline has %s\n" workload name got
              (match want with Some v -> Json.to_string v | None -> "nothing");
          same)
        Compare.deterministic

let run_workload a ~workload ~seed ~e2e_spec ~layer_spec =
  (match List.filter (fun v -> Sys.getenv_opt v <> None) Common.forbidden_env with
  | [] -> ()
  | set -> fail "refusing to run with %s set" (String.concat ", " set));
  let f =
    match List.assoc_opt workload workloads with
    | Some f -> f
    | None ->
        fail "unknown workload %s (expected one of %s)" workload
          (String.concat ", " (List.map fst workloads))
  in
  Imtp.Pool.set_default_jobs Common.jobs;
  let tmp =
    Filename.concat ".bench-suite-tmp" (string_of_int (Unix.getpid ()))
  in
  (try Sys.mkdir ".bench-suite-tmp" 0o755 with Sys_error _ -> ());
  Sys.mkdir tmp 0o700;
  let r =
    Fun.protect
      ~finally:(fun () ->
        Common.remove_tree tmp;
        try Sys.rmdir ".bench-suite-tmp" with Sys_error _ -> ())
      (fun () ->
        f
          {
            Common.seed;
            seconds = a.seconds;
            trace = a.trace;
            smoke = a.smoke;
            tmp;
            trace_file = a.trace_file;
          })
  in
  let values = if a.trace then r.layer else r.e2e in
  let spec = if a.trace then layer_spec else e2e_spec in
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun m -> m.Compare.name = name) spec) then
        fail "%s: metric %s is not declared in BENCHMARK.json" workload name)
    values;
  let failed = ref r.failed in
  let metrics =
    List.map
      (fun (m : Compare.metric) ->
        let v =
          match List.assoc_opt m.Compare.name values with
          | Some v -> v
          | None when a.trace -> 0.
          | None -> fail "%s: no value for %s" workload m.Compare.name
        in
        let v =
          if Float.is_finite v then v
          else begin
            Printf.eprintf "FAILED: %s is not a number\n" m.Compare.name;
            incr failed;
            0.
          end
        in
        Printf.printf "%-32s %16.6f %s\n" m.Compare.name v m.Compare.unit_;
        (m.Compare.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.Compare.unit_) ]))
      spec
  in
  let r = { r with failed = !failed } in
  Option.iter
    (fun path ->
      Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 path (fun oc ->
          output_string oc (Json.to_string (row a ~workload ~seed r) ^ "\n")))
    a.out;
  let baseline_ok =
    match a.baseline with
    | Some path -> check_baseline path ~workload ~seed r
    | None -> true
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (r.failed = 0));
            ("attempted", Common.jint (max 1 r.attempted));
            ("failed", Common.jint r.failed);
            ("metrics", Json.Obj metrics);
          ]));
  if a.baseline <> None && (r.failed > 0 || not baseline_ok) then exit 1

let () =
  let a = parse (List.tl (Array.to_list Sys.argv)) in
  let e2e_spec, layer_spec = load_spec a.spec in
  match (a.compare, a.workload, a.seed) with
  | Some (o, n), _, _ ->
      if not (Compare.run ~metrics:e2e_spec o n) then exit 1
  | None, Some workload, Some seed ->
      run_workload a ~workload ~seed ~e2e_spec ~layer_spec
  | None, _, _ -> fail "need --workload and --seed, or compare OLD NEW"
