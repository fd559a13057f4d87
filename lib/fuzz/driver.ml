module Rng = Imtp_engine.Rng
module S = Imtp_schedule.Sched
module Printer = Imtp_tir.Printer
module Obs = Imtp_obs.Obs

type coverage = {
  split : int;
  reorder : int;
  bind : int;
  rfactor : int;
  unroll : int;
  parallel : int;
  cache_read : int;
  cache_write : int;
}

type outcome = {
  cases : int;
  rejected : int;
  configs_checked : int;
  coverage : coverage;
  failures : (int * Oracle.case * Oracle.failure) list;
}

let no_coverage =
  {
    split = 0;
    reorder = 0;
    bind = 0;
    rfactor = 0;
    unroll = 0;
    parallel = 0;
    cache_read = 0;
    cache_write = 0;
  }

(* A case "exercises" a primitive if at least one surviving step uses
   it; count each primitive at most once per case. *)
let add_coverage cov steps =
  let has p = if List.exists p steps then 1 else 0 in
  {
    split = cov.split + has (function Gen_sched.Split _ -> true | _ -> false);
    reorder = cov.reorder + has (function Gen_sched.Reorder _ -> true | _ -> false);
    bind = cov.bind + has (function Gen_sched.Bind _ -> true | _ -> false);
    rfactor = cov.rfactor + has (function Gen_sched.Rfactor _ -> true | _ -> false);
    unroll = cov.unroll + has (function Gen_sched.Unroll _ -> true | _ -> false);
    parallel =
      cov.parallel + has (function Gen_sched.Parallel _ -> true | _ -> false);
    cache_read =
      cov.cache_read + has (function Gen_sched.Cache_read _ -> true | _ -> false);
    cache_write =
      cov.cache_write
      + has (function Gen_sched.Cache_write _ -> true | _ -> false);
  }

(* Deterministic per-(index, attempt) sub-seed.  The multipliers are
   arbitrary odd primes; all that matters is that distinct (seed,
   index, attempt) triples land on distinct streams. *)
let case_seed ~seed ~index ~attempt =
  (seed * 1_000_003) + (index * 8_191) + (attempt * 131) + 17

let max_redraws = 20

let draw ~seed ~index ~attempt =
  let cs = case_seed ~seed ~index ~attempt in
  let rng = Rng.create ~seed:cs in
  let workload = Gen_workload.random rng in
  let op = Gen_workload.op workload in
  let steps = Gen_sched.random rng op in
  let options = Gen_passes.random_options rng in
  let extra_config = Some (Gen_passes.random rng) in
  { Oracle.workload; steps; options; extra_config; input_seed = cs }

(* Redraw until the lowering accepts the schedule, like [run] does. *)
let case_of_seed ~seed ~index =
  let rec go attempt =
    if attempt >= max_redraws then None
    else
      let case = draw ~seed ~index ~attempt in
      match Oracle.lower case with
      | Ok _ -> Some case
      | Error _ -> go (attempt + 1)
  in
  go 0

let run ?jobs ?(progress = fun _ -> ()) ?(shrink = true) ~seed ~cases () =
  let module Pool = Imtp_engine.Pool in
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  Obs.span ~name:"fuzz.campaign"
    ~attrs:
      [
        ("seed", Obs.Int seed);
        ("cases", Obs.Int cases);
        ("jobs", Obs.Int jobs);
      ]
  @@ fun () ->
  let t0 = Obs.now_s () in
  let cases = max 0 cases in
  let parent = Obs.current_span_id () in
  let progress_lock = Mutex.create () in
  (* Each case is fully determined by (seed, index) — redraws included —
     so cases check independently on worker domains and the fold below
     reassembles them in index order.  Redraw on rejection; if every
     redraw is rejected the last draw still counts as one (rejected)
     checked case so campaigns always finish.  Shrinking a failure runs
     entirely on the domain that found it. *)
  let check_case index =
    Obs.with_ambient_parent parent @@ fun () ->
    Obs.span ~name:"fuzz.case" ~attrs:[ ("index", Obs.Int index) ]
    @@ fun () ->
    let rec attempt_loop attempt rejects =
      let case = draw ~seed ~index ~attempt in
      match Oracle.check case with
      | Oracle.Rejected _ when attempt + 1 < max_redraws ->
          Obs.incr "fuzz.rejected_draws";
          attempt_loop (attempt + 1) (rejects + 1)
      | Oracle.Rejected _ ->
          Obs.incr "fuzz.rejected_draws";
          (rejects + 1, `Gave_up)
      | Oracle.Passed { configs_checked = n } ->
          Obs.incr ~by:n "fuzz.configs_checked";
          let op = Gen_workload.op case.Oracle.workload in
          let _, surviving = Gen_sched.replay op case.Oracle.steps in
          (rejects, `Passed (n, surviving))
      | Oracle.Failed _ ->
          Obs.incr "fuzz.failures";
          let min_case = if shrink then Shrink.minimize case else case in
          let failure =
            match Oracle.check min_case with
            | Oracle.Failed f -> f
            | Oracle.Passed _ | Oracle.Rejected _ -> (
                (* the shrinker guarantees this can't happen, but fall
                   back to the original failure rather than crash. *)
                match Oracle.check case with
                | Oracle.Failed f -> f
                | _ -> assert false)
          in
          (rejects, `Failed (min_case, failure))
    in
    let r = attempt_loop 0 0 in
    Obs.incr "fuzz.cases";
    Mutex.protect progress_lock (fun () -> progress index);
    r
  in
  let results = Pool.map ~jobs check_case cases in
  let rejected = ref 0 in
  let configs_checked = ref 0 in
  let coverage = ref no_coverage in
  let failures = ref [] in
  Array.iteri
    (fun index (rejects, out) ->
      rejected := !rejected + rejects;
      match out with
      | `Gave_up -> ()
      | `Passed (n, surviving) ->
          configs_checked := !configs_checked + n;
          coverage := add_coverage !coverage surviving
      | `Failed (min_case, failure) ->
          failures := (index, min_case, failure) :: !failures)
    results;
  let elapsed_s = Obs.now_s () -. t0 in
  if elapsed_s > 0. then
    Obs.set_gauge "fuzz.cases_per_s" (float_of_int cases /. elapsed_s);
  {
    cases;
    rejected = !rejected;
    configs_checked = !configs_checked;
    coverage = !coverage;
    failures = List.rev !failures;
  }

let report_failure index (case : Oracle.case) failure =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "=== fuzz failure (case %d) ===\n" index;
  pf "workload:     %s\n" (Gen_workload.describe case.workload);
  pf "input seed:   %d\n" case.input_seed;
  pf "lowering:     %s\n" (Gen_passes.options_to_string case.options);
  (match case.extra_config with
  | Some (name, _) -> pf "extra config: %s\n" name
  | None -> ());
  pf "steps:\n";
  List.iter (fun st -> pf "  %s\n" (Gen_sched.step_to_string st)) case.steps;
  let op = Gen_workload.op case.workload in
  let sched, surviving = Gen_sched.replay op case.steps in
  if List.length surviving <> List.length case.steps then
    pf "(%d of %d steps survive replay)\n" (List.length surviving)
      (List.length case.steps);
  pf "schedule trace:\n";
  List.iter (fun line -> pf "  %s\n" line) (S.trace sched);
  pf "failure:      %s\n" (Oracle.failure_to_string failure);
  (match Oracle.lower case with
  | Ok prog -> pf "lowered program (before passes):\n%s" (Printer.program_to_string prog)
  | Error m -> pf "lowering now fails: %s\n" m);
  Buffer.contents buf

let coverage_to_string c =
  Printf.sprintf
    "split=%d reorder=%d bind=%d rfactor=%d unroll=%d parallel=%d \
     cache_read=%d cache_write=%d"
    c.split c.reorder c.bind c.rfactor c.unroll c.parallel c.cache_read
    c.cache_write

let summary ~seed outcome =
  let buf = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "fuzz campaign: seed=%d cases=%d rejected_draws=%d pass_configs_checked=%d\n"
    seed outcome.cases outcome.rejected outcome.configs_checked;
  pf "coverage: %s\n" (coverage_to_string outcome.coverage);
  (match outcome.failures with
  | [] -> pf "no failures.\n"
  | fs ->
      pf "%d FAILURE(S):\n" (List.length fs);
      List.iter
        (fun (index, case, failure) ->
          Buffer.add_string buf (report_failure index case failure))
        fs);
  Buffer.contents buf
