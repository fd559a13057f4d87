(* [suite.exe compare OLD NEW]: the regression gate.  For every workload
   and end-to-end metric it prints each side's median and quartiles over
   that side's untraced full runs and applies the metric's bound from
   BENCHMARK.json:

   - unresolved: either side's spread (quartile distance over median)
     is wider than the bound, or unknown because the side has fewer than
     three runs of a wall-clock metric, and not every new run beats
     every old one;
   - regressed: the new median is worse than the old by more than the
     bound;
   - ok otherwise. *)

module Json = Imtp.Obs.Json

type metric = { name : string; unit_ : string; lower_better : bool; bound : float }

(* Metrics that are a pure function of the workload and seed. *)
let deterministic = [ "modeled_ms_geomean"; "speedup_vs_prim"; "speedup_vs_prim_search" ]

let load_rows path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Json.of_string l with
         | Ok j -> j
         | Error m -> failwith (Printf.sprintf "%s: %s" path m))

let str field j = match Json.member field j with Some (Json.Str s) -> s | _ -> ""
let flag field j = Json.member field j = Some (Json.Bool true)

(* Values of [m] per workload over the full untraced runs of [rows]. *)
let values rows workload m =
  List.filter_map
    (fun r ->
      if str "workload" r <> workload || flag "trace" r || flag "smoke" r then None
      else
        match Option.bind (Json.member "metrics" r) (Json.member m.name) with
        | Some (Json.Num v) -> Some v
        | _ -> None)
    rows

let spread m xs =
  if List.length xs < 3 && not (List.mem m.name deterministic) then infinity
  else
    let q1, med, q3 = Stat.quartiles xs in
    if med = 0. then 0. else Float.abs (q3 -. q1) /. Float.abs med

let verdict m ~old_vs ~new_vs =
  let worse a b = if m.lower_better then b > a else b < a in
  let old_med = Stat.median old_vs and new_med = Stat.median new_vs in
  let change =
    if old_med = 0. then 0.
    else if m.lower_better then (new_med -. old_med) /. Float.abs old_med
    else (old_med -. new_med) /. Float.abs old_med
  in
  let all_better =
    List.for_all (fun n -> List.for_all (fun o -> worse n o) old_vs) new_vs
  in
  if Float.max (spread m old_vs) (spread m new_vs) > m.bound && not all_better then
    "unresolved"
  else if change > m.bound && worse old_med new_med then "regressed"
  else "ok"

let run ~metrics old_path new_path =
  let old_rows = load_rows old_path and new_rows = load_rows new_path in
  let workloads =
    List.sort_uniq compare
      (List.filter_map
         (fun r -> if flag "trace" r || flag "smoke" r then None else Some (str "workload" r))
         (old_rows @ new_rows))
  in
  let regressions = ref 0 in
  Printf.printf "%-12s %-24s %-8s %36s %36s  %s\n" "workload" "metric" "bound"
    "old median [q1, q3]" "new median [q1, q3]" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          let old_vs = values old_rows w m and new_vs = values new_rows w m in
          if old_vs <> [] && new_vs <> [] then begin
            let cell vs =
              let q1, med, q3 = Stat.quartiles vs in
              Printf.sprintf "%.6g [%.6g, %.6g] n=%d" med q1 q3 (List.length vs)
            in
            let v = verdict m ~old_vs ~new_vs in
            if v = "regressed" then incr regressions;
            Printf.printf "%-12s %-24s %-8g %36s %36s  %s\n" w m.name m.bound
              (cell old_vs) (cell new_vs) v
          end)
        metrics)
    workloads;
  !regressions = 0
