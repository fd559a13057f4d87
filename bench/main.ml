(* Paper-figure harness entry point.

   Usage:
     dune exec bench/main.exe                 # run every experiment
     dune exec bench/main.exe -- fig9 fig13   # run selected experiments

   Each experiment regenerates one table or figure of the paper's
   evaluation (see DESIGN.md's experiment index).  Performance is
   measured by the benchmark suite in bench/suite, not here. *)

let experiments =
  [
    ("table1", Experiments.table1);
    ("fig3", Experiments.fig3);
    ("fig4", Experiments.fig4);
    ("fig9", Experiments.fig9);
    ("table3", Experiments.table3);
    ("fig10", Experiments.fig10);
    ("fig11", Experiments.fig11);
    ("fig12", Experiments.fig12);
    ("fig13", fun () -> Experiments.fig13 ());
    ("overhead", Experiments.overhead);
    ("joint", Experiments.joint);
    ("transfer", Experiments.transfer);
    ("costmodel", Experiments.costmodel);
    ("dtypes", Experiments.dtypes);
    ("hbm", Experiments.hbm);
  ]

(* Each experiment runs under a [bench.<name>] observability span; with
   IMTP_TRACE=FILE set, the spans (and the engine/search metrics they
   enclose) stream to a JSONL trace readable by `imtp report`. *)
let run_experiment name f =
  Imtp.Obs.span ~name:("bench." ^ name) f

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let trace = Sys.getenv_opt "IMTP_TRACE" in
  Imtp.Obs.with_sink trace @@ fun () ->
  match args with
  | [] ->
      Printf.printf
        "IMTP benchmark harness: reproducing every table and figure of the \
         paper's evaluation.\n";
      List.iter (fun (name, f) -> run_experiment name f) experiments
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> run_experiment name f
          | None ->
              Printf.eprintf "unknown experiment %s (available: %s)\n" name
                (String.concat ", " (List.map fst experiments));
              exit 1)
        names
