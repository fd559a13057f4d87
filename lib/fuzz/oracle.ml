module Op = Imtp_workload.Op
module Ops = Imtp_workload.Ops
module L = Imtp_lower.Lowering
module Pl = Imtp_passes.Pipeline
module T = Imtp_tensor
module Eval = Imtp_tir.Eval
module Exec = Imtp_tir.Exec
module Cost = Imtp_tir.Cost
module Engine = Imtp_engine.Engine

type case = {
  workload : Gen_workload.t;
  steps : Gen_sched.step list;
  options : L.options;
  extra_config : (string * Pl.config) option;
  input_seed : int;
}

type failure =
  | Output_mismatch of { config : string; index : int; got : string; want : string }
  | Counter_mismatch of {
      config : string;
      field : string;
      executed : int;
      analytic : int;
    }
  | Crash of { config : string; message : string }
  | Executor_mismatch of { config : string; detail : string }

type verdict =
  | Passed of { configs_checked : int }
  | Rejected of string
  | Failed of failure

let machine = Imtp_upmem.Config.default

let configs case =
  Pl.ablations
  @
  match case.extra_config with
  | Some (name, c) when not (List.mem_assoc name Pl.ablations) -> [ (name, c) ]
  | Some _ | None -> []

let lower case =
  let sched, _ = Gen_sched.replay (Gen_workload.op case.workload) case.steps in
  Result.map_error Engine.error_to_string
    (Engine.lower ~options:case.options sched)

(* First flat index where two tensors' values diverge by
   [Value.compare]; [same_values] settles the common equal case without
   building the value lists. *)
let first_diff got want =
  let rec go i g w =
    match (g, w) with
    | [], [] -> None
    | x :: g', y :: w' ->
        if T.Value.compare x y = 0 then go (i + 1) g' w' else Some (i, x, y)
    | x :: _, [] -> Some (i, x, T.Value.Int 0)
    | [], y :: _ -> Some (i, T.Value.Int 0, y)
  in
  if T.Tensor.same_values got want then None
  else go 0 (T.Tensor.to_value_list got) (T.Tensor.to_value_list want)

(* One run through an executor, with Eval.Error reified so the two
   executors' outcomes can be compared. *)
let outcome runner prog ~inputs =
  match runner prog ~inputs with
  | r -> Ok r
  | exception Eval.Error m -> Error m

let counter_fields (c : Eval.counters) =
  [
    ("kernel_stores", c.Eval.kernel_stores);
    ("kernel_loads", c.Eval.kernel_loads);
    ("dma_elems", c.Eval.dma_elems);
    ("dma_ops", c.Eval.dma_ops);
    ("xfer_elems_h2d", c.Eval.xfer_elems_h2d);
    ("xfer_elems_d2h", c.Eval.xfer_elems_d2h);
  ]

(* First divergence between a compiled and an interpreted run: every
   host buffer (not just the workload output), all six counters, and
   error-message parity. *)
let diff_outcomes compiled interpreted =
  match (compiled, interpreted) with
  | Error m1, Error m2 ->
      if String.equal m1 m2 then None
      else
        Some
          (Printf.sprintf "compiled raised %S, interpreter raised %S" m1 m2)
  | Ok _, Error m ->
      Some (Printf.sprintf "compiled succeeded, interpreter raised %S" m)
  | Error m, Ok _ ->
      Some (Printf.sprintf "compiled raised %S, interpreter succeeded" m)
  | Ok (o1, c1), Ok (o2, c2) -> (
      let rec outs a b =
        match (a, b) with
        | [], [] -> None
        | (n1, t1) :: a', (n2, t2) :: b' ->
            if not (String.equal n1 n2) then
              Some (Printf.sprintf "buffer order: %s vs %s" n1 n2)
            else if not (T.Tensor.equal t1 t2) then
              let d = first_diff t1 t2 in
              Some
                (match d with
                | Some (i, g, w) ->
                    Printf.sprintf "buffer %s[%d]: compiled %s, interpreter %s"
                      n1 i (T.Value.to_string g) (T.Value.to_string w)
                | None -> Printf.sprintf "buffer %s differs in shape/dtype" n1)
            else outs a' b'
        | _ -> Some "host buffer count differs"
      in
      match outs o1 o2 with
      | Some d -> Some d
      | None ->
          List.fold_left2
            (fun acc (f, x) (_, y) ->
              match acc with
              | Some _ -> acc
              | None ->
                  if x <> y then
                    Some
                      (Printf.sprintf "counter %s: compiled %d, interpreter %d"
                         f x y)
                  else None)
            None (counter_fields c1) (counter_fields c2))

(* Run [prog] through the selected executor.  Under the compiled
   backend this is a second differential axis: the staged executor must
   be bit-compatible with the interpreter on outputs, counters and
   raised errors, for every program the fuzzer can construct. *)
let executed_outcome prog ~inputs =
  match Exec.backend () with
  | Exec.Interp -> `Run (outcome Eval.run_counted prog ~inputs)
  | Exec.Compiled -> (
      let compiled = outcome Exec.run_counted prog ~inputs in
      let interpreted = outcome Eval.run_counted prog ~inputs in
      match diff_outcomes compiled interpreted with
      | Some detail -> `Mismatch detail
      | None -> `Run compiled)

let check_config op inputs want raw (name, config) =
  match
    let prog = Engine.optimize machine ~passes:config raw in
    match executed_outcome prog ~inputs with
    | `Mismatch detail -> `Mismatch (name, detail)
    | `Run (Error m) -> raise (Eval.Error m)
    | `Run (Ok (outs, counters)) ->
        `Checked (prog, counters, List.assoc (fst op.Op.output) outs)
  with
  | exception Eval.Error m -> Some (Crash { config = name; message = m })
  | exception Cost.Error m -> Some (Crash { config = name; message = m })
  | `Mismatch (config, detail) -> Some (Executor_mismatch { config; detail })
  | `Checked (prog, counters, got) -> (
      match first_diff got want with
      | Some (index, g, w) ->
          Some
            (Output_mismatch
               {
                 config = name;
                 index;
                 got = T.Value.to_string g;
                 want = T.Value.to_string w;
               })
      | None -> (
          match (Cost.dma_counts prog, Cost.xfer_counts prog) with
          | exception Cost.Error m -> Some (Crash { config = name; message = m })
          | dma, xfer ->
              List.find_map
                (fun (field, executed, analytic) ->
                  if executed = analytic then None
                  else Some (Counter_mismatch { config = name; field; executed; analytic }))
                [
                  ("dma_ops", counters.Eval.dma_ops, dma.Cost.dma_ops);
                  ("dma_elems", counters.Eval.dma_elems, dma.Cost.dma_elems);
                  ( "xfer_elems_h2d",
                    counters.Eval.xfer_elems_h2d,
                    xfer.Cost.xfer_elems_h2d );
                  ( "xfer_elems_d2h",
                    counters.Eval.xfer_elems_d2h,
                    xfer.Cost.xfer_elems_d2h );
                ]))

let check case =
  match lower case with
  | Error m -> Rejected m
  | Ok raw -> (
      let op = Gen_workload.op case.workload in
      let inputs = Ops.random_inputs ~seed:case.input_seed op in
      let want = Op.reference op inputs in
      let cfgs = configs case in
      let rec go checked = function
        | [] -> Passed { configs_checked = checked }
        | c :: rest -> (
            match check_config op inputs want raw c with
            | Some f -> Failed f
            | None -> go (checked + 1) rest)
      in
      go 0 cfgs)

let failure_to_string = function
  | Output_mismatch { config; index; got; want } ->
      Printf.sprintf
        "output mismatch under pass config '%s': C[%d] = %s, reference says %s"
        config index got want
  | Counter_mismatch { config; field; executed; analytic } ->
      Printf.sprintf
        "counter divergence under pass config '%s': interpreter executed %s=%d, \
         analytic model says %d"
        config field executed analytic
  | Crash { config; message } ->
      Printf.sprintf "crash under pass config '%s': %s" config message
  | Executor_mismatch { config; detail } ->
      Printf.sprintf
        "compiled executor diverges from interpreter under pass config '%s': %s"
        config detail
