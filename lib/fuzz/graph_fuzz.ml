(* Graph mode for the differential fuzzer: random small dataflow
   graphs through the graph compiler, checked against the per-op
   reference chain and across executors.  See graph_fuzz.mli. *)

module Nets = Imtp_workload.Nets
module Ops = Imtp_workload.Ops
module Graph = Imtp_graph.Graph
module Rng = Imtp_engine.Rng
module T = Imtp_tensor.Tensor

type outcome = {
  cases : int;
  rejected : int;
  fused_total : int;
  resident_total : int;
  failures : (int * string) list;
}

(* Random chain of 1-D elementwise ops with occasional matrix-vector
   transitions, odd non-power-of-two extents, and deliberate fan-out
   (an intermediate bound twice, which must block fusion).  The spec is
   a plain Nets.t so the reference chain and the graph build share one
   description. *)
let random_spec rng ~seed ~index =
  let inputs = ref [] and nodes = ref [] in
  let n_inputs = ref 0 and n_nodes = ref 0 in
  let fresh_input shape =
    let name = Printf.sprintf "i%d" !n_inputs in
    incr n_inputs;
    inputs := (name, shape) :: !inputs;
    name
  in
  let push op args =
    let id = Printf.sprintf "n%d" !n_nodes in
    incr n_nodes;
    nodes := { Nets.id; op; args } :: !nodes;
    id
  in
  let extent () = Rng.pick rng [ 5; 7; 9; 12; 13; 17 ] in
  let n0 = extent () in
  let cur = ref (fresh_input [ n0 ]) and len = ref n0 in
  (* an earlier tensor retained for a diamond-shaped reuse at the end *)
  let saved = ref None in
  let steps = 3 + Rng.int rng 4 in
  for _ = 1 to steps do
    if Rng.int rng 4 = 0 && !saved = None then saved := Some (!cur, !len);
    match Rng.int rng 6 with
    | 0 -> cur := push (Ops.relu !len) [ ("A", !cur) ]
    | 1 ->
        let c = 2 + Rng.int rng 4 in
        cur := push (Ops.scale ~c !len) [ ("A", !cur) ]
    | 2 -> cur := push (Ops.va !len) [ ("A", !cur); ("B", fresh_input [ !len ]) ]
    | 3 ->
        (* both operands bound to the same tensor: a double use that
           must keep its producer unfused *)
        cur := push (Ops.va !len) [ ("A", !cur); ("B", !cur) ]
    | 4 ->
        let c = 1 + Rng.int rng 3 and d = 1 + Rng.int rng 3 in
        cur :=
          push (Ops.geva ~c ~d !len) [ ("A", !cur); ("B", fresh_input [ !len ]) ]
    | _ ->
        let r = extent () in
        let m = fresh_input [ r; !len ] in
        cur := push (Ops.mtv r !len) [ ("A", m); ("B", !cur) ];
        len := r
  done;
  (match !saved with
  | Some (old_id, old_len) when old_len = !len && old_id <> !cur ->
      ignore (push (Ops.va !len) [ ("A", !cur); ("B", old_id) ])
  | _ -> ());
  {
    Nets.sname = Printf.sprintf "fuzzgraph_s%d_c%d" seed index;
    inputs = List.rev !inputs;
    nodes = List.rev !nodes;
  }

let spec_of_seed ~seed ~index =
  let rng = Rng.stream ~base:seed ~index in
  random_spec rng ~seed ~index

(* One case: compile the graph fused+resident and unfused, run both,
   and demand
   - every unfused node output is bit-identical to the reference chain,
   - every materialized fused output is bit-identical to the reference,
   - the interpreter and the compiled executor agree buffer-by-buffer
     on the fused combined program. *)
let check ?(trials = 12) ~engine cfg ~seed ~index () =
  let spec = spec_of_seed ~seed ~index in
  let g, ids = Graph.of_spec spec in
  let fail fmt = Printf.ksprintf (fun m -> Error (spec, m)) fmt in
  let compile ~fuse ~resident =
    Graph.Compiled.compile ~trials ~seed:(seed + index) ~islands:1 ~fuse
      ~resident ~engine cfg g
  in
  match (compile ~fuse:true ~resident:true, compile ~fuse:false ~resident:false)
  with
  | Error m, _ | _, Error m -> Ok (`Rejected m)
  | Ok fused, Ok unfused -> (
      let inputs = Nets.random_inputs ~seed:(seed lxor index) spec in
      let refs = Nets.reference spec ~inputs in
      let uouts = Graph.Compiled.run unfused ~inputs in
      let fouts = Graph.Compiled.run fused ~inputs in
      let diverging variant outs ~require_all =
        List.find_map
          (fun (id, want) ->
            let gname = Graph.tid_name (List.assoc id ids) in
            match List.assoc_opt gname outs with
            | Some got when T.same_values got want -> None
            | Some _ -> Some (variant, id, gname, "diverges from reference")
            | None when require_all ->
                Some (variant, id, gname, "not materialized")
            | None -> None)
          refs
      in
      match
        ( diverging "unfused" uouts ~require_all:true,
          diverging "fused" fouts ~require_all:false )
      with
      | Some (v, id, gname, what), _ | _, Some (v, id, gname, what) ->
          fail "%s %s (%s) %s" v id gname what
      | None, None -> (
          let prog = Graph.Compiled.program fused in
          let eouts, ecounters = Imtp_tir.Eval.run_counted prog ~inputs in
          let compiled = Imtp_tir.Exec.compile prog in
          let couts, ccounters = Imtp_tir.Exec.run_compiled compiled ~inputs in
          if ecounters <> ccounters then
            fail "executor counters diverge on the combined program"
          else
            match
              List.find_opt
                (fun (name, ev) ->
                  match List.assoc_opt name couts with
                  | Some cv -> not (T.same_values ev cv)
                  | None -> true)
                eouts
            with
            | Some (name, _) ->
                fail "executors diverge on combined-program buffer %s" name
            | None ->
                Ok
                  (`Checked
                    ( Graph.Compiled.fused_count fused,
                      Graph.Compiled.resident_count fused ))))

let describe_spec (spec : Nets.t) =
  String.concat "; "
    (List.map
       (fun (n : Nets.node) ->
         Printf.sprintf "%s=%s(%s)" n.Nets.id (fst n.Nets.op.Imtp_workload.Op.output)
           (String.concat ","
              (List.map (fun (k, v) -> k ^ ":" ^ v) n.Nets.args)))
       spec.Nets.nodes)

let run ?(trials = 12) ?progress ~seed ~cases () =
  let cfg = Imtp_upmem.Config.default in
  let engine = Imtp_engine.Engine.create cfg in
  let rejected = ref 0 and fused_total = ref 0 and resident_total = ref 0 in
  let failures = ref [] in
  for index = 0 to cases - 1 do
    (match check ~trials ~engine cfg ~seed ~index () with
    | Ok (`Rejected _) -> incr rejected
    | Ok (`Checked (f, r)) ->
        fused_total := !fused_total + f;
        resident_total := !resident_total + r
    | Error (spec, m) ->
        failures :=
          (index, Printf.sprintf "%s\n    graph: %s" m (describe_spec spec))
          :: !failures);
    Option.iter (fun f -> f index) progress
  done;
  {
    cases;
    rejected = !rejected;
    fused_total = !fused_total;
    resident_total = !resident_total;
    failures = List.rev !failures;
  }

let summary ~seed o =
  let b = Buffer.create 256 in
  Printf.ksprintf (Buffer.add_string b)
    "graph fuzz: %d cases (seed %d), %d rejected, %d nodes fused away, %d \
     resident edges, %d failures\n"
    o.cases seed o.rejected o.fused_total o.resident_total
    (List.length o.failures);
  List.iter
    (fun (index, m) ->
      Printf.ksprintf (Buffer.add_string b)
        "  case %d (reproduce: fuzz --graph --seed %d --cases %d): %s\n" index
        seed (index + 1) m)
    o.failures;
  Buffer.contents b
