(* Tests for operator definitions: construction, validation, shape
   queries, and agreement between the generic Op.reference evaluator
   and the hand-written Reference implementations. *)

module Op = Imtp_workload.Op
module Ops = Imtp_workload.Ops
module Gptj = Imtp_workload.Gptj
module T = Imtp_tensor

let test_va_structure () =
  let op = Ops.va 100 in
  Alcotest.(check int) "one axis" 1 (List.length op.Op.axes);
  Alcotest.(check bool) "no reduction" false (Op.has_reduction op);
  Alcotest.(check (list int)) "out shape" [ 100 ] (Op.output_shape op);
  Alcotest.(check int) "out elems" 100 (Op.output_elems op)

let test_red_structure () =
  let op = Ops.red 64 in
  Alcotest.(check bool) "reduction" true (Op.has_reduction op);
  Alcotest.(check (list int)) "scalar out" [] (Op.output_shape op);
  Alcotest.(check int) "out elems" 1 (Op.output_elems op)

let test_mmtv_structure () =
  let op = Ops.mmtv 4 8 16 in
  Alcotest.(check int) "axes" 3 (List.length op.Op.axes);
  Alcotest.(check (list int)) "A shape" [ 4; 8; 16 ] (Op.input_shape op "A");
  Alcotest.(check (list int)) "B shape" [ 4; 16 ] (Op.input_shape op "B");
  Alcotest.(check (list int)) "out" [ 4; 8 ] (Op.output_shape op);
  Alcotest.(check int) "spatial" 2 (List.length (Op.spatial_axes op))

let test_create_validation () =
  let bad_axis () =
    ignore
      (Op.create ~name:"x" ~dtype:T.Dtype.I32
         ~axes:[ { Op.aname = "i"; extent = 4; kind = Op.Spatial } ]
         ~inputs:[ ("A", [ "nope" ]) ]
         ~output:("C", [ "i" ])
         ~body:(Op.Ref "A"))
  in
  (match bad_axis () with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unknown axis accepted");
  let bad_out () =
    ignore
      (Op.create ~name:"x" ~dtype:T.Dtype.I32
         ~axes:[ { Op.aname = "i"; extent = 4; kind = Op.Reduction } ]
         ~inputs:[ ("A", [ "i" ]) ]
         ~output:("C", [ "i" ])
         ~body:(Op.Ref "A"))
  in
  match bad_out () with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "reduction output axis accepted"

let test_by_name () =
  List.iter
    (fun name ->
      let sizes =
        match name with
        | "va" | "geva" | "red" | "relu" | "scale" -> [ 32 ]
        | "mtv" | "gemv" | "rowsum" | "rowdiv" -> [ 8; 16 ]
        | _ -> [ 2; 4; 8 ]
      in
      let op = Ops.by_name name ~sizes in
      Alcotest.(check string) name name op.Op.opname)
    Ops.all_names;
  match Ops.by_name "nonsense" ~sizes:[ 1 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown op accepted"

(* Generic reference agrees with the hand-written reference for every op. *)
let check_against_handwritten name op hand =
  let inputs = Ops.random_inputs op in
  let got = Op.reference op inputs in
  let want = hand inputs in
  Alcotest.(check bool) (name ^ " agrees") true (T.Tensor.equal got want)

let test_generic_vs_handwritten () =
  let find n inputs = List.assoc n inputs in
  check_against_handwritten "va" (Ops.va 37) (fun ins ->
      T.Reference.va (find "A" ins) (find "B" ins));
  check_against_handwritten "geva" (Ops.geva ~c:3 ~d:2 37) (fun ins ->
      T.Reference.geva (T.Value.Int 3) (T.Value.Int 2) (find "A" ins) (find "B" ins));
  check_against_handwritten "red" (Ops.red 41) (fun ins ->
      T.Tensor.scalar (T.Reference.red (find "A" ins)));
  check_against_handwritten "mtv" (Ops.mtv 7 13) (fun ins ->
      T.Reference.mtv (find "A" ins) (find "B" ins));
  check_against_handwritten "gemv" (Ops.gemv ~c:3 7 13) (fun ins ->
      T.Reference.gemv (T.Value.Int 3) (find "A" ins) (find "B" ins));
  check_against_handwritten "ttv" (Ops.ttv 3 5 7) (fun ins ->
      T.Reference.ttv (find "A" ins) (find "B" ins));
  check_against_handwritten "mmtv" (Ops.mmtv 3 5 7) (fun ins ->
      T.Reference.mmtv (find "A" ins) (find "B" ins))

let test_gptj_shapes () =
  Alcotest.(check (pair int int)) "6B qkv_gen" (12288, 4096)
    (Gptj.fc_shape Gptj.Gptj_6b Gptj.Qkv_gen);
  Alcotest.(check (pair int int)) "6B fc_proj" (4096, 16384)
    (Gptj.fc_shape Gptj.Gptj_6b Gptj.Fc_proj);
  Alcotest.(check (pair int int)) "30B fc" (28672, 7168)
    (Gptj.fc_shape Gptj.Gptj_30b Gptj.Fc);
  let op = Gptj.mmtv_op Gptj.Gptj_6b ~batch:4 ~tokens:128 in
  Alcotest.(check (list int)) "mmtv A" [ 64; 128; 256 ] (Op.input_shape op "A")

let test_total_flops () =
  let op = Ops.mtv 8 16 in
  Alcotest.(check (float 0.)) "flops" 128. (Op.total_flops op)

let prop_reference_va_matches =
  QCheck2.Test.make ~name:"generic reference = handwritten (va, any size)"
    QCheck2.Gen.(int_range 1 100)
    (fun n ->
      let op = Imtp_workload.Ops.va n in
      let ins = Imtp_workload.Ops.random_inputs ~seed:n op in
      T.Tensor.equal
        (Op.reference op ins)
        (T.Reference.va (List.assoc "A" ins) (List.assoc "B" ins)))

let prop_reference_mmtv_matches =
  QCheck2.Test.make ~name:"generic reference = handwritten (mmtv, any size)"
    QCheck2.Gen.(triple (int_range 1 5) (int_range 1 8) (int_range 1 9))
    (fun (b, n, k) ->
      let op = Imtp_workload.Ops.mmtv b n k in
      let ins = Imtp_workload.Ops.random_inputs ~seed:(b + n + k) op in
      T.Tensor.equal
        (Op.reference op ins)
        (T.Reference.mmtv (List.assoc "A" ins) (List.assoc "B" ins)))

(* --- staged reference vs the tree interpreter ---------------------- *)

(* The tree-walking interpreter [Op.reference] was before it was
   staged, kept verbatim as the oracle: every lookup per point, every
   access through [Tensor.get]. *)
let oracle_reference t inputs =
  let open Op in
  let find name =
    match List.assoc_opt name inputs with
    | Some x -> x
    | None -> invalid_arg (Printf.sprintf "Op.reference: missing input %s" name)
  in
  let out_shape =
    match output_shape t with [] -> T.Shape.create [ 1 ] | dims -> T.Shape.create dims
  in
  let out = T.Tensor.create t.dtype out_shape in
  let point = Hashtbl.create 8 in
  let rec eval_elem acc = function
    | Const v -> v
    | Acc -> (
        match acc with
        | Some v -> v
        | None -> invalid_arg "Op.reference: Acc outside an epilogue")
    | Ref name ->
        let dims = List.assoc name t.inputs in
        let idx = Array.of_list (List.map (Hashtbl.find point) dims) in
        T.Tensor.get (find name) idx
    | Bin (op, a, b) ->
        value_bin op (eval_elem acc a) (eval_elem acc b)
  in
  let out_index () =
    match snd t.output with
    | [] -> [| 0 |]
    | dims -> Array.of_list (List.map (Hashtbl.find point) dims)
  in
  let rec loop = function
    | [] ->
        let idx = out_index () in
        let v = eval_elem None t.body in
        if has_reduction t then T.Tensor.set out idx (T.Value.add (T.Tensor.get out idx) v)
        else T.Tensor.set out idx v
    | a :: rest ->
        for i = 0 to a.extent - 1 do
          Hashtbl.replace point a.aname i;
          loop rest
        done
  in
  loop t.axes;
  (match t.epilogue with
  | None -> ()
  | Some e ->
      let rec eloop = function
        | [] ->
            let idx = out_index () in
            let v = eval_elem (Some (T.Tensor.get out idx)) e in
            T.Tensor.set out idx v
        | d :: rest ->
            let a = axis t d in
            for i = 0 to a.extent - 1 do
              Hashtbl.replace point a.aname i;
              eloop rest
            done
      in
      eloop (snd t.output));
  out

let outcome f = match f () with v -> Ok v | exception e -> Error e

(* The same tensor, or the same exception with the same message. *)
let agrees op inputs =
  match
    ( outcome (fun () -> Op.reference op inputs),
      outcome (fun () -> oracle_reference op inputs) )
  with
  | Ok got, Ok want -> T.Tensor.equal got want
  | Error e1, Error e2 -> Printexc.to_string e1 = Printexc.to_string e2
  | Ok _, Error _ | Error _, Ok _ -> false

(* A random op with its inputs, drawn from [seed]: one to three axes of
   either kind (no spatial axis means a scalar output), one to three
   inputs of any dtype indexed by any axes, repeats allowed, each
   tensor up to two elements longer than its axes' extents, a body over
   all six [bin]s and [Int]/[Float] constants, and sometimes an
   epilogue that reads [Acc]. *)
let random_case seed =
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n in
  let pick l = List.nth l (int (List.length l)) in
  let dtypes = [ T.Dtype.I8; T.Dtype.I32; T.Dtype.F32 ] in
  let axes =
    List.init
      (1 + int 3)
      (fun i ->
        {
          Op.aname = Printf.sprintf "x%d" i;
          extent = 1 + int 4;
          kind = (if int 2 = 0 then Op.Spatial else Op.Reduction);
        })
  in
  let out_axes =
    List.filter_map
      (fun a -> if a.Op.kind = Op.Spatial then Some a.Op.aname else None)
      axes
  in
  let inputs =
    List.init
      (1 + int 3)
      (fun i ->
        let dims = List.init (1 + int 3) (fun _ -> (pick axes).Op.aname) in
        (Printf.sprintf "I%d" i, dims))
  in
  let const () =
    if int 2 = 0 then T.Value.Int (int 9 - 4)
    else T.Value.Float (pick [ 0.; -0.5; 1.5; 3.25; -2. ])
  in
  let bins = [ Op.Add; Op.Sub; Op.Mul; Op.Div; Op.Min; Op.Max ] in
  let rec elem depth leaves =
    if depth = 0 || int 3 = 0 then leaves ()
    else Op.Bin (pick bins, elem (depth - 1) leaves, elem (depth - 1) leaves)
  in
  let body =
    elem 3 (fun () ->
        if int 4 = 0 then Op.Const (const ()) else Op.Ref (fst (pick inputs)))
  in
  let op =
    Op.create ~name:"rand" ~dtype:(pick dtypes) ~axes ~inputs
      ~output:("O", out_axes) ~body
  in
  let op =
    if int 2 = 0 then op
    else
      let epi_inputs =
        List.filter
          (fun (_, dims) -> List.for_all (fun d -> List.mem d out_axes) dims)
          inputs
      in
      let leaf () =
        match int 3 with
        | 0 -> Op.Acc
        | 1 when epi_inputs <> [] -> Op.Ref (fst (pick epi_inputs))
        | _ -> Op.Const (const ())
      in
      Op.with_epilogue op (Op.Bin (pick bins, Op.Acc, elem 2 leaf))
  in
  let tensors =
    List.map
      (fun (name, dims) ->
        let shape = List.map (fun d -> (Op.axis op d).Op.extent + int 3) dims in
        let dtype = pick dtypes in
        (name, T.Tensor.random ~seed:(int 1000) ~bound:9 dtype (T.Shape.create shape)))
      inputs
  in
  (op, tensors)

let prop_staged_reference =
  QCheck2.Test.make ~count:400 ~name:"staged reference = tree interpreter"
    ~print:(fun seed ->
      Format.asprintf "seed %d: %a" seed Op.pp (fst (random_case seed)))
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let op, inputs = random_case seed in
      agrees op inputs)

let one_axis n = [ { Op.aname = "i"; extent = n; kind = Op.Spatial } ]

let ints dims l =
  let t = T.Tensor.create T.Dtype.I32 (T.Shape.create dims) in
  List.iteri (fun k n -> T.Tensor.set_flat t k (T.Value.Int n)) l;
  t

let test_staged_corners () =
  let check name op inputs want =
    Alcotest.(check bool) (name ^ ": agrees") true (agrees op inputs);
    Alcotest.(check (list string))
      name want
      (List.map T.Value.to_string (T.Tensor.to_value_list (Op.reference op inputs)))
  in
  let relu =
    Op.create ~name:"relu" ~dtype:T.Dtype.F32 ~axes:(one_axis 3)
      ~inputs:[ ("A", [ "i" ]) ]
      ~output:("C", [ "i" ])
      ~body:(Op.Bin (Op.Max, Op.Ref "A", Op.Const (T.Value.Int 0)))
  in
  let fa = T.Tensor.create T.Dtype.F32 (T.Shape.create [ 3 ]) in
  List.iteri (fun k f -> T.Tensor.set_flat fa k (T.Value.Float f)) [ -0.5; 0.25; 2. ];
  check "f32 relu" relu [ ("A", fa) ] [ "0"; "0.25"; "2" ];
  let div c =
    Op.create ~name:"div" ~dtype:T.Dtype.I32 ~axes:(one_axis 3)
      ~inputs:[ ("A", [ "i" ]) ]
      ~output:("C", [ "i" ])
      ~body:(Op.Bin (Op.Div, Op.Ref "A", Op.Const (T.Value.Int c)))
  in
  check "floor division" (div 2) [ ("A", ints [ 3 ] [ -7; 7; -1 ]) ] [ "-4"; "3"; "-1" ];
  Alcotest.check_raises "zero divisor" Division_by_zero (fun () ->
      ignore (Op.reference (div 0) [ ("A", ints [ 3 ] [ 1; 2; 3 ]) ]));
  Alcotest.(check bool) "zero divisor: agrees" true
    (agrees (div 0) [ ("A", ints [ 3 ] [ 1; 2; 3 ]) ])

(* Malformed inputs raise what the interpreter raised, including which
   of two failing operands wins: the right one is evaluated first, and
   a too-small dimension is only reached past the first point. *)
let test_staged_errors () =
  let add =
    Op.create ~name:"add" ~dtype:T.Dtype.I32
      ~axes:
        [
          { Op.aname = "i"; extent = 2; kind = Op.Spatial };
          { Op.aname = "j"; extent = 3; kind = Op.Reduction };
        ]
      ~inputs:[ ("A", [ "i"; "j" ]); ("B", [ "j" ]) ]
      ~output:("C", [ "i" ])
      ~body:(Op.Bin (Op.Add, Op.Ref "A", Op.Ref "B"))
  in
  let a = ints [ 2; 3 ] [ 1; 2; 3; 4; 5; 6 ] and b = ints [ 3 ] [ 1; 1; 1 ] in
  let oob = Invalid_argument "Shape.linearize: out of bounds" in
  List.iter
    (fun (name, inputs, exn) ->
      Alcotest.check_raises name exn (fun () -> ignore (Op.reference add inputs));
      Alcotest.(check bool) (name ^ ": agrees") true (agrees add inputs))
    [
      ("missing input", [ ("A", a) ], Invalid_argument "Op.reference: missing input B");
      ("wrong rank", [ ("A", b); ("B", b) ], oob);
      ("too-small dimension", [ ("A", ints [ 1; 3 ] [ 1; 2; 3 ]); ("B", b) ], oob);
      ("right operand first", [ ("B", a) ], oob);
      ("missing before too small", [ ("B", ints [ 2 ] [ 1; 1 ]) ],
        Invalid_argument "Op.reference: missing input A");
    ]

(* Minor words of one [Op.reference] on mtv 256x256, recorded with
   OCaml 5.1: the boxed values of each point's two reads, its product
   and its sum.  A per-point lookup or index array would cost a
   multiple of that. *)
let test_reference_alloc () =
  let op = Ops.mtv 256 256 in
  let inputs = Ops.random_inputs op in
  ignore (Op.reference op inputs);
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Op.reference op inputs));
  let w = Gc.minor_words () -. w0 in
  let recorded = 655851. in
  if w > 1.25 *. recorded then
    Alcotest.failf "Op.reference mtv 256x256: %.0f minor words, budget %.0f (1.25 x %.0f)"
      w (1.25 *. recorded) recorded

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "workload"
    [
      ( "structure",
        [
          Alcotest.test_case "va" `Quick test_va_structure;
          Alcotest.test_case "red" `Quick test_red_structure;
          Alcotest.test_case "mmtv" `Quick test_mmtv_structure;
          Alcotest.test_case "validation" `Quick test_create_validation;
          Alcotest.test_case "by_name" `Quick test_by_name;
          Alcotest.test_case "flops" `Quick test_total_flops;
        ] );
      ( "reference",
        [
          Alcotest.test_case "generic vs handwritten" `Quick test_generic_vs_handwritten;
          Alcotest.test_case "staged corner cases" `Quick test_staged_corners;
          Alcotest.test_case "staged errors" `Quick test_staged_errors;
          Alcotest.test_case "allocation budget" `Quick test_reference_alloc;
        ]
      );
      ("gptj", [ Alcotest.test_case "shapes" `Quick test_gptj_shapes ]);
      ( "properties",
        q
          [
            prop_reference_va_matches;
            prop_reference_mmtv_matches;
            prop_staged_reference;
          ] );
    ]
