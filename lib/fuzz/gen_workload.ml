module Op = Imtp_workload.Op
module Ops = Imtp_workload.Ops
module Rng = Imtp_engine.Rng

type kind =
  | Va
  | Geva of int * int
  | Elemwise of Op.elem
  | Red
  | Mtv
  | Gemv of int
  | Ttv
  | Mmtv
  | Gemm

type t = { kind : kind; dims : int list }

(* Odd / non-power-of-two biased extents: boundary checks only appear
   when tile factors fail to divide the axis, so round sizes are the
   uninteresting case here. *)
let dim_pool_1d =
  [ 1; 3; 5; 7; 9; 11; 13; 17; 19; 23; 29; 31; 33; 37; 41; 45; 61; 63; 65; 95; 100; 127; 129; 255; 500; 999 ]

let dim_pool_nd = [ 1; 2; 3; 5; 6; 7; 9; 11; 13; 15; 17; 19; 21; 23; 27; 31; 33; 37; 41; 45; 61; 63 ]

(* Keep the whole iteration domain small enough that enumerating it —
   the interpreter, the reference, and the exact DMA count all do —
   stays fast across a few hundred cases. *)
let max_work = 8_000

let rec draw_dims rng n =
  let ds = List.init n (fun _ -> Rng.pick rng dim_pool_nd) in
  if List.fold_left ( * ) 1 ds <= max_work then ds else draw_dims rng n

(* Random elementwise body over inputs A and B: a small expression tree
   of [+], [-], [*] with integer constants, guaranteed to reference at
   least one input. *)
let rec random_elem rng depth =
  if depth = 0 || Rng.int rng 3 = 0 then
    match Rng.int rng 4 with
    | 0 -> Op.Ref "A"
    | 1 -> Op.Ref "B"
    | _ -> Op.Const (Imtp_tensor.Value.Int (Rng.int rng 9 - 4))
  else
    let o = Rng.pick rng [ Op.Add; Op.Sub; Op.Mul ] in
    Op.Bin (o, random_elem rng (depth - 1), random_elem rng (depth - 1))

let rec refs_input = function
  | Op.Ref _ -> true
  | Op.Const _ | Op.Acc -> false
  | Op.Bin (_, a, b) -> refs_input a || refs_input b

let random_body rng =
  let rec go tries =
    let e = random_elem rng 2 in
    if refs_input e || tries > 4 then e else go (tries + 1)
  in
  go 0

let random rng =
  match Rng.int rng 9 with
  | 0 -> { kind = Va; dims = [ Rng.pick rng dim_pool_1d ] }
  | 1 ->
      {
        kind = Geva (1 + Rng.int rng 5, 1 + Rng.int rng 5);
        dims = [ Rng.pick rng dim_pool_1d ];
      }
  | 2 -> { kind = Elemwise (random_body rng); dims = [ Rng.pick rng dim_pool_1d ] }
  | 3 -> { kind = Red; dims = [ Rng.pick rng dim_pool_1d ] }
  | 4 -> { kind = Mtv; dims = draw_dims rng 2 }
  | 5 -> { kind = Gemv (1 + Rng.int rng 5); dims = draw_dims rng 2 }
  | 6 -> { kind = Ttv; dims = draw_dims rng 3 }
  | 7 -> { kind = Mmtv; dims = draw_dims rng 3 }
  | _ -> { kind = Gemm; dims = draw_dims rng 3 }

let dims t = t.dims

let arity t =
  match t.kind with
  | Va | Geva _ | Elemwise _ | Red -> 1
  | Mtv | Gemv _ -> 2
  | Ttv | Mmtv | Gemm -> 3

let with_dims t dims =
  if List.length dims <> arity t then
    invalid_arg "Gen_workload.with_dims: arity mismatch";
  if List.exists (fun d -> d < 1) dims then
    invalid_arg "Gen_workload.with_dims: non-positive extent";
  { t with dims }

let sp name extent = { Op.aname = name; extent; kind = Op.Spatial }

let op t =
  match (t.kind, t.dims) with
  | Va, [ n ] -> Ops.va n
  | Geva (c, d), [ n ] -> Ops.geva ~c ~d n
  | Elemwise body, [ n ] ->
      Op.create ~name:"elemwise" ~dtype:Imtp_tensor.Dtype.I32
        ~axes:[ sp "i" n ]
        ~inputs:[ ("A", [ "i" ]); ("B", [ "i" ]) ]
        ~output:("C", [ "i" ]) ~body
  | Red, [ n ] -> Ops.red n
  | Mtv, [ n; k ] -> Ops.mtv n k
  | Gemv c, [ n; k ] -> Ops.gemv ~c n k
  | Ttv, [ n; m; k ] -> Ops.ttv n m k
  | Mmtv, [ b; n; k ] -> Ops.mmtv b n k
  | Gemm, [ n; m; k ] -> Ops.gemm n m k
  | _, _ -> invalid_arg "Gen_workload.op: malformed dims"

let kind_name = function
  | Va -> "va"
  | Geva _ -> "geva"
  | Elemwise _ -> "elemwise"
  | Red -> "red"
  | Mtv -> "mtv"
  | Gemv _ -> "gemv"
  | Ttv -> "ttv"
  | Mmtv -> "mmtv"
  | Gemm -> "gemm"

let rec elem_str = function
  | Op.Ref t -> t
  | Op.Const v -> Imtp_tensor.Value.to_string v
  | Op.Acc -> "@acc"
  | Op.Bin (o, a, b) ->
      let os =
        match o with
        | Op.Add -> "+"
        | Op.Sub -> "-"
        | Op.Mul -> "*"
        | Op.Div -> "//"
        | Op.Min -> "min"
        | Op.Max -> "max"
      in
      Printf.sprintf "(%s %s %s)" (elem_str a) os (elem_str b)

let describe t =
  let base =
    Printf.sprintf "%s %s" (kind_name t.kind)
      (String.concat "x" (List.map string_of_int t.dims))
  in
  match t.kind with
  | Elemwise body -> Printf.sprintf "%s body=%s" base (elem_str body)
  | Geva (c, d) -> Printf.sprintf "%s c=%d d=%d" base c d
  | Gemv c -> Printf.sprintf "%s c=%d" base c
  | _ -> base
