(* Output checks.  Outputs are compared element by element over their
   flat value sequences, as `imtp run` compares [Tensor.to_value_list]s:
   [Tensor.equal] also compares shapes, and tuned TTV/MMTV programs
   return flattened host buffers whose values are right. *)

(* Ops whose inputs total more elements than this are tuned but not
   executed: GEMV 8192^2 alone would spend tens of seconds generating
   inputs, executing and running [Op.reference]. *)
let validation_cap = 1 lsl 22

let input_elems (op : Imtp.Op.t) =
  List.fold_left
    (fun acc (name, _) ->
      acc + List.fold_left ( * ) 1 (Imtp.Op.input_shape op name))
    0 op.Imtp.Op.inputs

(* [None] when equal, else a description of the first difference. *)
let first_difference ~got ~want =
  let n = Imtp.Tensor.size want in
  if Imtp.Tensor.size got <> n then
    Some (Printf.sprintf "%d elements, want %d" (Imtp.Tensor.size got) n)
  else
    let rec go i =
      if i = n then None
      else
        let g = Imtp.Tensor.get_flat got i and w = Imtp.Tensor.get_flat want i in
        if g = w then go (i + 1)
        else
          Some
            (Printf.sprintf "element %d is %s, want %s" i
               (Imtp.Value.to_string g) (Imtp.Value.to_string w))
    in
    go 0
