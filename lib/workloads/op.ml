module T = Imtp_tensor

type axis_kind = Spatial | Reduction
type axis = { aname : string; extent : int; kind : axis_kind }

type elem = Ref of string | Const of T.Value.t | Acc | Bin of bin * elem * elem
and bin = Add | Sub | Mul | Div | Min | Max

type t = {
  opname : string;
  dtype : T.Dtype.t;
  axes : axis list;
  inputs : (string * string list) list;
  output : string * string list;
  body : elem;
  epilogue : elem option;
}

let axis t name =
  match List.find_opt (fun a -> String.equal a.aname name) t.axes with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Op.axis: unknown axis %s" name)

let rec elem_refs = function
  | Ref n -> [ n ]
  | Const _ | Acc -> []
  | Bin (_, a, b) -> elem_refs a @ elem_refs b

let rec elem_has_acc = function
  | Acc -> true
  | Ref _ | Const _ -> false
  | Bin (_, a, b) -> elem_has_acc a || elem_has_acc b

let dedup names =
  List.rev
    (List.fold_left (fun acc n -> if List.mem n acc then acc else n :: acc) [] names)

let body_refs t = dedup (elem_refs t.body)

let epilogue_refs t =
  match t.epilogue with None -> [] | Some e -> dedup (elem_refs e)

let create ~name ~dtype ~axes ~inputs ~output ~body =
  let t = { opname = name; dtype; axes; inputs; output; body; epilogue = None } in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun a ->
      if a.extent <= 0 then invalid_arg "Op.create: non-positive axis extent";
      if Hashtbl.mem seen a.aname then invalid_arg "Op.create: duplicate axis";
      Hashtbl.add seen a.aname ())
    axes;
  List.iter
    (fun (tn, dims) ->
      if dims = [] then
        invalid_arg (Printf.sprintf "Op.create: input %s has no axes" tn);
      List.iter (fun d -> ignore (axis t d)) dims)
    inputs;
  let _, out_dims = output in
  List.iter
    (fun d ->
      let a = axis t d in
      if a.kind = Reduction then
        invalid_arg "Op.create: output indexed by a reduction axis")
    out_dims;
  if elem_has_acc t.body then
    invalid_arg "Op.create: Acc is only meaningful inside an epilogue";
  List.iter
    (fun r ->
      if not (List.mem_assoc r inputs) then
        invalid_arg (Printf.sprintf "Op.create: body references unknown input %s" r))
    (elem_refs body);
  t

let with_epilogue t e =
  let out_dims = snd t.output in
  List.iter
    (fun r ->
      match List.assoc_opt r t.inputs with
      | None ->
          invalid_arg
            (Printf.sprintf "Op.with_epilogue: epilogue references unknown input %s" r)
      | Some dims ->
          List.iter
            (fun d ->
              if not (List.mem d out_dims) then
                invalid_arg
                  (Printf.sprintf
                     "Op.with_epilogue: epilogue input %s indexed by non-output axis %s"
                     r d))
            dims)
    (elem_refs e);
  { t with epilogue = Some e }

let spatial_axes t = List.filter (fun a -> a.kind = Spatial) t.axes
let reduction_axes t = List.filter (fun a -> a.kind = Reduction) t.axes
let has_reduction t = reduction_axes t <> []

let input_shape t name =
  match List.assoc_opt name t.inputs with
  | Some dims -> List.map (fun d -> (axis t d).extent) dims
  | None -> invalid_arg (Printf.sprintf "Op.input_shape: unknown input %s" name)

let output_shape t = List.map (fun d -> (axis t d).extent) (snd t.output)
let output_elems t = List.fold_left ( * ) 1 (output_shape t)

let total_flops t =
  List.fold_left (fun acc a -> acc *. float_of_int a.extent) 1. t.axes

(* Match the TIR evaluator's [Binop Div]/[Min]/[Max] semantics so the
   golden reference and lowered kernels agree bit-for-bit: integer
   division is floor division (Simplify.fold_binop), floats divide
   exactly. *)
let value_bin op x y =
  match op with
  | Add -> T.Value.add x y
  | Sub -> T.Value.sub x y
  | Mul -> T.Value.mul x y
  | Min -> T.Value.min_v x y
  | Max -> T.Value.max_v x y
  | Div -> (
      match (x, y) with
      | T.Value.Int a, T.Value.Int b when b <> 0 ->
          let q = a / b and r = a mod b in
          T.Value.Int (if r <> 0 && r < 0 <> (b < 0) then q - 1 else q)
      | _ -> T.Value.div x y)

let out_of_bounds () = invalid_arg "Shape.linearize: out of bounds"

(* [sum_j point.(slots.(j)) * strides.(j)]. *)
let offset point slots strides () =
  let off = ref 0 in
  for j = 0 to Array.length slots - 1 do
    off := !off + (point.(slots.(j)) * strides.(j))
  done;
  !off

(* The golden evaluator, staged once per call.  Every axis gets a slot
   in one [int array] point; every [Ref] resolves to its tensor and
   (slot, stride) pairs over that tensor's own shape; the body and
   epilogue become closures that apply [value_bin] as a walk of the
   expression at each point would.  The loop nest then does no lookups.

   Staging raises what such a walk raises at its first access of each
   [Ref], in the same order: right operands before left ones (OCaml
   evaluates [value_bin]'s arguments right to left), every lookup and
   rank check of an expression before any of its dimension checks (a
   dimension smaller than its axis's extent is first reached past the
   first point), and the epilogue only once the body has run. *)
let reference t inputs =
  let axes = Array.of_list t.axes in
  let slot name =
    let rec go i =
      if i = Array.length axes then raise Not_found
      else if String.equal axes.(i).aname name then i
      else go (i + 1)
    in
    go 0
  in
  let point = Array.make (Array.length axes) 0 in
  (* Stages [e]; [acc] holds the accumulated output value while an
     epilogue runs.  Dimension checks are made once the whole of [e]
     has been resolved. *)
  let stage acc e =
    let checks = ref [] in
    let rec go = function
      | Const v -> fun () -> v
      | Acc -> (
          match acc with
          | Some r -> fun () -> !r
          | None -> invalid_arg "Op.reference: Acc outside an epilogue")
      | Ref name ->
          let slots = Array.of_list (List.map slot (List.assoc name t.inputs)) in
          let x =
            match List.assoc_opt name inputs with
            | Some x -> x
            | None -> invalid_arg (Printf.sprintf "Op.reference: missing input %s" name)
          in
          let shape = T.Tensor.shape x in
          if T.Shape.rank shape <> Array.length slots then out_of_bounds ();
          checks := (slots, shape) :: !checks;
          let off = offset point slots (T.Shape.strides shape) in
          fun () -> T.Tensor.get_flat x (off ())
      | Bin (op, a, b) ->
          let fb = go b in
          let fa = go a in
          fun () ->
            let vb = fb () in
            value_bin op (fa ()) vb
    in
    let f = go e in
    List.iter
      (fun (slots, shape) ->
        Array.iteri
          (fun j s -> if T.Shape.dim shape j < axes.(s).extent then out_of_bounds ())
          slots)
      (List.rev !checks);
    f
  in
  let out_shape =
    match output_shape t with [] -> T.Shape.create [ 1 ] | dims -> T.Shape.create dims
  in
  let out = T.Tensor.create t.dtype out_shape in
  let out_slots = Array.of_list (List.map slot (snd t.output)) in
  let out_off = offset point out_slots (T.Shape.strides out_shape) in
  let rec nest leaf = function
    | [] -> leaf
    | s :: rest ->
        let inner = nest leaf rest in
        let extent = axes.(s).extent in
        fun () ->
          for i = 0 to extent - 1 do
            point.(s) <- i;
            inner ()
          done
  in
  let body = stage None t.body in
  let leaf =
    if has_reduction t then fun () ->
      let off = out_off () in
      let v = body () in
      T.Tensor.set_flat out off (T.Value.add (T.Tensor.get_flat out off) v)
    else fun () -> T.Tensor.set_flat out (out_off ()) (body ())
  in
  nest leaf (List.init (Array.length axes) Fun.id) ();
  (match t.epilogue with
  | None -> ()
  | Some e ->
      let acc = ref (T.Value.Int 0) in
      let epi = stage (Some acc) e in
      let leaf () =
        let off = out_off () in
        acc := T.Tensor.get_flat out off;
        T.Tensor.set_flat out off (epi ())
      in
      nest leaf (Array.to_list out_slots) ());
  out

let rec pp_elem ppf = function
  | Ref n -> Format.pp_print_string ppf n
  | Const v -> T.Value.pp ppf v
  | Acc -> Format.pp_print_string ppf "@acc"
  | Bin (((Min | Max) as op), a, b) ->
      Format.fprintf ppf "%s(%a, %a)"
        (match op with Min -> "min" | _ -> "max")
        pp_elem a pp_elem b
  | Bin (op, a, b) ->
      let s =
        match op with
        | Add -> "+"
        | Sub -> "-"
        | Mul -> "*"
        | Div -> "//"
        | Min | Max -> assert false
      in
      Format.fprintf ppf "(%a %s %a)" pp_elem a s pp_elem b

let pp ppf t =
  let axis_str a =
    Format.sprintf "%s%s:%d" a.aname
      (match a.kind with Spatial -> "" | Reduction -> "(red)")
      a.extent
  in
  Format.fprintf ppf "%s[%s] %s%s = %a%a" t.opname
    (String.concat ", " (List.map axis_str t.axes))
    (fst t.output)
    (match snd t.output with
    | [] -> ""
    | dims -> "(" ^ String.concat "," dims ^ ")")
    pp_elem t.body
    (fun ppf -> function
      | None -> ()
      | Some e -> Format.fprintf ppf "; epilogue %a" pp_elem e)
    t.epilogue
