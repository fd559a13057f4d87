type data = I8_data of int array | I32_data of int array | F32_data of float array
type t = { shape : Shape.t; data : data }

let create dt shape =
  let n = Shape.size shape in
  let data =
    match dt with
    | Dtype.I8 -> I8_data (Array.make n 0)
    | Dtype.I32 -> I32_data (Array.make n 0)
    | Dtype.F32 -> F32_data (Array.make n 0.)
  in
  { shape; data }

let dtype t =
  match t.data with
  | I8_data _ -> Dtype.I8
  | I32_data _ -> Dtype.I32
  | F32_data _ -> Dtype.F32
let shape t = t.shape
let size t = Shape.size t.shape

type view = Ints of int array | Floats of float array

let view t =
  match t.data with I8_data a | I32_data a -> Ints a | F32_data a -> Floats a

let get_flat t off =
  match t.data with
  | I8_data a | I32_data a -> Value.Int a.(off)
  | F32_data a -> Value.Float a.(off)

(* Element conversions on store.  Implicit conversions: pinned
   saturating truncation toward zero (see Dtype.int_of_f32), float32
   rounding toward int sources. *)
let to_i8 = function
  | Value.Int n -> Dtype.wrap_i8 n
  | Value.Float f -> Dtype.wrap_i8 (Dtype.int_of_f32 f)

let to_i32 = function Value.Int n -> n | Value.Float f -> Dtype.int_of_f32 f

let to_f32 = function
  | Value.Float f -> f
  | Value.Int n -> Dtype.round_f32 (float_of_int n)

let set_flat t off v =
  match t.data with
  | I8_data a -> a.(off) <- to_i8 v
  | I32_data a -> a.(off) <- to_i32 v
  | F32_data a -> a.(off) <- to_f32 v

(* Bulk flat copy with [set_flat] conversion semantics; same-dtype
   pairs take an [Array.blit] fast path.  Bounds must have been checked
   by the caller. *)
let blit_flat ~src ~src_off ~dst ~dst_off n =
  if n <= 0 then ()
  else
    match (src.data, dst.data) with
  | I8_data s, I8_data d | I32_data s, I32_data d ->
      Array.blit s src_off d dst_off n
  | F32_data s, F32_data d -> Array.blit s src_off d dst_off n
  | (I8_data _ | I32_data _ | F32_data _), _ ->
      for i = 0 to n - 1 do
        set_flat dst (dst_off + i) (get_flat src (src_off + i))
      done

let get t idx = get_flat t (Shape.linearize t.shape idx)
let set t idx v = set_flat t (Shape.linearize t.shape idx) v

let init dt shape f =
  let t = create dt shape in
  let off = ref 0 in
  Shape.iter shape (fun idx ->
      set_flat t !off (f idx);
      incr off);
  t

let scalar v =
  let t = create (Value.dtype v) (Shape.create [ 1 ]) in
  set_flat t 0 v;
  t

(* A typed loop: [Array.copy] of a large int array initializes the
   major-heap copy through the runtime element by element. *)
let copy_ints a =
  let b = Array.make (Array.length a) 0 in
  for i = 0 to Array.length a - 1 do
    b.(i) <- a.(i)
  done;
  b

let copy t =
  let data =
    match t.data with
    | I8_data a -> I8_data (copy_ints a)
    | I32_data a -> I32_data (copy_ints a)
    | F32_data a -> F32_data (Array.copy a)
  in
  { t with data }

let fill t v =
  match t.data with
  | I8_data a -> Array.fill a 0 (Array.length a) (to_i8 v)
  | I32_data a -> Array.fill a 0 (Array.length a) (to_i32 v)
  | F32_data a -> Array.fill a 0 (Array.length a) (to_f32 v)

let random ?(seed = 42) ?(bound = 100) dt shape =
  let st = Random.State.make [| seed; Shape.size shape |] in
  init dt shape (fun _ ->
      let n = Random.State.int st ((2 * bound) + 1) - bound in
      match dt with
      | Dtype.I8 -> Value.Int (Dtype.wrap_i8 n)
      | Dtype.I32 -> Value.Int n
      | Dtype.F32 ->
          Value.Float (Dtype.round_f32 (float_of_int n /. float_of_int bound)))

let equal a b =
  Shape.equal a.shape b.shape
  &&
  match (a.data, b.data) with
  | I8_data x, I8_data y | I32_data x, I32_data y -> x = y
  | F32_data x, F32_data y ->
      Array.for_all2 (fun u v -> Float.equal u v) x y
  | (I8_data _ | I32_data _ | F32_data _), _ -> false

let max_abs_diff a b =
  if not (Shape.equal a.shape b.shape) then infinity
  else begin
    let m = ref 0. in
    for off = 0 to size a - 1 do
      let d =
        Float.abs (Value.to_float (get_flat a off) -. Value.to_float (get_flat b off))
      in
      if d > !m then m := d
    done;
    !m
  end

let close ?(rtol = 1e-4) ?(atol = 1e-5) a b =
  Shape.equal a.shape b.shape
  && Dtype.equal (dtype a) (dtype b)
  &&
  (let ok = ref true in
   for off = 0 to size a - 1 do
     let x = Value.to_float (get_flat a off)
     and y = Value.to_float (get_flat b off) in
     if Float.abs (x -. y) > atol +. (rtol *. Float.abs y) then ok := false
   done;
   !ok)

let to_value_list t = List.init (size t) (get_flat t)

(* [to_value_list a = to_value_list b] without the lists: polymorphic
   equality on the flat arrays differs on length and compares floats
   with IEEE [=].  A shape is never empty, so an int and a float tensor
   always differ. *)
let same_values a b =
  match (view a, view b) with
  | Ints x, Ints y -> x = y
  | Floats x, Floats y -> x = y
  | Ints _, Floats _ | Floats _, Ints _ -> false

let pp ppf t =
  let n = min 16 (size t) in
  let elems = List.init n (fun i -> Value.to_string (get_flat t i)) in
  Format.fprintf ppf "tensor<%a,%a>[%s%s]" Shape.pp t.shape Dtype.pp (dtype t)
    (String.concat "; " elems)
    (if size t > n then "; ..." else "")
