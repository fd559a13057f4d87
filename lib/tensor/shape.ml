type t = int array

let of_array a =
  if Array.length a = 0 then invalid_arg "Shape.of_array: empty shape";
  Array.iter
    (fun d -> if d <= 0 then invalid_arg "Shape.of_array: non-positive dim")
    a;
  Array.copy a

let create dims = of_array (Array.of_list dims)
let dims t = Array.to_list t
let rank = Array.length

let dim t i =
  if i < 0 || i >= Array.length t then invalid_arg "Shape.dim: axis";
  t.(i)

let size t = Array.fold_left ( * ) 1 t

let strides t =
  let n = Array.length t in
  let s = Array.make n 1 in
  for i = n - 2 downto 0 do
    s.(i) <- s.(i + 1) * t.(i + 1)
  done;
  s

let in_bounds t idx =
  let n = Array.length t in
  Array.length idx = n
  &&
  let rec ok i = i = n || (idx.(i) >= 0 && idx.(i) < t.(i) && ok (i + 1)) in
  ok 0

(* Horner's rule over the dimensions: the same offset as summing
   [idx.(i) * strides.(i)], without allocating the strides. *)
let linearize t idx =
  if not (in_bounds t idx) then invalid_arg "Shape.linearize: out of bounds";
  let off = ref 0 in
  for i = 0 to Array.length t - 1 do
    off := (!off * t.(i)) + idx.(i)
  done;
  !off

let equal a b = a = b

(* An odometer over the index, last axis fastest. *)
let iter t f =
  let n = Array.length t in
  let idx = Array.make n 0 in
  for _ = 1 to size t do
    f (Array.copy idx);
    let i = ref (n - 1) in
    while !i >= 0 && idx.(!i) = t.(!i) - 1 do
      idx.(!i) <- 0;
      decr i
    done;
    if !i >= 0 then idx.(!i) <- idx.(!i) + 1
  done

let to_string t =
  String.concat "x" (List.map string_of_int (Array.to_list t))

let pp ppf t = Format.pp_print_string ppf (to_string t)
