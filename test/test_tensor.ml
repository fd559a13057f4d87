(* Unit and property tests for the tensor substrate. *)

module T = Imtp_tensor

let shape l = T.Shape.create l

let test_shape_basics () =
  let s = shape [ 3; 4; 5 ] in
  Alcotest.(check int) "rank" 3 (T.Shape.rank s);
  Alcotest.(check int) "size" 60 (T.Shape.size s);
  Alcotest.(check (list int)) "dims" [ 3; 4; 5 ] (T.Shape.dims s);
  Alcotest.(check string) "to_string" "3x4x5" (T.Shape.to_string s)

let test_shape_strides () =
  let s = shape [ 3; 4; 5 ] in
  Alcotest.(check (array int)) "strides" [| 20; 5; 1 |] (T.Shape.strides s)

let test_shape_linearize () =
  let s = shape [ 3; 4; 5 ] in
  Alcotest.(check int) "origin" 0 (T.Shape.linearize s [| 0; 0; 0 |]);
  Alcotest.(check int) "last" 59 (T.Shape.linearize s [| 2; 3; 4 |]);
  Alcotest.(check int) "mixed" 27 (T.Shape.linearize s [| 1; 1; 2 |])

(* The k-th index [Shape.iter] hands out linearizes to k, and a callback
   that scribbles on its array does not disturb the walk. *)
let test_shape_iter_linearize_order () =
  List.iter
    (fun dims ->
      let s = shape dims in
      let k = ref 0 in
      T.Shape.iter s (fun idx ->
          Alcotest.(check int) "k-th index" !k (T.Shape.linearize s idx);
          Array.fill idx 0 (Array.length idx) 7;
          incr k);
      Alcotest.(check int) "every index once" (T.Shape.size s) !k)
    [ [ 1 ]; [ 5 ]; [ 3; 4; 5 ]; [ 2; 1; 3 ]; [ 1; 1 ] ]

let test_shape_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Shape.of_array: empty shape")
    (fun () -> ignore (shape []));
  Alcotest.check_raises "nonpos"
    (Invalid_argument "Shape.of_array: non-positive dim") (fun () ->
      ignore (shape [ 3; 0 ]))

let test_shape_in_bounds () =
  let s = shape [ 2; 3 ] in
  Alcotest.(check bool) "ok" true (T.Shape.in_bounds s [| 1; 2 |]);
  Alcotest.(check bool) "over" false (T.Shape.in_bounds s [| 1; 3 |]);
  Alcotest.(check bool) "neg" false (T.Shape.in_bounds s [| -1; 0 |]);
  Alcotest.(check bool) "rank" false (T.Shape.in_bounds s [| 1 |])

let test_shape_iter_order () =
  let s = shape [ 2; 2 ] in
  let seen = ref [] in
  T.Shape.iter s (fun idx -> seen := Array.to_list idx :: !seen);
  Alcotest.(check (list (list int)))
    "row major" [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ] (List.rev !seen)

let test_dtype () =
  Alcotest.(check int) "i32 bytes" 4 (T.Dtype.size_in_bytes T.Dtype.I32);
  Alcotest.(check int) "wrap pos" 2147483647 (T.Dtype.wrap_i32 2147483647);
  Alcotest.(check int) "wrap over" (-2147483648) (T.Dtype.wrap_i32 2147483648);
  Alcotest.(check int) "wrap neg" (-1) (T.Dtype.wrap_i32 (-1));
  Alcotest.(check (float 0.))
    "f32 rounding" 0.100000001490116119
    (T.Dtype.round_f32 0.1)

let test_value_arith () =
  let open T.Value in
  Alcotest.(check bool) "add" true (equal (add (Int 2) (Int 3)) (Int 5));
  Alcotest.(check bool) "mul wrap" true
    (equal (mul (Int 65536) (Int 65536)) (Int 0));
  Alcotest.(check bool) "div trunc" true (equal (div (Int (-7)) (Int 2)) (Int (-3)));
  Alcotest.(check bool) "mixed promotes" true
    (match add (Int 1) (Float 0.5) with Float _ -> true | Int _ -> false);
  Alcotest.(check bool) "min" true (equal (min_v (Int 3) (Int (-1))) (Int (-1)));
  Alcotest.(check bool) "max" true (equal (max_v (Int 3) (Int (-1))) (Int 3));
  Alcotest.(check bool) "neg" true (equal (neg (Int 5)) (Int (-5)))

let test_value_div_by_zero () =
  Alcotest.check_raises "div0" Division_by_zero (fun () ->
      ignore (T.Value.div (T.Value.Int 1) (T.Value.Int 0)))

let test_tensor_get_set () =
  let t = T.Tensor.create T.Dtype.I32 (shape [ 2; 3 ]) in
  T.Tensor.set t [| 1; 2 |] (T.Value.Int 42);
  Alcotest.(check bool) "set/get" true
    (T.Value.equal (T.Tensor.get t [| 1; 2 |]) (T.Value.Int 42));
  Alcotest.(check bool) "other zero" true
    (T.Value.equal (T.Tensor.get t [| 0; 0 |]) (T.Value.Int 0))

let test_tensor_init_copy () =
  let t =
    T.Tensor.init T.Dtype.I32 (shape [ 4 ]) (fun i -> T.Value.Int (i.(0) * 10))
  in
  let u = T.Tensor.copy t in
  T.Tensor.set u [| 0 |] (T.Value.Int 99);
  Alcotest.(check bool) "copy is deep" true
    (T.Value.equal (T.Tensor.get t [| 0 |]) (T.Value.Int 0));
  Alcotest.(check bool) "copy holds" true
    (T.Value.equal (T.Tensor.get u [| 3 |]) (T.Value.Int 30))

(* [Tensor.random ~seed:42 ~bound:9] digested over one shape per dtype,
   pinned: filling by flat offset must draw the stream in the same
   order as filling by index did. *)
let test_tensor_random_pinned () =
  let elem = function
    | T.Value.Int n -> string_of_int n
    | T.Value.Float f -> Printf.sprintf "%h" f
  in
  let digest =
    [ (T.Dtype.I8, [ 7; 5 ]); (T.Dtype.I32, [ 3; 4; 5 ]); (T.Dtype.F32, [ 33 ]) ]
    |> List.map (fun (dt, dims) ->
           T.Tensor.random ~seed:42 ~bound:9 dt (shape dims)
           |> T.Tensor.to_value_list |> List.map elem |> String.concat ",")
    |> String.concat ";" |> Digest.string |> Digest.to_hex
  in
  Alcotest.(check string) "digest" "e49144bd59a351aabd3209c24aed9694" digest

(* [same_values] is [to_value_list a = to_value_list b]. *)
let test_tensor_same_values () =
  let of_list dt dims l =
    let t = T.Tensor.create dt (shape dims) in
    List.iteri (T.Tensor.set_flat t) l;
    t
  in
  let ints dt l = of_list dt [ List.length l ] (List.map (fun n -> T.Value.Int n) l) in
  let floats l =
    of_list T.Dtype.F32 [ List.length l ] (List.map (fun f -> T.Value.Float f) l)
  in
  List.iter
    (fun (name, a, b, want) ->
      Alcotest.(check bool) name want (T.Tensor.same_values a b);
      Alcotest.(check bool)
        (name ^ " as value lists") want
        (T.Tensor.to_value_list a = T.Tensor.to_value_list b))
    [
      ("equal ints", ints T.Dtype.I32 [ 1; -2 ], ints T.Dtype.I32 [ 1; -2 ], true);
      ("one differs", ints T.Dtype.I32 [ 1; -2 ], ints T.Dtype.I32 [ 1; 2 ], false);
      ("sizes differ", ints T.Dtype.I32 [ 1 ], ints T.Dtype.I32 [ 1; 0 ], false);
      ("i8 = i32", ints T.Dtype.I8 [ 5; -3 ], ints T.Dtype.I32 [ 5; -3 ], true);
      ("int <> float", ints T.Dtype.I32 [ 1 ], floats [ 1. ], false);
      ("nan <> nan", floats [ Float.nan ], floats [ Float.nan ], false);
      ("0. = -0.", floats [ 0. ], floats [ -0. ], true);
      ( "shapes aside",
        of_list T.Dtype.I32 [ 2; 1 ] [ T.Value.Int 1; T.Value.Int 2 ],
        ints T.Dtype.I32 [ 1; 2 ],
        true );
    ]

let test_tensor_random_deterministic () =
  let a = T.Tensor.random ~seed:5 T.Dtype.I32 (shape [ 100 ]) in
  let b = T.Tensor.random ~seed:5 T.Dtype.I32 (shape [ 100 ]) in
  let c = T.Tensor.random ~seed:6 T.Dtype.I32 (shape [ 100 ]) in
  Alcotest.(check bool) "same seed equal" true (T.Tensor.equal a b);
  Alcotest.(check bool) "diff seed differs" false (T.Tensor.equal a c)

let test_tensor_close () =
  let a = T.Tensor.init T.Dtype.F32 (shape [ 3 ]) (fun _ -> T.Value.Float 1.0) in
  let b =
    T.Tensor.init T.Dtype.F32 (shape [ 3 ]) (fun _ -> T.Value.Float 1.00001)
  in
  Alcotest.(check bool) "close" true (T.Tensor.close a b);
  let c = T.Tensor.init T.Dtype.F32 (shape [ 3 ]) (fun _ -> T.Value.Float 2.0) in
  Alcotest.(check bool) "not close" false (T.Tensor.close a c)

let test_set_flat_conversion () =
  let t = T.Tensor.create T.Dtype.I32 (shape [ 1 ]) in
  T.Tensor.set_flat t 0 (T.Value.Float 3.7);
  Alcotest.(check bool) "float->int truncates" true
    (T.Value.equal (T.Tensor.get_flat t 0) (T.Value.Int 3))

(* Reference implementations against hand-computed examples. *)

let i32 l = T.Tensor.init T.Dtype.I32 (shape [ List.length l ]) (fun i -> T.Value.Int (List.nth l i.(0)))

let test_ref_va () =
  let c = T.Reference.va (i32 [ 1; 2; 3 ]) (i32 [ 10; 20; 30 ]) in
  Alcotest.(check (list string)) "va" [ "11"; "22"; "33" ]
    (List.map T.Value.to_string (T.Tensor.to_value_list c))

let test_ref_geva () =
  let c =
    T.Reference.geva (T.Value.Int 2) (T.Value.Int 3) (i32 [ 1; 2 ]) (i32 [ 10; 20 ])
  in
  Alcotest.(check (list string)) "geva" [ "32"; "64" ]
    (List.map T.Value.to_string (T.Tensor.to_value_list c))

let test_ref_red () =
  Alcotest.(check string) "red" "6"
    (T.Value.to_string (T.Reference.red (i32 [ 1; 2; 3 ])))

let test_ref_mtv () =
  let a =
    T.Tensor.init T.Dtype.I32 (shape [ 2; 3 ]) (fun i ->
        T.Value.Int ((i.(0) * 3) + i.(1) + 1))
  in
  (* A = [[1;2;3];[4;5;6]], B = [1;1;1] -> C = [6;15] *)
  let c = T.Reference.mtv a (i32 [ 1; 1; 1 ]) in
  Alcotest.(check (list string)) "mtv" [ "6"; "15" ]
    (List.map T.Value.to_string (T.Tensor.to_value_list c))

let test_ref_gemv_scale () =
  let a =
    T.Tensor.init T.Dtype.I32 (shape [ 2; 2 ]) (fun i ->
        T.Value.Int ((i.(0) * 2) + i.(1)))
  in
  let c = T.Reference.gemv (T.Value.Int 10) a (i32 [ 1; 2 ]) in
  (* rows [0;1],[2;3]; dot with [1;2] = 2, 8; x10 = 20, 80 *)
  Alcotest.(check (list string)) "gemv" [ "20"; "80" ]
    (List.map T.Value.to_string (T.Tensor.to_value_list c))

let test_ref_ttv () =
  let a =
    T.Tensor.init T.Dtype.I32 (shape [ 2; 2; 2 ]) (fun i ->
        T.Value.Int ((i.(0) * 4) + (i.(1) * 2) + i.(2)))
  in
  let c = T.Reference.ttv a (i32 [ 1; 1 ]) in
  Alcotest.(check (list string)) "ttv" [ "1"; "5"; "9"; "13" ]
    (List.map T.Value.to_string (T.Tensor.to_value_list c))

let test_ref_mmtv () =
  let a =
    T.Tensor.init T.Dtype.I32 (shape [ 2; 2; 2 ]) (fun i ->
        T.Value.Int ((i.(0) * 4) + (i.(1) * 2) + i.(2)))
  in
  let b =
    T.Tensor.init T.Dtype.I32 (shape [ 2; 2 ]) (fun i ->
        T.Value.Int (if i.(0) = 0 then 1 else 2))
  in
  (* batch 0 rows dot [1;1]: 1, 5; batch 1 rows dot [2;2]: 18, 26 *)
  let c = T.Reference.mmtv a b in
  Alcotest.(check (list string)) "mmtv" [ "1"; "5"; "18"; "26" ]
    (List.map T.Value.to_string (T.Tensor.to_value_list c))

(* Property tests. *)

let prop_linearize_bijective =
  QCheck2.Test.make ~name:"shape linearize bijective"
    QCheck2.Gen.(list_size (int_range 1 3) (int_range 1 6))
    (fun dims ->
      let s = shape dims in
      let offs = ref [] in
      T.Shape.iter s (fun idx -> offs := T.Shape.linearize s idx :: !offs);
      List.rev !offs = List.init (T.Shape.size s) Fun.id)

let prop_va_commutes =
  QCheck2.Test.make ~name:"va commutative"
    QCheck2.Gen.(int_range 1 64)
    (fun n ->
      let a = T.Tensor.random ~seed:n T.Dtype.I32 (shape [ n ]) in
      let b = T.Tensor.random ~seed:(n + 1) T.Dtype.I32 (shape [ n ]) in
      T.Tensor.equal (T.Reference.va a b) (T.Reference.va b a))

let prop_red_linear =
  QCheck2.Test.make ~name:"red of va = sum of reds"
    QCheck2.Gen.(int_range 1 64)
    (fun n ->
      let a = T.Tensor.random ~seed:n T.Dtype.I32 (shape [ n ]) in
      let b = T.Tensor.random ~seed:(n + 7) T.Dtype.I32 (shape [ n ]) in
      T.Value.equal
        (T.Reference.red (T.Reference.va a b))
        (T.Value.add (T.Reference.red a) (T.Reference.red b)))

let prop_mtv_linearity =
  QCheck2.Test.make ~name:"mtv distributes over vector addition"
    QCheck2.Gen.(pair (int_range 1 8) (int_range 1 8))
    (fun (n, k) ->
      let a = T.Tensor.random ~seed:3 T.Dtype.I32 (shape [ n; k ]) in
      let x = T.Tensor.random ~seed:4 T.Dtype.I32 (shape [ k ]) in
      let y = T.Tensor.random ~seed:5 T.Dtype.I32 (shape [ k ]) in
      T.Tensor.equal
        (T.Reference.mtv a (T.Reference.va x y))
        (T.Reference.va (T.Reference.mtv a x) (T.Reference.mtv a y)))

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "tensor"
    [
      ( "shape",
        [
          Alcotest.test_case "basics" `Quick test_shape_basics;
          Alcotest.test_case "strides" `Quick test_shape_strides;
          Alcotest.test_case "linearize" `Quick test_shape_linearize;
          Alcotest.test_case "iter linearize order" `Quick
            test_shape_iter_linearize_order;
          Alcotest.test_case "invalid" `Quick test_shape_invalid;
          Alcotest.test_case "in_bounds" `Quick test_shape_in_bounds;
          Alcotest.test_case "iter order" `Quick test_shape_iter_order;
        ] );
      ( "dtype+value",
        [
          Alcotest.test_case "dtype" `Quick test_dtype;
          Alcotest.test_case "value arith" `Quick test_value_arith;
          Alcotest.test_case "div by zero" `Quick test_value_div_by_zero;
        ] );
      ( "tensor",
        [
          Alcotest.test_case "get/set" `Quick test_tensor_get_set;
          Alcotest.test_case "init/copy" `Quick test_tensor_init_copy;
          Alcotest.test_case "random deterministic" `Quick
            test_tensor_random_deterministic;
          Alcotest.test_case "random pinned" `Quick test_tensor_random_pinned;
          Alcotest.test_case "same values" `Quick test_tensor_same_values;
          Alcotest.test_case "close" `Quick test_tensor_close;
          Alcotest.test_case "flat conversion" `Quick test_set_flat_conversion;
        ] );
      ( "reference",
        [
          Alcotest.test_case "va" `Quick test_ref_va;
          Alcotest.test_case "geva" `Quick test_ref_geva;
          Alcotest.test_case "red" `Quick test_ref_red;
          Alcotest.test_case "mtv" `Quick test_ref_mtv;
          Alcotest.test_case "gemv" `Quick test_ref_gemv_scale;
          Alcotest.test_case "ttv" `Quick test_ref_ttv;
          Alcotest.test_case "mmtv" `Quick test_ref_mmtv;
        ] );
      ( "properties",
        q
          [
            prop_linearize_bijective;
            prop_va_commutes;
            prop_red_linear;
            prop_mtv_linearity;
          ] );
    ]
