(* Tests for the TIR core: expressions, simplifier, analysis,
   substitution, statements, programs and the interpreter on
   hand-written programs. *)

module E = Imtp_tir.Expr
module St = Imtp_tir.Stmt
module B = Imtp_tir.Buffer
module V = Imtp_tir.Var
module P = Imtp_tir.Program
module Simp = Imtp_tir.Simplify
module An = Imtp_tir.Analysis
module T = Imtp_tensor

let v name = V.fresh name
let ei = E.int

let test_var_identity () =
  let a = v "i" and b = v "i" in
  Alcotest.(check bool) "distinct ids" false (V.equal a b);
  Alcotest.(check bool) "self equal" true (V.equal a a)

let test_expr_equal () =
  let x = v "x" in
  let e1 = E.(var x + int 1) and e2 = E.(var x + int 1) in
  Alcotest.(check bool) "structural" true (E.equal e1 e2);
  Alcotest.(check bool) "different" false (E.equal e1 E.(var x + int 2))

let test_expr_free_vars () =
  let x = v "x" and y = v "y" in
  let e = E.(var x * (var y + int 1)) in
  Alcotest.(check int) "two free" 2 (V.Set.cardinal (E.free_vars e))

let test_expr_pp () =
  let x = v "x" in
  Alcotest.(check string) "print" "(x + 3)" (E.to_string E.(var x + int 3));
  Alcotest.(check string) "load" "A[x]" (E.to_string (E.load "A" (E.var x)))

let test_simplify_identities () =
  let x = v "x" in
  let s e = Simp.expr e in
  Alcotest.(check bool) "x+0" true (E.equal (s E.(var x + int 0)) (E.var x));
  Alcotest.(check bool) "x*1" true (E.equal (s E.(var x * int 1)) (E.var x));
  Alcotest.(check bool) "x*0" true (E.equal (s E.(var x * int 0)) (ei 0));
  Alcotest.(check bool) "const fold" true (E.equal (s E.(int 3 * int 4)) (ei 12));
  Alcotest.(check bool) "reassoc" true
    (E.equal (s E.(var x + int 2 + int 3)) (s E.(var x + int 5)))

let test_simplify_floor_div () =
  Alcotest.(check (option int)) "7//2" (Some 3) (Simp.const_int E.(int 7 / int 2));
  Alcotest.(check (option int)) "-7//2 floors" (Some (-4))
    (Simp.const_int E.(int (-7) / int 2));
  Alcotest.(check (option int)) "-7 mod 2 positive" (Some 1)
    (Simp.const_int E.(int (-7) % int 2))

let test_simplify_bool () =
  let x = v "x" in
  let s = Simp.expr in
  Alcotest.(check bool) "and false" true
    (E.equal (s (E.and_ (ei 0) E.(var x < int 3))) (ei 0));
  Alcotest.(check bool) "or true" true
    (E.equal (s (E.or_ (ei 1) E.(var x < int 3))) (ei 1));
  Alcotest.(check bool) "not not" true
    (E.equal (s (E.not_ (E.not_ E.(var x < int 3)))) (s E.(var x < int 3)))

let test_eval_int_env () =
  let x = v "x" in
  let env = V.Map.singleton x 5 in
  Alcotest.(check (option int)) "env" (Some 11) (Simp.eval_int env E.(var x * int 2 + int 1));
  Alcotest.(check (option int)) "unbound" None (Simp.eval_int V.Map.empty (E.var x));
  Alcotest.(check (option int)) "cmp" (Some 1) (Simp.eval_int env E.(var x < int 6))

let test_simplify_stmt_prunes () =
  let x = v "x" in
  let s =
    St.seq
      [
        St.If { cond = ei 0; then_ = St.store "A" (ei 0) (ei 1); else_ = None };
        St.For { var = x; extent = ei 0; kind = St.Serial; body = St.store "A" (ei 0) (ei 1) };
      ]
  in
  Alcotest.(check bool) "pruned to nop" true (Simp.stmt s = St.Nop)

let test_simplify_stmt_unit_loop () =
  let x = v "x" in
  let s =
    St.For
      { var = x; extent = ei 1; kind = St.Serial; body = St.store "A" (E.var x) (E.var x) }
  in
  match Simp.stmt s with
  | St.Store { index; value; _ } ->
      Alcotest.(check bool) "index folded" true (E.equal index (ei 0));
      Alcotest.(check bool) "value folded" true (E.equal value (ei 0))
  | _ -> Alcotest.fail "expected bare store"

let test_subst () =
  let x = v "x" and y = v "y" in
  let e = E.(var x + var y) in
  let e' = Imtp_tir.Subst.expr x (ei 7) e in
  Alcotest.(check (option int)) "subst" (Some 10)
    (Simp.eval_int (V.Map.singleton y 3) e')

let test_analysis_linear () =
  let x = v "x" and y = v "y" in
  let e = E.((var x * int 4) + var y + int 2) in
  (match An.linear_in x e with
  | Some (c, rest) ->
      Alcotest.(check int) "coeff" 4 c;
      Alcotest.(check bool) "rest free" true (An.is_free_of x rest)
  | None -> Alcotest.fail "linear expected");
  Alcotest.(check (option int)) "stride y" (Some 1) (An.stride_in y e);
  Alcotest.(check (option int)) "not linear" None
    (An.stride_in x E.(var x * var x))

let test_analysis_upper_bound () =
  let k = v "k" and r = v "r" in
  (* k*4 + r < 40  ⟺  k < (40 - r + 3)/4 *)
  let cond = E.((var k * int 4) + var r < int 40) in
  match An.upper_bound_from_cond k cond with
  | None -> Alcotest.fail "bound expected"
  | Some b ->
      let check rv expect =
        Alcotest.(check (option int))
          (Printf.sprintf "r=%d" rv)
          (Some expect)
          (Simp.eval_int (V.Map.singleton r rv) b)
      in
      (* r=0: k < 10; r=1: k < 10 (ceil(39/4)=10); r=37: k < 1 *)
      check 0 10;
      check 1 10;
      check 37 1

let test_analysis_upper_bound_le () =
  let k = v "k" in
  (* k <= 5 ⟺ k < 6 *)
  match An.upper_bound_from_cond k E.(var k <= int 5) with
  | Some b -> Alcotest.(check (option int)) "le" (Some 6) (Simp.const_int b)
  | None -> Alcotest.fail "bound expected"

let test_analysis_lower_bound_rejected () =
  let k = v "k" in
  Alcotest.(check bool) "lower bound none" true
    (An.upper_bound_from_cond k E.(var k > int 5) = None);
  Alcotest.(check bool) "eq none" true
    (An.upper_bound_from_cond k E.(var k = int 5) = None)

let test_conjuncts () =
  let x = v "x" in
  let a = E.(var x < int 1) and b = E.(var x < int 2) and c = E.(var x < int 3) in
  let cs = An.conjuncts (E.and_ (E.and_ a b) c) in
  Alcotest.(check int) "three" 3 (List.length cs);
  Alcotest.(check bool) "rebuild" true
    (List.length (An.conjuncts (An.conjoin cs)) = 3)

let test_stmt_seq_flatten () =
  let s = St.seq [ St.Nop; St.seq [ St.Barrier; St.Nop ]; St.Barrier ] in
  match s with
  | St.Seq [ St.Barrier; St.Barrier ] -> ()
  | _ -> Alcotest.fail "expected flat two-barrier seq"

let test_stmt_free_vars () =
  let x = v "x" and y = v "y" in
  let s =
    St.For
      {
        var = x;
        extent = ei 4;
        kind = St.Serial;
        body = St.store "A" (E.var x) (E.var y);
      }
  in
  let fv = St.free_vars s in
  Alcotest.(check bool) "y free" true (V.Set.mem y fv);
  Alcotest.(check bool) "x bound" false (V.Set.mem x fv)

let test_loop_extents () =
  let x = v "x" and y = v "y" in
  let s =
    St.For
      {
        var = x;
        extent = ei 4;
        kind = St.Serial;
        body = St.For { var = y; extent = ei 2; kind = St.Unrolled; body = St.Nop };
      }
  in
  Alcotest.(check int) "two loops" 2 (List.length (St.loop_extents s))

(* A tiny hand-written program: per-DPU vector doubling with 2 DPUs. *)
let hand_program n_per_dpu dpus =
  let n = n_per_dpu * dpus in
  let a = B.create "A" T.Dtype.I32 ~elems:n B.Host in
  let c = B.create "C" T.Dtype.I32 ~elems:n B.Host in
  let am = B.create "A_m" T.Dtype.I32 ~elems:n_per_dpu B.Mram in
  let cm = B.create "C_m" T.Dtype.I32 ~elems:n_per_dpu B.Mram in
  let blk = v "blk" and thr = v "thr" and i = v "i" in
  let wa = B.create "A_w" T.Dtype.I32 ~elems:n_per_dpu B.Wram in
  let kernel_body =
    St.For
      {
        var = blk;
        extent = ei dpus;
        kind = St.Bound St.Block_x;
        body =
          St.For
            {
              var = thr;
              extent = ei 1;
              kind = St.Bound St.Thread_x;
              body =
                St.Alloc
                  {
                    buffer = wa;
                    body =
                      St.seq
                        [
                          St.Dma
                            {
                              dir = St.Mram_to_wram;
                              wram = "A_w";
                              wram_off = ei 0;
                              mram = "A_m";
                              mram_off = ei 0;
                              elems = ei n_per_dpu;
                            };
                          St.For
                            {
                              var = i;
                              extent = ei n_per_dpu;
                              kind = St.Serial;
                              body =
                                St.store "A_w" (E.var i)
                                  E.(load "A_w" (var i) * int 2);
                            };
                          St.Dma
                            {
                              dir = St.Wram_to_mram;
                              wram = "A_w";
                              wram_off = ei 0;
                              mram = "C_m";
                              mram_off = ei 0;
                              elems = ei n_per_dpu;
                            };
                        ];
                  };
            };
      }
  in
  let d = v "d" in
  let host =
    St.seq
      [
        St.For
          {
            var = d;
            extent = ei dpus;
            kind = St.Serial;
            body =
              St.Xfer
                {
                  dir = St.To_dpu;
                  mode = St.Push;
                  host = "A";
                  host_off = E.(var d * int n_per_dpu);
                  dpu = E.var d;
                  mram = "A_m";
                  mram_off = ei 0;
                  elems = ei n_per_dpu;
                  group_dpus = dpus;
                };
          };
        St.Launch "k";
        (let d2 = v "d2" in
         St.For
           {
             var = d2;
             extent = ei dpus;
             kind = St.Serial;
             body =
               St.Xfer
                 {
                   dir = St.From_dpu;
                   mode = St.Push;
                   host = "C";
                   host_off = E.(var d2 * int n_per_dpu);
                   dpu = E.var d2;
                   mram = "C_m";
                   mram_off = ei 0;
                   elems = ei n_per_dpu;
                   group_dpus = dpus;
                 };
           });
      ]
  in
  {
    P.name = "double";
    host_buffers = [ a; c ];
    mram_buffers = [ am; cm ];
    kernels = [ { P.kname = "k"; body = kernel_body } ];
    host;
  }

let test_program_grid () =
  let p = hand_program 8 2 in
  let k = List.hd p.P.kernels in
  Alcotest.(check (pair int int)) "grid" (2, 1) (P.grid k);
  Alcotest.(check int) "dpus" 2 (P.dpus_used p)

let test_program_validate () =
  let p = hand_program 8 2 in
  (match P.validate p with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let bad = { p with host = St.Barrier } in
  match P.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "barrier in host should be invalid"

let test_eval_hand_program () =
  let p = hand_program 8 2 in
  let a =
    T.Tensor.init T.Dtype.I32 (T.Shape.create [ 16 ]) (fun i -> T.Value.Int i.(0))
  in
  let outs = Imtp_tir.Eval.run p ~inputs:[ ("A", a) ] in
  let c = List.assoc "C" outs in
  for i = 0 to 15 do
    Alcotest.(check bool)
      (Printf.sprintf "c[%d]" i)
      true
      (T.Value.equal (T.Tensor.get_flat c i) (T.Value.Int (2 * i)))
  done

let test_eval_rejects_scope_violation () =
  let p = hand_program 8 2 in
  let k = List.hd p.P.kernels in
  (* Kernel writing a host buffer must fail. *)
  let bad_kernel =
    { k with P.body = St.store "A" (ei 0) (ei 1) }
  in
  let bad = { p with P.kernels = [ bad_kernel ] } in
  match Imtp_tir.Eval.run bad ~inputs:[] with
  | exception Imtp_tir.Eval.Error _ -> ()
  | _ -> Alcotest.fail "expected scope violation"

let test_eval_out_of_bounds () =
  let p = hand_program 8 2 in
  let k = List.hd p.P.kernels in
  let bad_kernel = { k with P.body = St.store "C_m" (ei 99) (ei 1) } in
  let bad = { p with P.kernels = [ bad_kernel ] } in
  match Imtp_tir.Eval.run bad ~inputs:[] with
  | exception Imtp_tir.Eval.Error _ -> ()
  | _ -> Alcotest.fail "expected out-of-bounds error"

(* --- compiled executor vs interpreter --------------------------------- *)

module Exec = Imtp_tir.Exec

(* Division_by_zero escapes both executors untranslated, like Eval. *)
let run_eval p ~inputs =
  match Imtp_tir.Eval.run_counted p ~inputs with
  | r -> Ok r
  | exception Imtp_tir.Eval.Error m -> Error ("Eval.Error: " ^ m)
  | exception Division_by_zero -> Error "Division_by_zero"

let run_exec p ~inputs =
  match Exec.run_compiled (Exec.compile p) ~inputs with
  | r -> Ok r
  | exception Imtp_tir.Eval.Error m -> Error ("Eval.Error: " ^ m)
  | exception Division_by_zero -> Error "Division_by_zero"

let check_same_outcome name p ~inputs =
  match (run_exec p ~inputs, run_eval p ~inputs) with
  | Error a, Error b -> Alcotest.(check string) (name ^ ": error") b a
  | Ok (outs_c, c_c), Ok (outs_i, c_i) ->
      Alcotest.(check int)
        (name ^ ": buffer count")
        (List.length outs_i) (List.length outs_c);
      List.iter2
        (fun (n1, t1) (n2, t2) ->
          Alcotest.(check string) (name ^ ": buffer order") n1 n2;
          Alcotest.(check bool)
            (Printf.sprintf "%s: buffer %s equal" name n1)
            true (T.Tensor.equal t1 t2))
        outs_i outs_c;
      Alcotest.(check bool) (name ^ ": counters") true (c_i = c_c)
  | Ok _, Error m ->
      Alcotest.fail
        (Printf.sprintf "%s: compiled succeeded, interpreter raised %S" name m)
  | Error m, Ok _ ->
      Alcotest.fail
        (Printf.sprintf "%s: compiled raised %S, interpreter succeeded" name m)

let test_exec_matches_eval () =
  let p = hand_program 8 2 in
  let a =
    T.Tensor.init T.Dtype.I32 (T.Shape.create [ 16 ]) (fun i -> T.Value.Int i.(0))
  in
  check_same_outcome "hand program" p ~inputs:[ ("A", a) ];
  (* and the outputs are actually right, not just mutually wrong. *)
  let outs = Exec.run p ~inputs:[ ("A", a) ] in
  let c = List.assoc "C" outs in
  for i = 0 to 15 do
    Alcotest.(check bool)
      (Printf.sprintf "c[%d]" i)
      true
      (T.Value.equal (T.Tensor.get_flat c i) (T.Value.Int (2 * i)))
  done

let test_exec_error_parity () =
  let p = hand_program 8 2 in
  let k = List.hd p.P.kernels in
  let rebody body = { p with P.kernels = [ { k with P.body } ] } in
  (* Scope violation, out-of-bounds store and out-of-bounds DMA must
     raise the interpreter's exact message from the compiled path. *)
  List.iter
    (fun (name, bad) -> check_same_outcome name bad ~inputs:[])
    [
      ("kernel writes host buffer", rebody (St.store "A" (ei 0) (ei 1)));
      ("kernel reads host buffer", rebody (St.store "C_m" (ei 0) (E.load "A" (ei 0))));
      ("mram store out of bounds", rebody (St.store "C_m" (ei 99) (ei 1)));
      ("unknown buffer", rebody (St.store "nope" (ei 0) (ei 1)));
      ( "dma out of bounds",
        rebody
          (St.Dma
             {
               dir = St.Mram_to_wram;
               wram = "A_m";
               wram_off = ei 0;
               mram = "C_m";
               mram_off = ei 4;
               elems = ei 8;
             }) );
      ( "host reads mram",
        { p with P.host = St.store "C" (ei 0) (E.load "A_m" (ei 0)) } );
      ( "float index",
        { p with P.host = St.store "C" (E.Cast (T.Dtype.F32, ei 0)) (ei 1) } );
      ( "division by zero",
        { p with P.host = St.store "C" (ei 0) E.(int 1 / int 0) } );
    ]

let test_exec_cast_pinned () =
  (* The pinned float->int conversion: NaN to 0, truncation toward
     zero, saturation at the i32 range, I8 wrapping the i32 result. *)
  let o = B.create "O" T.Dtype.I32 ~elems:6 B.Host in
  let cast dt f = E.Cast (dt, E.float f) in
  let host =
    St.seq
      [
        St.store "O" (ei 0) (cast T.Dtype.I32 Float.nan);
        St.store "O" (ei 1) (cast T.Dtype.I32 1e12);
        St.store "O" (ei 2) (cast T.Dtype.I32 (-1e12));
        St.store "O" (ei 3) (cast T.Dtype.I32 3.7);
        St.store "O" (ei 4) (cast T.Dtype.I32 (-3.7));
        St.store "O" (ei 5) (cast T.Dtype.I8 3000.);
      ]
  in
  let p =
    { P.name = "casts"; host_buffers = [ o ]; mram_buffers = []; kernels = []; host }
  in
  check_same_outcome "casts" p ~inputs:[];
  let expect = [ 0; 2147483647; -2147483648; 3; -3; -72 ] in
  let out = List.assoc "O" (Exec.run p ~inputs:[]) in
  List.iteri
    (fun i want ->
      Alcotest.(check bool)
        (Printf.sprintf "O[%d] = %d" i want)
        true
        (T.Value.equal (T.Tensor.get_flat out i) (T.Value.Int want)))
    expect

(* A one-kernel program around a WRAM [body] on each of [dpus] DPUs:
   host [X] reaches WRAM [X_w] through MRAM [X_m] (DPU d gets
   [X[d * nx ..]]), [body] runs, and WRAM [Y_w] returns through MRAM
   [Y_m] to host [Y] (DPU d's copy at [d * (ny + spare)]).  MRAM buffers
   are [spare] elements longer than their WRAM buffers, and that tail
   never sees a DMA. *)
let harness ?(dpus = 1) ?(spare = 0) ~x:(xdt, nx) ~y:(ydt, ny) body =
  let buf name dt n scope = B.create name dt ~elems:n scope in
  let blk = v "blk" and d = v "d" in
  let per_dpu dir host host_off mram n =
    St.For
      {
        var = d;
        extent = ei dpus;
        kind = St.Serial;
        body =
          St.Xfer
            {
              dir;
              mode = St.Push;
              host;
              host_off;
              dpu = E.var d;
              mram;
              mram_off = ei 0;
              elems = ei n;
              group_dpus = 1;
            };
      }
  in
  let dma dir wram mram n =
    St.Dma { dir; wram; wram_off = ei 0; mram; mram_off = ei 0; elems = ei n }
  in
  let kernel =
    St.For
      {
        var = blk;
        extent = ei dpus;
        kind = St.Bound St.Block_x;
        body =
          St.Alloc
            {
              buffer = buf "X_w" xdt nx B.Wram;
              body =
                St.Alloc
                  {
                    buffer = buf "Y_w" ydt ny B.Wram;
                    body =
                      St.seq
                        [
                          dma St.Mram_to_wram "X_w" "X_m" nx;
                          body;
                          dma St.Wram_to_mram "Y_w" "Y_m" ny;
                        ];
                  };
            };
      }
  in
  let ystride = ny + spare in
  {
    P.name = "harness";
    host_buffers =
      [ buf "X" xdt (dpus * nx) B.Host; buf "Y" ydt (dpus * ystride) B.Host ];
    mram_buffers = [ buf "X_m" xdt (nx + spare) B.Mram; buf "Y_m" ydt ystride B.Mram ];
    kernels = [ { P.kname = "k"; body = kernel } ];
    host =
      St.seq
        [
          per_dpu St.To_dpu "X" E.(var d * int nx) "X_m" nx;
          St.Launch "k";
          per_dpu St.From_dpu "Y" E.(var d * int ystride) "Y_m" ystride;
        ];
  }

let input dt n f =
  T.Tensor.init dt (T.Shape.create [ n ]) (fun i ->
      match dt with
      | T.Dtype.F32 -> T.Value.Float (T.Dtype.round_f32 (float_of_int (f i.(0)) /. 8.))
      | T.Dtype.I8 -> T.Value.Int (T.Dtype.wrap_i8 (f i.(0)))
      | T.Dtype.I32 -> T.Value.Int (f i.(0)))

let loop extent f =
  let i = v "i" in
  St.For { var = i; extent; kind = St.Serial; body = f (E.var i) }

let xw i = E.load "X_w" i
let yw i = E.load "Y_w" i

let test_exec_last_iteration_oob () =
  (* In bounds for every iteration but the last: the entry check fails
     and the error fires at Eval's element, on loads, stores and direct
     MRAM accesses alike. *)
  let i32 = T.Dtype.I32 in
  let x = input i32 8 (fun i -> (3 * i) - 5) in
  List.iter
    (fun (name, body) ->
      check_same_outcome name (harness ~x:(i32, 8) ~y:(i32, 8) body) ~inputs:[ ("X", x) ])
    [
      ("load past end", loop (ei 9) (fun i -> St.store "Y_w" E.(i - int 1) E.(xw i + int 1)));
      ("store past end", loop (ei 8) (fun i -> St.store "Y_w" E.(i + int 1) (xw i)));
      ("store before start", loop (ei 8) (fun i -> St.store "Y_w" E.(int 6 - i) (xw i)));
      ( "accumulator load past end",
        loop (ei 9) (fun i -> St.store "Y_w" (ei 0) E.(yw (int 0) + (xw i * xw i))) );
      ("mram past end", loop (ei 9) (fun i -> St.store "Y_w" (ei 0) (E.load "X_m" i)));
    ]

let test_exec_empty_extents () =
  let i32 = T.Dtype.I32 in
  let x = input i32 8 (fun i -> i + 1) in
  List.iter
    (fun (name, n) ->
      check_same_outcome name
        (harness ~x:(i32, 8) ~y:(i32, 8)
           (St.seq
              [
                St.store "Y_w" (ei 0) (ei 7);
                loop (ei n) (fun i -> St.store "Y_w" (ei 0) E.(yw (int 0) + (xw i * xw i)));
                loop (ei n) (fun i -> St.store "Y_w" E.(i + int 1) (xw i));
              ]))
        ~inputs:[ ("X", x) ])
    [ ("zero extent", 0); ("negative extent", -3); ("one iteration", 1) ]

let test_exec_i8_wrap () =
  (* Every store into an I8 buffer wraps, including each step of an
     accumulator held in a local. *)
  let x = input T.Dtype.I32 8 (fun i -> (97 * i) - 300) in
  List.iter
    (fun (name, body) ->
      let p = harness ~x:(T.Dtype.I32, 8) ~y:(T.Dtype.I8, 8) body in
      check_same_outcome name p ~inputs:[ ("X", x) ])
    [
      ("elementwise", loop (ei 8) (fun i -> St.store "Y_w" i E.(xw i * int 3)));
      ("dot", loop (ei 8) (fun i -> St.store "Y_w" (ei 0) E.(yw (int 0) + (xw i * xw i))));
      ("sum", loop (ei 8) (fun i -> St.store "Y_w" (ei 1) E.(yw (int 1) + xw i)));
      ("max", loop (ei 8) (fun i -> St.store "Y_w" (ei 2) (E.max_e (yw (ei 2)) (xw i))));
      ("checked store", St.store "Y_w" (ei 3) E.(xw (int 7) * int 5));
    ]

let test_exec_f32_accumulate () =
  let f32 = T.Dtype.F32 in
  let x = input f32 8 (fun i -> (13 * i) - 40) in
  List.iter
    (fun (name, body) ->
      check_same_outcome name (harness ~x:(f32, 8) ~y:(f32, 8) body) ~inputs:[ ("X", x) ])
    [
      ("dot", loop (ei 8) (fun i -> St.store "Y_w" (ei 0) E.(yw (int 0) + (xw i * xw i))));
      ( "scaled sum",
        loop (ei 8) (fun i -> St.store "Y_w" (ei 1) E.(yw (int 1) + (xw i * E.float 0.1))) );
      ("product", loop (ei 8) (fun i -> St.store "Y_w" (ei 2) E.(yw (int 2) * xw i)));
      ( "mixed int index",
        loop (ei 4) (fun i -> St.store "Y_w" E.((int 2 * i) + int 1) E.(xw i - xw (int 7 - i))) );
    ]

let test_exec_shifted_self_load () =
  (* A[j+1] = A[j] + 1: each iteration reads the previous one's store.
     An accumulator whose other operand reads the accumulated buffer
     must see every earlier iteration's store as well. *)
  let i32 = T.Dtype.I32 in
  let p =
    harness ~x:(i32, 8) ~y:(i32, 8)
      (St.seq
         [
           St.store "Y_w" (ei 0) (ei 5);
           loop (ei 7) (fun j -> St.store "Y_w" E.(j + int 1) E.(yw j + int 1));
         ])
  in
  let x = input i32 8 (fun i -> i) in
  check_same_outcome "shifted" p ~inputs:[ ("X", x) ];
  List.iter
    (fun (name, rest) ->
      let body =
        St.seq
          [
            loop (ei 8) (fun i -> St.store "Y_w" i E.(xw i + int 1));
            loop (ei 6) (fun i -> St.store "Y_w" (ei 2) E.(yw (int 2) + rest i));
          ]
      in
      check_same_outcome name (harness ~x:(i32, 8) ~y:(i32, 8) body) ~inputs:[ ("X", x) ])
    [
      ("accumulator reads itself", fun i -> yw i);
      ("dot reads itself", fun i -> E.(yw i * xw i));
    ];
  let y = List.assoc "Y" (Exec.run p ~inputs:[ ("X", x) ]) in
  List.iteri
    (fun i want ->
      Alcotest.(check bool)
        (Printf.sprintf "Y[%d] = %d" i want)
        true
        (T.Value.equal (T.Tensor.get_flat y i) (T.Value.Int want)))
    [ 5; 6; 7; 8; 9; 10; 11; 12 ]

let test_exec_variable_divisor () =
  (* A divisor that is not a non-zero constant may raise, so the loop
     stays on the checked path: Division_by_zero at Eval's iteration. *)
  let i32 = T.Dtype.I32 in
  let x = input i32 8 (fun i -> (5 * i) + 1) in
  let k = v "k" in
  List.iter
    (fun (name, divisor) ->
      let body =
        St.For
          {
            var = k;
            extent = ei 2;
            kind = St.Serial;
            body = loop (ei 8) (fun i -> St.store "Y_w" i E.(xw i / divisor));
          }
      in
      check_same_outcome name (harness ~x:(i32, 8) ~y:(i32, 8) body) ~inputs:[ ("X", x) ])
    [ ("zero divisor", E.var k); ("non-zero divisor", E.(var k + int 1)) ]

let test_exec_reuse_across_runs () =
  (* One staged program run twice: the WRAM accumulator starts from zero
     and the untransferred MRAM tail reads poison in the second run too,
     although the first run wrote there. *)
  let i32 = T.Dtype.I32 in
  let body =
    St.seq
      [
        St.store "Y_w" (ei 1) (E.load "X_m" (ei 8));
        St.store "X_m" (ei 8) (ei 42);
        loop (ei 8) (fun i -> St.store "Y_w" (ei 0) E.(yw (int 0) + xw i));
      ]
  in
  let p = harness ~dpus:3 ~spare:1 ~x:(i32, 8) ~y:(i32, 4) body in
  let c = Exec.compile p in
  List.iter
    (fun seed ->
      let inputs = [ ("X", input i32 24 (fun i -> (seed * i) + 1)) ] in
      match (Exec.run_compiled c ~inputs, run_eval p ~inputs) with
      | (outs, counters), Ok (want, want_counters) ->
          List.iter2
            (fun (n, t) (_, w) ->
              Alcotest.(check bool)
                (Printf.sprintf "seed %d: buffer %s" seed n)
                true (T.Tensor.equal t w))
            outs want;
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: counters" seed)
            true (counters = want_counters)
      | _, Error m -> Alcotest.fail m)
    [ 3; 7; 3 ]

(* Random single-store loops over affine indices: in and out of bounds,
   accumulators, dot products, self-reads, direct MRAM reads on two
   DPUs and every dtype pairing. *)
let prop_exec_affine_loops =
  let open QCheck2.Gen in
  let dtype = oneofl [ T.Dtype.I8; T.Dtype.I32; T.Dtype.F32 ] in
  let affine = pair (int_range (-2) 2) (int_range (-3) 10) in
  let gen =
    tup5 (pair dtype dtype) (int_range (-2) 12) (pair affine affine) (int_range 0 7)
      (pair affine (oneofl [ E.Add; E.Sub; E.Mul; E.Min; E.Max ]))
  in
  QCheck2.Test.make ~name:"exec matches eval on affine loops" ~count:500 gen
    (fun ((xdt, ydt), n, ((sa, sb), (la, lb)), form, ((ma, mb), op)) ->
      let at i (a, b) = E.((int a * i) + int b) in
      let body =
        loop (ei n) (fun i ->
            let lx = xw (at i (la, lb)) and mx = xw (at i (ma, mb)) in
            match form with
            | 0 -> St.store "Y_w" (at i (sa, sb)) E.(lx + int 3)
            | 1 -> St.store "Y_w" (at i (sa, sb)) E.(lx * mx)
            | 2 -> St.store "Y_w" (ei sb) E.(yw (int sb) + (lx * mx))
            | 3 -> St.store "Y_w" (ei sb) (E.Binop (op, yw (ei sb), lx))
            | 4 -> St.store "Y_w" (at i (sa, sb)) E.(yw (at i (la, lb)) + int 1)
            | 5 -> St.store "Y_w" (ei sb) E.(yw (int sb) + yw (at i (la, lb)))
            | 6 -> St.store "Y_w" (at i (sa, sb)) (E.load "X_m" (at i (la, lb)))
            | _ -> St.store "Y_w" (at i (sa, sb)) (E.Binop (op, lx, E.float 0.5)))
      in
      let init = loop (ei 8) (fun i -> St.store "Y_w" i E.(xw i - int 1)) in
      let p = harness ~dpus:2 ~x:(xdt, 8) ~y:(ydt, 8) (St.seq [ init; body ]) in
      let inputs = [ ("X", input xdt 16 (fun i -> (29 * i) - 90)) ] in
      match (run_exec p ~inputs, run_eval p ~inputs) with
      | Error a, Error b -> String.equal a b
      | Ok (o1, c1), Ok (o2, c2) ->
          c1 = c2 && List.for_all2 (fun (_, a) (_, b) -> T.Tensor.equal a b) o1 o2
      | Ok _, Error _ | Error _, Ok _ -> false)

(* --- cost-model regressions ------------------------------------------- *)

(* [iters] grouped Push transfers with [group] DPUs per call, over a
   kernel spanning [iters] DPUs. *)
let push_cost_program ?(mode = St.Push) iters group =
  let a = B.create "A" T.Dtype.I32 ~elems:(8 * iters) B.Host in
  let am = B.create "A_m" T.Dtype.I32 ~elems:8 B.Mram in
  let blk = v "blk" in
  let kbody =
    St.For { var = blk; extent = ei iters; kind = St.Bound St.Block_x; body = St.Nop }
  in
  let d = v "d" in
  let host =
    St.For
      {
        var = d;
        extent = ei iters;
        kind = St.Serial;
        body =
          St.Xfer
            {
              dir = St.To_dpu;
              mode;
              host = "A";
              host_off = E.(var d * int 8);
              dpu = E.var d;
              mram = "A_m";
              mram_off = ei 0;
              elems = ei 8;
              group_dpus = group;
            };
      }
  in
  {
    P.name = "push_cost";
    host_buffers = [ a ];
    mram_buffers = [ am ];
    kernels = [ { P.kname = "k"; body = kbody } ];
    host;
  }

let h2d_of ?mode iters group =
  (Imtp_tir.Cost.measure Imtp_upmem.Config.default
     (push_cost_program ?mode iters group))
    .Imtp_upmem.Stats.h2d_s

let test_cost_push_partial_group_rounds_up () =
  (* 5 pushes in groups of 4 take two bulk calls: a partial trailing
     group still pays a full per-call overhead.  The broken model
     charged a fractional 1.25 calls. *)
  let t4 = h2d_of 4 4 and t5 = h2d_of 5 4 in
  Alcotest.(check bool)
    (Printf.sprintf "push: t5=%g vs 2*t4=%g" t5 (2. *. t4))
    true
    (t5 >= 1.95 *. t4)

let test_cost_broadcast_partial_group_rounds_up () =
  let t2 = h2d_of ~mode:St.Broadcast_x 2 2
  and t3 = h2d_of ~mode:St.Broadcast_x 3 2 in
  Alcotest.(check bool)
    (Printf.sprintf "broadcast: t3=%g vs 2*t2=%g" t3 (2. *. t2))
    true
    (t3 >= 1.95 *. t2)

let test_cost_if_else_branch_charged () =
  (* An If whose transfer work sits in [else_] must cost the same as
     the mirror-image If carrying it in [then_]; the broken walk
     silently dropped else branches. *)
  let p = hand_program 8 2 in
  let push_loop =
    match p.P.host with
    | St.Seq (x :: _) -> x
    | _ -> Alcotest.fail "unexpected hand_program host shape"
  in
  let h2d host =
    (Imtp_tir.Cost.measure Imtp_upmem.Config.default { p with P.host })
      .Imtp_upmem.Stats.h2d_s
  in
  let in_then =
    h2d (St.If { cond = ei 1; then_ = push_loop; else_ = Some St.Nop })
  in
  let in_else =
    h2d (St.If { cond = ei 0; then_ = St.Nop; else_ = Some push_loop })
  in
  Alcotest.(check bool) "else branch costed" true (in_else > 0.);
  Alcotest.(check bool)
    (Printf.sprintf "symmetric: then=%g else=%g" in_then in_else)
    true
    (Float.abs (in_then -. in_else) <= 1e-12 *. Float.max in_then 1.)

let test_cost_host_parallel_if_else_charged () =
  (* Same regression for the boundary-cost walk used under
     Host_parallel loops. *)
  let p = hand_program 8 2 in
  let i = v "i" in
  let stores =
    St.For
      {
        var = v "j";
        extent = ei 32;
        kind = St.Serial;
        body = St.store "A" (ei 0) (ei 1);
      }
  in
  let host_s body =
    let host =
      St.For { var = i; extent = ei 64; kind = St.Host_parallel 4; body }
    in
    (Imtp_tir.Cost.measure Imtp_upmem.Config.default { p with P.host })
      .Imtp_upmem.Stats.host_s
  in
  let in_then = host_s (St.If { cond = ei 1; then_ = stores; else_ = Some St.Nop }) in
  let in_else = host_s (St.If { cond = ei 0; then_ = St.Nop; else_ = Some stores }) in
  let empty = host_s (St.If { cond = ei 0; then_ = St.Nop; else_ = None }) in
  Alcotest.(check bool)
    (Printf.sprintf "else-heavy %g > empty %g" in_else empty)
    true (in_else > empty);
  Alcotest.(check bool)
    (Printf.sprintf "symmetric: then=%g else=%g" in_then in_else)
    true
    (Float.abs (in_then -. in_else) <= 1e-12 *. Float.max in_then 1.)

let test_cost_measures_phases () =
  let p = hand_program 1024 64 in
  let stats = Imtp_tir.Cost.measure Imtp_upmem.Config.default p in
  let open Imtp_upmem.Stats in
  Alcotest.(check bool) "h2d > 0" true (stats.h2d_s > 0.);
  Alcotest.(check bool) "kernel > 0" true (stats.kernel_s > 0.);
  Alcotest.(check bool) "d2h > 0" true (stats.d2h_s > 0.);
  Alcotest.(check bool) "launch > 0" true (stats.launch_s > 0.);
  Alcotest.(check int) "dpus" 64 stats.dpus_used

let test_cost_more_work_costs_more () =
  let small = Imtp_tir.Cost.measure Imtp_upmem.Config.default (hand_program 512 8) in
  let large = Imtp_tir.Cost.measure Imtp_upmem.Config.default (hand_program 4096 8) in
  Alcotest.(check bool) "monotone" true
    Imtp_upmem.Stats.(total_s large > total_s small)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_printer_smoke () =
  let p = hand_program 8 2 in
  let s = Imtp_tir.Printer.program_to_string p in
  Alcotest.(check bool) "mentions kernel" true (contains s "kernel_k");
  Alcotest.(check bool) "mentions dma" true (contains s "dma_mram_to_wram");
  Alcotest.(check bool) "mentions launch" true (contains s "launch(k)")

let prop_upper_bound_solver_exact =
  (* For random linear conditions c*k + r < n, the solver's bound b
     satisfies: forall v in [0, extent), cond(v) <-> v < b. *)
  QCheck2.Test.make ~name:"upper-bound solver agrees with brute force" ~count:200
    QCheck2.Gen.(
      quad (int_range 1 8) (int_range (-50) 50) (int_range 1 100) (int_range 1 40))
    (fun (c, r, n, extent) ->
      let k = v "k" in
      let cond = E.((var k * int c) + int r < int n) in
      match An.upper_bound_from_cond k cond with
      | None -> false
      | Some b -> (
          match Simp.const_int b with
          | None -> false
          | Some bound ->
              let ok = ref true in
              for vv = 0 to extent - 1 do
                let truth = (c * vv) + r < n in
                if truth <> (vv < bound) then ok := false
              done;
              !ok))

let prop_kernel_profile_chunks =
  (* The cost walker's chunk count equals tasklets x per-tasklet chunk
     iterations for the canonical cached kernel. *)
  QCheck2.Test.make ~name:"kernel profile chunk count" ~count:50
    QCheck2.Gen.(pair (int_range 1 8) (int_range 1 32))
    (fun (dpus, chunks) ->
      let p = hand_program 8 dpus in
      ignore chunks;
      let k = List.hd p.P.kernels in
      let prof = Imtp_tir.Cost.kernel_profile Imtp_upmem.Config.default p k in
      (* hand program: 1 tasklet, 1 chunk (one DMA in + compute + out) *)
      prof.Imtp_upmem.Dpu_model.tasklets = 1
      && prof.Imtp_upmem.Dpu_model.chunks = 1)

(* Random small expressions over [vars] ([gen_expr]: two fresh
   variables).  Division and modulo appear only with nonzero constant
   divisors — [Simplify.expr] raises on a constant-0 divisor by design,
   which is not what these properties are about. *)
let gen_expr_over vars depth =
  let open QCheck2.Gen in
  fix
    (fun self (n, vars) ->
      if n <= 0 then
        oneof
          [
            map E.int (int_range (-20) 20);
            map (fun i -> E.var (List.nth vars (i mod List.length vars))) (int_range 0 10);
          ]
      else
        oneof
          [
            map E.int (int_range (-20) 20);
            map (fun i -> E.var (List.nth vars (i mod List.length vars))) (int_range 0 10);
            map3
              (fun op a b -> E.Binop (op, a, b))
              (oneofl [ E.Add; E.Sub; E.Mul; E.Min; E.Max ])
              (self (n / 2, vars))
              (self (n / 2, vars));
            map3
              (fun op a b -> E.Binop (op, a, E.int b))
              (oneofl [ E.Div; E.Mod ])
              (self (n / 2, vars))
              (oneofl [ -3; -2; 2; 3; 5; 7 ]);
            map3
              (fun op a b -> E.Cmp (op, a, b))
              (oneofl [ E.Lt; E.Le; E.Gt; E.Ge; E.Eq; E.Ne ])
              (self (n / 2, vars))
              (self (n / 2, vars));
          ])
    (depth, vars)

let gen_expr =
  QCheck2.Gen.sized (fun n -> gen_expr_over [ v "p"; v "q" ] (min n 8))

let full_env e =
  let vars = V.Set.elements (E.free_vars e) in
  List.fold_left (fun m (i, x) -> V.Map.add x (i * 3 mod 7) m) V.Map.empty
    (List.mapi (fun i x -> (i, x)) vars)

let prop_simplify_sound =
  (* Simplification preserves value under random environments. *)
  QCheck2.Test.make ~name:"simplify preserves semantics" ~count:300 gen_expr
    (fun e ->
      let env = full_env e in
      match Simp.eval_int env e with
      | None -> true
      | Some expected -> Simp.eval_int env (Simp.expr e) = Some expected)

let prop_simplify_idempotent =
  (* A second pass over already-simplified output must be the identity:
     rewrites that keep firing indicate a non-confluent rule set. *)
  QCheck2.Test.make ~name:"simplify is idempotent" ~count:300 gen_expr (fun e ->
      let once = Simp.expr e in
      E.equal (Simp.expr once) once)

let prop_simplify_identities =
  (* Algebraic identities hold on random subexpressions, not just on
     the hand-picked cases above: e+0, e*1, e*0, min/max self. *)
  QCheck2.Test.make ~name:"simplify algebraic identities" ~count:300 gen_expr
    (fun e ->
      let env = full_env e in
      let same a b =
        match (Simp.eval_int env a, Simp.eval_int env b) with
        | Some x, Some y -> x = y
        | None, _ | _, None -> true
      in
      same (Simp.expr E.(e + int 0)) (Simp.expr e)
      && same (Simp.expr E.(e * int 1)) (Simp.expr e)
      && Simp.eval_int env (Simp.expr E.(e * int 0)) = Some 0
      && same (Simp.expr (E.Binop (E.Min, e, e))) (Simp.expr e)
      && same (Simp.expr (E.Binop (E.Max, e, e))) (Simp.expr e))

(* The statement simplifier as it was before it became one pass:
   every node re-simplified the expressions of its whole subtree, so
   the work grew with nesting depth.  Kept verbatim as the oracle the
   linear [Simplify.stmt] must agree with. *)
let stmt_quadratic s =
  St.rewrite_bottom_up
    (fun node ->
      match St.map_exprs Simp.expr node with
      | St.If { cond = E.Int_const n; then_; else_ } ->
          if n <> 0 then then_
          else Option.value else_ ~default:St.Nop
      | St.For { extent = E.Int_const n; _ } when n <= 0 -> St.Nop
      | St.For { var; extent = E.Int_const 1; body; kind = St.Serial } ->
          St.map_exprs (fun e -> Simp.expr (Imtp_tir.Subst.expr var (E.int 0) e)) body
      | s' -> s')
    s

(* Random statement trees: raw (unflattened) [Seq]s, [For]s with zero,
   unit, constant and symbolic extents, serial and unrolled, [If]s with
   constant and symbolic guards, [Alloc], [Store] and [Dma].  Every
   loop binds a fresh variable that its body's expressions may use. *)
let gen_stmt =
  let open QCheck2.Gen in
  let ex vars = gen_expr_over vars 3 in
  let leaf vars =
    oneof
      [
        map2 (fun i x -> St.store "A" i x) (ex vars) (ex vars);
        map3
          (fun wram_off mram_off elems ->
            St.Dma
              {
                dir = St.Mram_to_wram;
                wram = "A_w";
                wram_off;
                mram = "A_m";
                mram_off;
                elems;
              })
          (ex vars) (ex vars) (ex vars);
        pure St.Nop;
      ]
  in
  let rec go depth vars =
    if depth <= 0 then leaf vars
    else
      let sub = go (depth - 1) in
      oneof
        [
          leaf vars;
          map (fun ss -> St.Seq ss) (list_size (int_range 0 3) (sub vars));
          ( unit >>= fun () ->
            let x = v "i" in
            map3
              (fun extent kind body -> St.For { var = x; extent; kind; body })
              (oneof
                 [ pure (ei 0); pure (ei 1); map ei (int_range (-1) 4); ex vars ])
              (frequencyl [ (3, St.Serial); (1, St.Unrolled) ])
              (sub (x :: vars)) );
          map3
            (fun cond then_ else_ -> St.If { cond; then_; else_ })
            (oneof [ pure (ei 0); pure (ei 1); ex vars ])
            (sub vars) (opt (sub vars));
          map
            (fun body ->
              St.Alloc
                { buffer = B.create "W" T.Dtype.I32 ~elems:4 B.Wram; body })
            (sub vars);
        ]
  in
  sized (fun n -> go (min n 5) [ v "p"; v "q" ])

let prop_simplify_stmt_matches_quadratic =
  QCheck2.Test.make ~name:"one-pass stmt simplifier equals the quadratic one"
    ~count:500 ~print:Imtp_tir.Printer.stmt_to_string gen_stmt (fun s ->
      let run f = match f s with r -> Ok r | exception e -> Error e in
      run Simp.stmt = run stmt_quadratic)

(* A nest of [depth] symbolic loops, each level also storing through an
   index that needs simplifying.  A linear simplifier allocates about
   twice as much for twice the depth; re-simplifying every subtree at
   each ancestor makes it four times. *)
let test_simplify_stmt_linear () =
  let nest depth =
    let n = v "n" in
    let rec go d =
      if d = 0 then St.Nop
      else
        let x = v "i" in
        St.For
          {
            var = x;
            extent = E.(var n + int 0);
            kind = St.Serial;
            body =
              St.seq
                [ St.store "A" E.((var x * int 1) + int 0) (ei d); go (d - 1) ];
          }
    in
    go depth
  in
  let words s =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Simp.stmt s));
    Gc.minor_words () -. w0
  in
  let d = 64 in
  let small = nest d and large = nest (2 * d) in
  let ws = words small and wl = words large in
  if wl >= 2.5 *. ws then
    Alcotest.failf "depth %d: %.0f words, depth %d: %.0f words (ratio %.2f)" d
      ws (2 * d) wl (wl /. ws)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "tir"
    [
      ( "expr",
        [
          Alcotest.test_case "var identity" `Quick test_var_identity;
          Alcotest.test_case "equal" `Quick test_expr_equal;
          Alcotest.test_case "free vars" `Quick test_expr_free_vars;
          Alcotest.test_case "pp" `Quick test_expr_pp;
        ] );
      ( "simplify",
        [
          Alcotest.test_case "identities" `Quick test_simplify_identities;
          Alcotest.test_case "floor div" `Quick test_simplify_floor_div;
          Alcotest.test_case "bool" `Quick test_simplify_bool;
          Alcotest.test_case "eval env" `Quick test_eval_int_env;
          Alcotest.test_case "stmt prune" `Quick test_simplify_stmt_prunes;
          Alcotest.test_case "unit loop" `Quick test_simplify_stmt_unit_loop;
          Alcotest.test_case "subst" `Quick test_subst;
          Alcotest.test_case "stmt linear in depth" `Quick
            test_simplify_stmt_linear;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "linear" `Quick test_analysis_linear;
          Alcotest.test_case "upper bound lt" `Quick test_analysis_upper_bound;
          Alcotest.test_case "upper bound le" `Quick test_analysis_upper_bound_le;
          Alcotest.test_case "lower bound rejected" `Quick
            test_analysis_lower_bound_rejected;
          Alcotest.test_case "conjuncts" `Quick test_conjuncts;
        ] );
      ( "stmt",
        [
          Alcotest.test_case "seq flatten" `Quick test_stmt_seq_flatten;
          Alcotest.test_case "free vars" `Quick test_stmt_free_vars;
          Alcotest.test_case "loop extents" `Quick test_loop_extents;
        ] );
      ( "program+eval+cost",
        [
          Alcotest.test_case "grid" `Quick test_program_grid;
          Alcotest.test_case "validate" `Quick test_program_validate;
          Alcotest.test_case "eval" `Quick test_eval_hand_program;
          Alcotest.test_case "scope violation" `Quick
            test_eval_rejects_scope_violation;
          Alcotest.test_case "out of bounds" `Quick test_eval_out_of_bounds;
          Alcotest.test_case "cost phases" `Quick test_cost_measures_phases;
          Alcotest.test_case "cost monotone" `Quick test_cost_more_work_costs_more;
          Alcotest.test_case "printer" `Quick test_printer_smoke;
        ] );
      ( "exec",
        [
          Alcotest.test_case "matches interpreter" `Quick test_exec_matches_eval;
          Alcotest.test_case "error parity" `Quick test_exec_error_parity;
          Alcotest.test_case "cast pinned" `Quick test_exec_cast_pinned;
          Alcotest.test_case "last iteration out of bounds" `Quick
            test_exec_last_iteration_oob;
          Alcotest.test_case "empty extents" `Quick test_exec_empty_extents;
          Alcotest.test_case "i8 wrap" `Quick test_exec_i8_wrap;
          Alcotest.test_case "f32 accumulate" `Quick test_exec_f32_accumulate;
          Alcotest.test_case "shifted self load" `Quick test_exec_shifted_self_load;
          Alcotest.test_case "variable divisor" `Quick test_exec_variable_divisor;
          Alcotest.test_case "reuse across runs" `Quick test_exec_reuse_across_runs;
        ]
        @ q [ prop_exec_affine_loops ] );
      ( "cost-regressions",
        [
          Alcotest.test_case "push partial group" `Quick
            test_cost_push_partial_group_rounds_up;
          Alcotest.test_case "broadcast partial group" `Quick
            test_cost_broadcast_partial_group_rounds_up;
          Alcotest.test_case "if else charged" `Quick
            test_cost_if_else_branch_charged;
          Alcotest.test_case "host-parallel if else charged" `Quick
            test_cost_host_parallel_if_else_charged;
        ] );
      ( "properties",
        q
          [
            prop_simplify_sound;
            prop_simplify_idempotent;
            prop_simplify_identities;
            prop_simplify_stmt_matches_quadratic;
            prop_upper_bound_solver_exact;
            prop_kernel_profile_chunks;
          ] );
    ]
