(* Affine bound-analysis layer tests: the Fourier–Motzkin core
   (negative coefficients, Eq/Ne conjuncts, clamped extents), the
   guard-eliminating lowering on ragged shapes, the affine pass stack
   under rfactor, and the verifier's variable-size DMA bounds. *)

module Aff = Imtp_tir.Affine
module E = Imtp_tir.Expr
module St = Imtp_tir.Stmt
module B = Imtp_tir.Buffer
module V = Imtp_tir.Var
module P = Imtp_tir.Program
module Simp = Imtp_tir.Simplify
module Sk = Imtp_engine.Sketch
module L = Imtp_lower.Lowering
module Pl = Imtp_passes.Pipeline
module M = Imtp_passes.Metrics
module Op = Imtp_workload.Op
module Ops = Imtp_workload.Ops
module T = Imtp_tensor
module U = Imtp_upmem

let cfg = U.Config.default
let ei = E.int
let ( +: ) a b = E.Binop (E.Add, a, b)
let ( -: ) a b = E.Binop (E.Sub, a, b)
let ( *: ) a b = E.Binop (E.Mul, a, b)
let lt a b = E.Cmp (E.Lt, a, b)

(* --- core: entailment ------------------------------------------------- *)

let test_negative_coefficients () =
  let i = V.fresh "i" in
  let ctx = Aff.assume_loop Aff.empty i (ei 10) in
  (* 10 - i > 0 follows from i <= 9. *)
  Alcotest.(check bool)
    "10 - i > 0" true
    (Aff.prove ctx (E.Cmp (E.Gt, ei 10 -: E.var i, ei 0)));
  Alcotest.(check bool)
    "i - 10 < 0" true
    (Aff.prove ctx (lt (E.var i -: ei 10) (ei 0)));
  (* -2i >= -18 (negative coefficient on both sides). *)
  Alcotest.(check bool)
    "-2i >= -18" true
    (Aff.prove ctx (E.Cmp (E.Ge, ei 0 -: (ei 2 *: E.var i), ei 0 -: ei 18)));
  Alcotest.(check bool)
    "i < 5 unknown" false
    (Aff.prove ctx (lt (E.var i) (ei 5)));
  (match Aff.implies ctx (E.Cmp (E.Ge, E.var i, ei 10)) with
  | Aff.False -> ()
  | Aff.True | Aff.Unknown -> Alcotest.fail "i >= 10 should be refuted")

let test_eq_ne_conjuncts () =
  let i = V.fresh "i" and j = V.fresh "j" in
  let ctx =
    Aff.assume Aff.empty
      (E.And (E.Cmp (E.Eq, E.var i, ei 3), lt (E.var j) (E.var i)))
  in
  (* i = 3 and j < i entail j < 3 and i < 4. *)
  Alcotest.(check bool)
    "j < 3" true
    (Aff.prove ctx (lt (E.var j) (ei 3)));
  Alcotest.(check bool)
    "i < 4" true
    (Aff.prove ctx (lt (E.var i) (ei 4)));
  (* Ne conjuncts are soundly ignored: the context gets weaker, not
     wrong. *)
  let ctx' =
    Aff.assume
      (Aff.assume_loop Aff.empty i (ei 8))
      (E.Cmp (E.Ne, E.var i, ei 3))
  in
  Alcotest.(check bool)
    "range survives Ne" true
    (Aff.prove ctx' (lt (E.var i) (ei 8)));
  Alcotest.(check bool)
    "Ne not used as a fact" false
    (Aff.prove ctx' (E.Cmp (E.Ne, E.var i, ei 3)) = false
    && Aff.infeasible ctx')

let test_clamped_extent_proves_containment () =
  (* The exact theorem behind the affine lowering: with b a block index
     and i a copy-loop index clamped to [min (64, 500 - 64 b)], the
     boundary guard [64 b + i < 500] is provable. *)
  let b = V.fresh "b" and i = V.fresh "i" in
  let ctx = Aff.assume_loop Aff.empty b (ei 8) in
  let clamp = E.min_e (ei 64) (ei 500 -: (E.var b *: ei 64)) in
  let ctx = Aff.assume_loop ctx i clamp in
  let guard = lt ((E.var b *: ei 64) +: E.var i) (ei 500) in
  Alcotest.(check bool) "guard provable" true (Aff.prove ctx guard);
  (match Aff.bound_range ctx ((E.var b *: ei 64) +: E.var i) with
  | Some (lo, hi) ->
      Alcotest.(check int) "lo" 0 lo;
      Alcotest.(check bool) "hi <= 499" true (hi <= 499)
  | None -> Alcotest.fail "bound_range should resolve");
  (* Without the clamp the guard is not provable (i may reach 63 while
     b = 7 -> 448 + 63 = 511 >= 500). *)
  let ctx' =
    Aff.assume_loop (Aff.assume_loop Aff.empty b (ei 8)) i (ei 64)
  in
  Alcotest.(check bool) "unclamped unknown" false (Aff.prove ctx' guard)

let test_cond_upper_bound () =
  let i = V.fresh "i" in
  (* Negative coefficient form: 10 - i > 0 <=> i < 10, exact. *)
  (match Aff.cond_upper_bound i (E.Cmp (E.Gt, ei 10 -: E.var i, ei 0)) with
  | Some (b, exact) ->
      Alcotest.(check (option int))
        "bound 10" (Some 10)
        (Simp.const_int (Simp.expr b));
      Alcotest.(check bool) "exact" true exact
  | None -> Alcotest.fail "negated coefficient bound missed");
  (* Eq conjunct: i = 5 implies i < 6 but is not equivalent to it. *)
  match Aff.cond_upper_bound i (E.Cmp (E.Eq, E.var i, ei 5)) with
  | Some (b, exact) ->
      Alcotest.(check (option int))
        "bound 6" (Some 6)
        (Simp.const_int (Simp.expr b));
      Alcotest.(check bool) "inexact" false exact
  | None -> Alcotest.fail "Eq bound missed"

(* --- lowering: guard elimination on ragged shapes --------------------- *)

let params ?(sd = 4) ?(rd = 1) ?(t = 4) ?(c = 64) ?(rows = 2) () =
  {
    Sk.default_params with
    Sk.spatial_dpus = sd;
    reduction_dpus = rd;
    tasklets = t;
    cache_elems = c;
    rows_per_tasklet = rows;
  }

let lower_with ~affine op p =
  let options =
    { (Sk.lower_options p) with L.affine_guards = affine }
  in
  L.lower ~options (Sk.instantiate op p)

let outputs prog op =
  let inputs = Ops.random_inputs op in
  let outs = Imtp_tir.Eval.run prog ~inputs in
  T.Tensor.to_value_list (List.assoc (fst op.Op.output) outs)

let rec has_dma = function
  | St.Dma _ -> true
  | St.Seq ss -> List.exists has_dma ss
  | St.For { body; _ } | St.Alloc { body; _ } -> has_dma body
  | St.If { then_; else_; _ } ->
      has_dma then_ || Option.fold ~none:false ~some:has_dma else_
  | St.Store _ | St.Xfer _ | St.Launch _ | St.Barrier | St.Nop -> false

(* If nodes with a DMA somewhere below: the boundary checks the affine
   lowering is supposed to prove away. *)
let rec guarded_dmas = function
  | St.If { then_; else_; _ } as s ->
      (if has_dma s then 1 else 0)
      + guarded_dmas then_
      + Option.fold ~none:0 ~some:guarded_dmas else_
  | St.Seq ss -> List.fold_left (fun acc s -> acc + guarded_dmas s) 0 ss
  | St.For { body; _ } | St.Alloc { body; _ } -> guarded_dmas body
  | St.Store _ | St.Dma _ | St.Xfer _ | St.Launch _ | St.Barrier | St.Nop -> 0

let kernel_body (prog : P.t) = (List.hd prog.P.kernels).P.body

let check_ragged name op p =
  let legacy = lower_with ~affine:false op p in
  let affine = lower_with ~affine:true op p in
  (* semantics identical on the raw programs... *)
  Alcotest.(check bool)
    (name ^ ": outputs equal") true
    (outputs affine op = outputs legacy op);
  (* ...and after each stack's own passes. *)
  let legacy' = Pl.run ~config:Pl.legacy cfg legacy in
  let affine' = Pl.run ~config:Pl.affine_on cfg affine in
  Alcotest.(check bool)
    (name ^ ": optimized outputs equal") true
    (outputs affine' op = outputs legacy' op);
  (* the ragged tile really carries guards in the legacy lowering and
     none of the DMA guards survive containment proofs in the affine
     one. *)
  Alcotest.(check bool)
    (name ^ ": legacy raw kernel has guarded DMAs") true
    (guarded_dmas (kernel_body legacy) > 0);
  Alcotest.(check int)
    (name ^ ": affine raw kernel has zero guarded DMAs") 0
    (guarded_dmas (kernel_body affine));
  let mb prog = (M.of_kernel (List.hd prog.P.kernels)).M.static_branches in
  Alcotest.(check bool)
    (name ^ ": affine kernel has fewer branches") true
    (mb affine < mb legacy)

let test_ragged_gemv () = check_ragged "gemv 500x500" (Ops.gemv ~c:3 500 500) (params ())

let test_ragged_mmtv () =
  check_ragged "mmtv 8x60x60" (Ops.mmtv 8 60 60) (params ~c:16 ())

let test_ragged_rfactor () =
  (* bounds under rfactor: hierarchical reduction with a ragged
     reduction axis — partial gather, host final reduction. *)
  let op = Ops.gemv ~c:3 500 500 in
  let p = params ~rd:4 () in
  let legacy = lower_with ~affine:false op p in
  let affine = lower_with ~affine:true op p in
  Alcotest.(check bool)
    "rfactor outputs equal" true
    (outputs affine op = outputs legacy op);
  let legacy' = Pl.run ~config:Pl.legacy cfg legacy in
  let affine' = Pl.run ~config:Pl.affine_on cfg affine in
  Alcotest.(check bool)
    "rfactor optimized outputs equal" true
    (outputs affine' op = outputs legacy' op);
  Alcotest.(check int)
    "rfactor affine kernel has zero guarded DMAs" 0
    (guarded_dmas (kernel_body affine))

let test_divisible_zero_guards () =
  (* Fully divisible tiling must lower without a single If, affine or
     not: containment is structural there. *)
  let op = Ops.mtv 32 64 in
  let p = params ~c:8 () in
  List.iter
    (fun affine ->
      let prog = lower_with ~affine op p in
      Alcotest.(check int)
        (Printf.sprintf "zero guards (affine=%b)" affine)
        0
        ((M.of_kernel (List.hd prog.P.kernels)).M.static_branches))
    [ false; true ]

(* cross-stack soundness, the fuzz oracle's contract in miniature: an
   affine-lowered program stays correct under the legacy passes and
   vice versa. *)
let test_cross_stack () =
  let op = Ops.gemv ~c:3 500 500 in
  let p = params () in
  let legacy = lower_with ~affine:false op p in
  let affine = lower_with ~affine:true op p in
  let want = outputs legacy op in
  List.iter
    (fun (cname, config) ->
      List.iter
        (fun (pname, prog) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s lowering under %s" pname cname)
            true
            (outputs (Pl.run ~config cfg prog) op = want))
        [ ("legacy", legacy); ("affine", affine) ])
    [ ("legacy passes", Pl.legacy); ("affine passes", Pl.affine_on) ]

(* --- verifier: variable-size DMA bounds -------------------------------- *)

let synthetic_program extent_cap =
  let v = V.fresh "i" in
  let wbuf = B.create "w" T.Dtype.I32 ~elems:8192 B.Wram in
  let body =
    St.Alloc
      {
        buffer = wbuf;
        body =
          St.For
            {
              var = v;
              extent = E.min_e (ei extent_cap) (ei (extent_cap - 1));
              kind = St.Serial;
              body =
                St.Dma
                  {
                    dir = St.Mram_to_wram;
                    wram = "w";
                    wram_off = ei 0;
                    mram = "m";
                    mram_off = ei 0;
                    elems = E.var v;
                  };
            };
      }
  in
  {
    P.name = "synthetic";
    host_buffers = [];
    mram_buffers = [];
    kernels = [ { P.kname = "k"; body } ];
    host = St.Launch "k";
  }

let test_verifier_variable_dma () =
  let esize = 4 in
  let cap_ok = cfg.U.Config.dma_max_bytes / esize in
  (* elems <= cap_ok - 2: within the DMA limit, must be accepted. *)
  (match Imtp_engine.Verifier.check cfg (synthetic_program cap_ok) with
  | Ok () -> ()
  | Error r ->
      Alcotest.failf "bounded variable DMA rejected: %s"
        r.Imtp_engine.Verifier.reason);
  (* 4x the limit: the affine upper bound must catch it, under the
     "dma" constraint name the search tallies. *)
  match Imtp_engine.Verifier.check cfg (synthetic_program (4 * cap_ok)) with
  | Ok () -> Alcotest.fail "oversized variable DMA accepted"
  | Error r ->
      Alcotest.(check string)
        "constraint name" "dma" r.Imtp_engine.Verifier.constraint_name

(* --- search: rejection tally ------------------------------------------ *)

let test_search_rejections () =
  (* A machine with almost no WRAM makes most sketches violate the
     footprint bound, so the tally has something to group. *)
  let tiny = { U.Config.default with U.Config.wram_bytes = 512 } in
  let op = Ops.mtv 128 256 in
  let o = Imtp_autotune.Search.run ~seed:11 ~jobs:1 tiny op ~trials:32 in
  let total =
    List.fold_left (fun acc (_, n) -> acc + n) 0 o.Imtp_autotune.Search.rejections
  in
  Alcotest.(check int)
    "tally sums to invalid_candidates" o.Imtp_autotune.Search.invalid_candidates
    total;
  Alcotest.(check bool)
    "rejections present" true
    (o.Imtp_autotune.Search.invalid_candidates = 0
    || o.Imtp_autotune.Search.rejections <> [])

let () =
  Alcotest.run "affine"
    [
      ( "core",
        [
          Alcotest.test_case "negative coefficients" `Quick
            test_negative_coefficients;
          Alcotest.test_case "eq/ne conjuncts" `Quick test_eq_ne_conjuncts;
          Alcotest.test_case "clamped extents" `Quick
            test_clamped_extent_proves_containment;
          Alcotest.test_case "cond_upper_bound" `Quick test_cond_upper_bound;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "ragged gemv guard-free" `Quick test_ragged_gemv;
          Alcotest.test_case "ragged mmtv guard-free" `Quick test_ragged_mmtv;
          Alcotest.test_case "ragged rfactor" `Quick test_ragged_rfactor;
          Alcotest.test_case "divisible zero guards" `Quick
            test_divisible_zero_guards;
          Alcotest.test_case "cross-stack soundness" `Quick test_cross_stack;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "variable dma bounds" `Quick
            test_verifier_variable_dma;
        ] );
      ( "search",
        [
          Alcotest.test_case "rejection tally" `Quick test_search_rejections;
        ] );
    ]
