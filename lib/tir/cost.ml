module U = Imtp_upmem
module T = Imtp_tensor

exception Error of string

let err fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(* --- expression summaries ------------------------------------------ *)

(* Dtype of a value expression, given buffer dtypes. *)
let rec expr_dtype dts (e : Expr.t) : T.Dtype.t =
  match e with
  | Float_const _ -> T.Dtype.F32
  | Int_const _ | Var _ -> T.Dtype.I32
  | Cast (dt, _) -> dt
  | Load (buf, _) -> (
      match Hashtbl.find_opt dts buf with Some dt -> dt | None -> T.Dtype.I32)
  | Binop (_, a, b) | Select (_, a, b) -> (
      match (expr_dtype dts a, expr_dtype dts b) with
      | T.Dtype.F32, _ | _, T.Dtype.F32 -> T.Dtype.F32
      | T.Dtype.I8, T.Dtype.I8 -> T.Dtype.I8
      | (T.Dtype.I8 | T.Dtype.I32), (T.Dtype.I8 | T.Dtype.I32) -> T.Dtype.I32)
  | Cmp _ | And _ | Or _ | Not _ -> T.Dtype.I32

let index_slots idx =
  U.Timing.address_calc_slots ~terms:(Var.Set.cardinal (Expr.free_vars idx))

let timing_binop : Expr.binop -> U.Timing.binop = function
  | Add -> U.Timing.Add
  | Sub -> U.Timing.Sub
  | Mul -> U.Timing.Mul
  | Div | Mod -> U.Timing.Div
  | Min -> U.Timing.Min
  | Max -> U.Timing.Max

(* Issue slots to evaluate [e] on a DPU.  [dts] maps buffer names to
   dtypes; [scopes] maps buffer names to scopes (for the WRAM vs direct
   MRAM access cost split). *)
let rec value_slots dts scopes (e : Expr.t) : float =
  match e with
  | Int_const _ | Float_const _ | Var _ -> 0.
  | Binop (Mul, a, b)
    when Stdlib.( = ) (expr_dtype dts e) T.Dtype.I32
         && (Expr.is_const a || Expr.is_const b) ->
      (* multiply-by-constant in index/guard arithmetic is
         strength-reduced to shifts/adds by the backend compiler. *)
      1. +. value_slots dts scopes a +. value_slots dts scopes b
  | Binop (op, a, b) ->
      U.Timing.binop_slots (expr_dtype dts e) (timing_binop op)
      +. value_slots dts scopes a +. value_slots dts scopes b
  | Cmp (_, a, b) -> 1. +. value_slots dts scopes a +. value_slots dts scopes b
  | And (a, b) | Or (a, b) ->
      1. +. value_slots dts scopes a +. value_slots dts scopes b
  | Not a -> 1. +. value_slots dts scopes a
  | Select (c, a, b) ->
      1. +. value_slots dts scopes c +. value_slots dts scopes a
      +. value_slots dts scopes b
  | Load (buf, idx) ->
      (* the index arithmetic is charged once via the address-calc
         estimate, not re-counted operation by operation. *)
      let access =
        match Hashtbl.find_opt scopes buf with
        | Some Buffer.Wram | None -> U.Timing.wram_access_slots
        | Some Buffer.Mram -> U.Timing.mram_scalar_access_slots
        | Some Buffer.Host -> U.Timing.wram_access_slots
      in
      access +. index_slots idx
  | Cast (_, a) -> 1. +. value_slots dts scopes a

(* Host-CPU scalar operation count of an expression. *)
let rec host_ops (e : Expr.t) : float =
  match e with
  | Int_const _ | Float_const _ | Var _ -> 0.
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
      1. +. host_ops a +. host_ops b
  | Not a | Cast (_, a) -> 1. +. host_ops a
  | Select (c, a, b) -> 1. +. host_ops c +. host_ops a +. host_ops b
  | Load (_, idx) -> 1. +. host_ops idx

let rec host_load_count (e : Expr.t) : float =
  match e with
  | Int_const _ | Float_const _ | Var _ -> 0.
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
      host_load_count a +. host_load_count b
  | Not a | Cast (_, a) -> host_load_count a
  | Select (c, a, b) -> host_load_count c +. host_load_count a +. host_load_count b
  | Load (_, idx) -> 1. +. host_load_count idx

(* --- static evaluation helpers -------------------------------------- *)

(* Evaluate a loop extent under the interior assumption: every
   already-bound loop variable is 0 (tile 0 has the full extent). *)
let extent_int env e =
  match Simplify.eval_int env e with
  | Some n -> n
  | None -> err "non-constant loop extent: %s" (Expr.to_string e)

(* --- kernel profile -------------------------------------------------- *)

type kacc = {
  dts : (string, T.Dtype.t) Hashtbl.t;
  scopes : (string, Buffer.scope) Hashtbl.t;
  mutable slots : float;  (* per-tasklet compute issue slots *)
  mutable dmas : (int * float) list;  (* bytes, executions per tasklet *)
  mutable chunk_execs : float;  (* executions of most frequent DMA site *)
  mutable tasklets : int;
}

let register_buffers (p : Program.t) acc =
  let reg (b : Buffer.t) =
    Hashtbl.replace acc.dts b.name b.dtype;
    Hashtbl.replace acc.scopes b.name b.scope
  in
  List.iter reg p.host_buffers;
  List.iter reg p.mram_buffers

let dma_init_slots elems = if Expr.is_const elems then 2. else 8.

let kernel_profile cfg (p : Program.t) (k : Program.kernel) =
  let acc =
    {
      dts = Hashtbl.create 16;
      scopes = Hashtbl.create 16;
      slots = 0.;
      dmas = [];
      chunk_execs = 1.;
      tasklets = 1;
    }
  in
  register_buffers p acc;
  (* Pre-register WRAM allocations so dtypes resolve anywhere. *)
  Stmt.iter
    (function
      | Stmt.Alloc { buffer; _ } ->
          Hashtbl.replace acc.dts buffer.Buffer.name buffer.Buffer.dtype;
          Hashtbl.replace acc.scopes buffer.Buffer.name buffer.Buffer.scope
      | Stmt.Seq _ | Stmt.For _ | Stmt.If _ | Stmt.Store _ | Stmt.Dma _
      | Stmt.Xfer _ | Stmt.Launch _ | Stmt.Barrier | Stmt.Nop ->
          ())
    k.body;
  let vslots e = value_slots acc.dts acc.scopes e in
  let rec walk mult env (s : Stmt.t) =
    match s with
    | Nop -> ()
    | Barrier -> acc.slots <- acc.slots +. (32. *. mult)
    | Seq ss -> List.iter (walk mult env) ss
    | Alloc { body; _ } -> walk mult env body
    | For { var; extent = _; kind = Bound (Block_x | Block_y | Block_z); body } ->
        (* per-DPU accounting: do not multiply. *)
        walk mult (Var.Map.add var 0 env) body
    | For { var; extent; kind = Bound Thread_x; body } ->
        acc.tasklets <- acc.tasklets * extent_int env extent;
        walk mult (Var.Map.add var 0 env) body
    | For { var; extent; kind = Unrolled; body } ->
        let n = extent_int env extent in
        walk (mult *. float_of_int n) (Var.Map.add var 0 env) body
    | For { var; extent; kind = Serial | Host_parallel _; body } ->
        let n = extent_int env extent in
        acc.slots <-
          acc.slots +. (mult *. float_of_int n *. U.Timing.loop_overhead_slots);
        walk (mult *. float_of_int n) (Var.Map.add var 0 env) body
    | If { cond; then_; else_ = _ } ->
        acc.slots <-
          acc.slots
          +. (mult *. (U.Timing.branch_slots cfg ~tasklets:acc.tasklets +. vslots cond));
        walk mult env then_
    | Store { buf; index; value } ->
        let access =
          match Hashtbl.find_opt acc.scopes buf with
          | Some Buffer.Mram -> U.Timing.mram_scalar_access_slots
          | Some (Buffer.Wram | Buffer.Host) | None -> U.Timing.wram_access_slots
        in
        acc.slots <-
          acc.slots +. (mult *. (access +. index_slots index +. vslots value))
    | Dma { wram; elems; dir = _; wram_off = _; mram = _; mram_off = _ } ->
        let n = extent_int env elems in
        let esize =
          match Hashtbl.find_opt acc.dts wram with
          | Some dt -> T.Dtype.size_in_bytes dt
          | None -> 4
        in
        acc.slots <- acc.slots +. (mult *. dma_init_slots elems);
        acc.dmas <- (n * esize, mult) :: acc.dmas;
        if mult > acc.chunk_execs then acc.chunk_execs <- mult
    | Xfer _ -> err "Xfer inside kernel %s" k.kname
    | Launch _ -> err "Launch inside kernel %s" k.kname
  in
  walk 1. Var.Map.empty k.body;
  let chunks_per_tasklet = Float.max 1. acc.chunk_execs in
  let dma_bytes =
    List.map (fun (b, execs) -> (b, execs /. chunks_per_tasklet)) acc.dmas
  in
  {
    U.Dpu_model.tasklets = acc.tasklets;
    chunks =
      int_of_float (Float.round (chunks_per_tasklet *. float_of_int acc.tasklets));
    dma_bytes;
    compute_slots = acc.slots /. chunks_per_tasklet;
    prologue_slots = 64.;
    epilogue_slots = 64.;
  }

let kernel_cycles cfg p k = U.Dpu_model.kernel_cycles cfg (kernel_profile cfg p k)

(* --- exact DMA and transfer counting ----------------------------------- *)

(* Full loop enumeration, the analytic twin of the [Eval.run_counted]
   counters.  Unlike the timing walk above there is no interior-DPU
   approximation: block and thread loops are enumerated and guards are
   evaluated, so [visit] sees every Dma and Xfer the interpreter
   executes, with the loop environment it executes under.  Kernels are
   walked at their Launch when [~kernels]. *)
let enumerate name (p : Program.t) ~kernels visit =
  let budget = ref 50_000_000 in
  let rec walk env (s : Stmt.t) =
    decr budget;
    if !budget <= 0 then err "%s: enumeration exceeds node budget" name;
    match s with
    | Nop | Barrier | Store _ -> ()
    | Dma _ | Xfer _ -> visit env s
    | Seq ss -> List.iter (walk env) ss
    | Alloc { body; _ } -> walk env body
    | For { var; extent; kind = _; body } ->
        let n = max 0 (extent_int env extent) in
        for i = 0 to n - 1 do
          walk (Var.Map.add var i env) body
        done
    | If { cond; then_; else_ } -> (
        match Simplify.eval_int env cond with
        | Some 0 -> Option.iter (walk env) else_
        | Some _ -> walk env then_
        | None -> err "%s: undecidable guard %s" name (Expr.to_string cond))
    | Launch kname -> (
        if kernels then
          match Program.kernel_of p kname with
          | Some k -> walk env k.body
          | None -> err "%s: launch of unknown kernel %s" name kname)
  in
  walk Var.Map.empty p.host

type dma_counts = { dma_ops : int; dma_elems : int }

let dma_counts (p : Program.t) =
  let ops = ref 0 and elems = ref 0 in
  enumerate "dma_counts" p ~kernels:true (fun env s ->
      match s with
      | Dma { elems = e; _ } ->
          (* mirror [Eval]: the op and its element count are recorded
             unconditionally once the instruction issues. *)
          incr ops;
          elems := !elems + extent_int env e
      | _ -> ());
  { dma_ops = !ops; dma_elems = !elems }

type xfer_counts = { xfer_elems_h2d : int; xfer_elems_d2h : int }

let xfer_counts (p : Program.t) =
  let ndpus = Program.dpus_used p in
  let h2d = ref 0 and d2h = ref 0 in
  (* Transfers are host statements, so kernels are not walked. *)
  enumerate "xfer_counts" p ~kernels:false (fun env s ->
      match s with
      | Xfer { dir = To_dpu; mode; elems; _ } ->
          (* mirror [Eval]: a broadcast moves its elements to every DPU. *)
          let copies =
            match mode with Broadcast_x -> ndpus | Copy | Push -> 1
          in
          h2d := !h2d + (extent_int env elems * copies)
      | Xfer { dir = From_dpu; elems; _ } -> d2h := !d2h + extent_int env elems
      | _ -> ());
  { xfer_elems_h2d = !h2d; xfer_elems_d2h = !d2h }

(* Analytic DMA traffic: loop extents multiply instead of being
   enumerated, guards are assumed taken (an [If] charges the heavier
   branch, as the timing walk does), and variable-length transfers are
   resolved with every enclosing loop variable at 0.  An interior-DPU
   upper bound, cheap enough to run on every search candidate — the
   feature-extraction twin of the exact [dma_counts] above. *)
let dma_estimate (p : Program.t) =
  let rec walk mult env (s : Stmt.t) : float * float =
    match s with
    | Stmt.Nop | Stmt.Barrier | Stmt.Store _ | Stmt.Xfer _ -> (0., 0.)
    | Stmt.Seq ss ->
        List.fold_left
          (fun (o, e) s ->
            let o', e' = walk mult env s in
            (o +. o', e +. e'))
          (0., 0.) ss
    | Stmt.Alloc { body; _ } -> walk mult env body
    | Stmt.For { var; extent; kind = _; body } ->
        let n =
          match Simplify.eval_int env extent with Some n -> max 0 n | None -> 1
        in
        walk (mult *. float_of_int n) (Var.Map.add var 0 env) body
    | Stmt.If { cond = _; then_; else_ } ->
        let o_t, e_t = walk mult env then_ in
        let o_e, e_e =
          match else_ with None -> (0., 0.) | Some s -> walk mult env s
        in
        (Float.max o_t o_e, Float.max e_t e_e)
    | Stmt.Dma { elems = e; _ } ->
        let n =
          match Simplify.eval_int env e with Some n -> max 0 n | None -> 1
        in
        (mult, mult *. float_of_int n)
    | Stmt.Launch kname -> (
        match Program.kernel_of p kname with
        | Some k -> walk mult env k.body
        | None -> (0., 0.))
  in
  let ops, elems = walk 1. Var.Map.empty p.host in
  let clamp x =
    if x >= float_of_int max_int then max_int else int_of_float x
  in
  { dma_ops = clamp ops; dma_elems = clamp elems }

(* --- host walk -------------------------------------------------------- *)

type hacc = {
  mutable h2d : float;
  mutable d2h : float;
  mutable launch : float;
  mutable kernel : float;
  mutable host_ops : float;
  mutable host_bytes : float;
  mutable host_par_s : float;
  mutable bytes_h2d : float;
  mutable bytes_d2h : float;
}

(* (ops, bytes) per single execution of a host statement. *)
let rec host_body_cost env (s : Stmt.t) : float * float =
  match s with
  | Nop | Barrier | Launch _ | Dma _ | Xfer _ -> (0., 0.)
  | Seq ss ->
      List.fold_left
        (fun (o, b) s ->
          let o', b' = host_body_cost env s in
          (o +. o', b +. b'))
        (0., 0.) ss
  | Alloc { body; _ } -> host_body_cost env body
  | For { var; extent; body; kind = _ } ->
      let n =
        match Simplify.eval_int env extent with Some n -> n | None -> 1
      in
      let o, b = host_body_cost (Var.Map.add var 0 env) body in
      (float_of_int n *. (o +. 2.), float_of_int n *. b)
  | If { cond; then_; else_ } ->
      (* A boundary If executes exactly one branch; charge the more
         expensive of the two rather than silently dropping [else_]. *)
      let o_t, b_t = host_body_cost env then_ in
      let o_e, b_e =
        match else_ with
        | None -> (0., 0.)
        | Some s -> host_body_cost env s
      in
      (Float.max o_t o_e +. host_ops cond, Float.max b_t b_e)
  | Store { index; value; buf = _ } ->
      let loads = host_load_count value +. host_load_count index in
      (1. +. host_ops value +. host_ops index, 4. *. (loads +. 1.))

let elem_bytes (p : Program.t) name elems =
  let esize =
    match Program.buffer_of p name with
    | Some b -> T.Dtype.size_in_bytes b.Buffer.dtype
    | None -> 4
  in
  elems * esize

let measure cfg (p : Program.t) : U.Stats.t =
  (match Program.validate p with Ok () -> () | Error m -> err "%s" m);
  let acc =
    {
      h2d = 0.;
      d2h = 0.;
      launch = 0.;
      kernel = 0.;
      host_ops = 0.;
      host_bytes = 0.;
      host_par_s = 0.;
      bytes_h2d = 0.;
      bytes_d2h = 0.;
    }
  in
  let kernel_seconds = Hashtbl.create 4 in
  List.iter
    (fun (k : Program.kernel) ->
      Hashtbl.replace kernel_seconds k.kname
        (U.Config.seconds_of_cycles cfg (kernel_cycles cfg p k)))
    p.kernels;
  let rec walk mult env (s : Stmt.t) =
    match s with
    | Nop | Barrier | Dma _ -> ()
    | Seq ss -> List.iter (walk mult env) ss
    | Alloc { body; _ } -> walk mult env body
    | For { var; extent; kind = Host_parallel threads; body } ->
        let n = extent_int env extent in
        let ops, bytes = host_body_cost (Var.Map.add var 0 env) body in
        acc.host_par_s <-
          acc.host_par_s
          +. mult
             *. U.Host_model.loop_seconds cfg ~threads ~elems:n
                  ~ops_per_elem:(ops +. 2.) ~bytes_per_elem:bytes
    | For { var; extent; body; kind = Serial | Unrolled | Bound _ } ->
        let n = extent_int env extent in
        (* A host loop body containing only transfers costs no host
           compute; otherwise charge serial scalar work. *)
        if
          not
            (Stmt.exists
               (function
                 | Stmt.Xfer _ | Stmt.Launch _ -> true
                 | Stmt.Seq _ | Stmt.For _ | Stmt.If _ | Stmt.Store _
                 | Stmt.Alloc _ | Stmt.Dma _ | Stmt.Barrier | Stmt.Nop -> false)
               body)
        then begin
          let ops, bytes = host_body_cost (Var.Map.add var 0 env) body in
          acc.host_ops <- acc.host_ops +. (mult *. float_of_int n *. (ops +. 2.));
          acc.host_bytes <- acc.host_bytes +. (mult *. float_of_int n *. bytes)
        end
        else walk (mult *. float_of_int n) (Var.Map.add var 0 env) body
    | If { cond = _; then_; else_ = None } -> walk mult env then_
    | If { cond = _; then_; else_ = Some els } ->
        (* One branch executes; charge the componentwise max of the two
           branch contributions (the walk mutates [acc], so each branch
           is measured as a delta against a snapshot). *)
        let snapshot () =
          [|
            acc.h2d; acc.d2h; acc.launch; acc.kernel; acc.host_ops;
            acc.host_bytes; acc.host_par_s; acc.bytes_h2d; acc.bytes_d2h;
          |]
        in
        let restore v =
          acc.h2d <- v.(0);
          acc.d2h <- v.(1);
          acc.launch <- v.(2);
          acc.kernel <- v.(3);
          acc.host_ops <- v.(4);
          acc.host_bytes <- v.(5);
          acc.host_par_s <- v.(6);
          acc.bytes_h2d <- v.(7);
          acc.bytes_d2h <- v.(8)
        in
        let base = snapshot () in
        walk mult env then_;
        let with_then = snapshot () in
        restore base;
        walk mult env els;
        let with_else = snapshot () in
        let merged =
          Array.mapi
            (fun i b -> b +. Float.max (with_then.(i) -. b) (with_else.(i) -. b))
            base
        in
        restore merged
    | Store { buf = _; index; value } ->
        acc.host_ops <-
          acc.host_ops +. (mult *. (1. +. host_ops value +. host_ops index));
        acc.host_bytes <-
          acc.host_bytes
          +. (mult
              *. 4.
              *. (host_load_count value +. host_load_count index +. 1.))
    | Launch kname ->
        acc.launch <- acc.launch +. (mult *. cfg.U.Config.kernel_launch_overhead_s);
        acc.kernel <- acc.kernel +. (mult *. Hashtbl.find kernel_seconds kname)
    | Xfer { dir; mode; host; host_off = _; dpu = _; mram = _; mram_off = _; elems; group_dpus } -> (
        let n = extent_int env elems in
        let bytes = elem_bytes p host n in
        let tdir =
          match dir with To_dpu -> U.Transfer.H2d | From_dpu -> U.Transfer.D2h
        in
        let record_bytes total =
          match dir with
          | To_dpu -> acc.bytes_h2d <- acc.bytes_h2d +. total
          | From_dpu -> acc.bytes_d2h <- acc.bytes_d2h +. total
        in
        match mode with
        | Copy ->
            let s = U.Transfer.seconds cfg tdir U.Transfer.Serial ~ndpus:1 ~bytes_per_dpu:bytes in
            record_bytes (mult *. float_of_int bytes);
            let t = mult *. s in
            if dir = To_dpu then acc.h2d <- acc.h2d +. t else acc.d2h <- acc.d2h +. t
        | Push ->
            let g = max 1 group_dpus in
            (* A partial group still costs one full per-call transfer
               overhead: round the call count up. *)
            let calls = Float.max 1. (Float.ceil (mult /. float_of_int g)) in
            let s =
              U.Transfer.seconds cfg tdir U.Transfer.Bank_parallel
                ~ndpus:(min g (int_of_float (Float.max 1. mult)))
                ~bytes_per_dpu:bytes
            in
            record_bytes (mult *. float_of_int bytes);
            let t = calls *. s in
            if dir = To_dpu then acc.h2d <- acc.h2d +. t else acc.d2h <- acc.d2h +. t
        | Broadcast_x ->
            let g = max 1 group_dpus in
            let calls = Float.max 1. (Float.ceil (mult /. float_of_int g)) in
            let s = U.Transfer.broadcast_seconds cfg ~ndpus:g ~bytes in
            record_bytes (float_of_int (g * bytes) *. calls);
            acc.h2d <- acc.h2d +. (calls *. s))
  in
  walk 1. Var.Map.empty p.host;
  let host_serial_s =
    (acc.host_ops /. cfg.U.Config.host_ops_per_s)
    +. (acc.host_bytes /. cfg.U.Config.host_mem_bw)
  in
  {
    U.Stats.h2d_s = acc.h2d;
    kernel_s = acc.kernel;
    d2h_s = acc.d2h;
    host_s = host_serial_s +. acc.host_par_s;
    launch_s = acc.launch;
    bytes_h2d = int_of_float acc.bytes_h2d;
    bytes_d2h = int_of_float acc.bytes_d2h;
    dpus_used = Program.dpus_used p;
    tasklets_used = Program.tasklets_used p;
  }
