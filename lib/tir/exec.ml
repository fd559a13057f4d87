(* Closure-compiled executor over typed storage.

   A Program.t is staged once into nested OCaml closures over a small
   mutable runtime state.  Buffer names resolve to storage slots at
   compile time, and a slot holds the buffer's raw elements: an
   [int array] for I8/I32, a [float array] for F32.  Loop variables live
   in a pre-sized [int array] frame indexed by compile-time slots, and
   expression trees are specialized into unboxed [rt -> int] /
   [rt -> float] closures wherever the static type is known (falling
   back to boxed [Value.t] closures for mixed-type Min/Max/Select, which
   are type-preserving in Eval).

   Storage:
   - host: each run's copy of every input the program may write (the
     input itself when it never writes it, a zeroed tensor when there
     is none); the slot shares the tensor's array, so the tensors are
     the outputs;
   - MRAM: one arena of [ndpus * elems] elements per buffer, poisoned as
     Eval poisons it at the start of every run; DPU d's copy starts at
     [d * elems], and bounds are checked per DPU against [elems];
   - WRAM: one array per Alloc site, allocated on first entry and
     zero-filled on every later one, which is what a fresh allocation
     holds.  A site is never live twice at once: the tree is lexically
     scoped and kernels are compiled per Launch site.
   Arenas and WRAM arrays outlive a run: the staged program keeps them
   for its next one.

   Loops whose body is straight-line stores over affine indices, with
   nothing in it that can raise, run on a bounds-prechecked path (see
   [comp_fast_loop]).

   The contract is bit-compatibility with Eval: identical outputs,
   identical counters, and identical Eval.Error exceptions raised at
   the same execution points with the same counter side effects already
   applied.  Every deviation from the obvious compilation below is in
   service of that contract — evaluation order (operands left to right,
   DMA reads before writes, counter bumps before scope errors), the
   exact error strings, and Eval's quirks (float-compared integer
   Min/Max, Division_by_zero only on an [Int 0] divisor, [dma_elems]
   counting negative extents) are all replicated. *)

module T = Imtp_tensor
module D = Imtp_tensor.Dtype

let err fmt = Printf.ksprintf (fun m -> raise (Eval.Error m)) fmt

type backend = Interp | Compiled

let backend () =
  match Sys.getenv_opt "IMTP_EXEC" with
  | Some "interp" -> Interp
  | Some _ | None -> Compiled

let backend_name () =
  match backend () with Interp -> "interp" | Compiled -> "compiled"

(* --- hot helpers ------------------------------------------------------ *)

(* Copies of Dtype's conversions.  Dev builds compile with -opaque, so a
   call into another module is never inlined; these stay local so every
   closure below inlines them.  They must agree with Dtype bit for bit,
   which the fuzzer's compiled-vs-interpreter oracle checks. *)
let wrap_i32 n =
  let m = n land 0xFFFFFFFF in
  if m >= 0x80000000 then m - 0x100000000 else m

let wrap_i8 n =
  let m = n land 0xFF in
  if m >= 0x80 then m - 0x100 else m

let round_f32 x = Int32.float_of_bits (Int32.bits_of_float x)

let int_of_f32 f =
  if Float.is_nan f then 0
  else if f >= 2147483647. then 2147483647
  else if f <= -2147483648. then -2147483648
  else int_of_float f

(* --- runtime state --------------------------------------------------- *)

(* Storage slots: host buffer i is slot i, MRAM buffer j is slot
   [n_host + j], and Alloc sites follow in compile order.  A slot's
   array lives in [ints] or [floats] by its buffer's dtype; the other
   table holds [||] there. *)
type rt = {
  host : T.Tensor.t array;  (* host slot -> the run's tensor *)
  ints : int array array;
  floats : float array array;
  ndpus : int;
  frame : int array;  (* slot = loop-binder site or prechecked access *)
  mutable dpu : int;
  counters : Eval.counters;
}

(* --- compiled expressions -------------------------------------------- *)

type code =
  | I of (rt -> int)
  | F of (rt -> float)
  | V of (rt -> T.Value.t)  (* generic fallback, Eval-boxed semantics *)

(* --- compile-time state ---------------------------------------------- *)

type state = {
  prog : Program.t;
  host_slots : (string * (int * Buffer.t)) list;
  mram_slots : (string * (int * Buffer.t)) list;  (* storage slot *)
  mutable n_frame : int;
  mutable n_slots : int;
}

type cside = Host_c | Kernel_c

type scope = {
  vars : (Var.t * int) list;  (* innermost-first *)
  allocs : (string * (int * Buffer.t)) list;  (* innermost-first *)
  side : cside;
  fast_load : (string -> Expr.t -> code) option;
      (* how Loads compile inside a prechecked loop body *)
}

type space = Wram | Mram | Host

(* A buffer as one access site sees it.  [dstride] is the distance
   between two DPUs' copies in the storage array: [elems] for an MRAM
   arena, 0 otherwise. *)
type mem = {
  name : string;
  slot : int;
  buf : Buffer.t;
  space : space;
  dstride : int;
}

let is_int (b : Buffer.t) =
  match b.Buffer.dtype with D.I8 | D.I32 -> true | D.F32 -> false

let oob m ~write dpu off =
  let rw = if write then "write" else "read" in
  match m.space with
  | Wram -> err "wram %s out of bounds: %s[%d]" rw m.name off
  | Mram -> err "mram %s out of bounds: %s[%d] (dpu %d)" rw m.name off dpu
  | Host -> err "host %s out of bounds: %s[%d]" rw m.name off

(* Name resolution, in Eval.read_buf's order: the innermost enclosing
   Alloc first, then MRAM, then host.  The program tree is lexically
   scoped, so resolving each access site against its enclosing Alloc
   chain reproduces Eval's dynamic assoc-list exactly (kernels resolve
   against the chain active at their Launch site, which is why Launch
   compiles its kernel per site).  [Error] carries Eval's scope-error
   message. *)
let resolve st sc name ~write =
  let verb = if write then "writes" else "reads" in
  match List.assoc_opt name sc.allocs with
  | Some (slot, buf) -> Ok { name; slot; buf; space = Wram; dstride = 0 }
  | None -> (
      match (List.assoc_opt name st.mram_slots, sc.side) with
      | Some _, Host_c ->
          Error
            (Printf.sprintf "host code %s MRAM buffer %s directly (use Xfer)"
               verb name)
      | Some (slot, buf), Kernel_c ->
          Ok { name; slot; buf; space = Mram; dstride = buf.Buffer.elems }
      | None, _ -> (
          match (List.assoc_opt name st.host_slots, sc.side) with
          | Some _, Kernel_c ->
              Error (Printf.sprintf "kernel %s host buffer %s" verb name)
          | Some (slot, buf), Host_c ->
              Ok { name; slot; buf; space = Host; dstride = 0 }
          | None, _ ->
              Error
                (Printf.sprintf "%s unknown buffer %s"
                   (if write then "write to" else "read from")
                   name)))

let flat_tensor (b : Buffer.t) =
  T.Tensor.create b.Buffer.dtype (T.Shape.create [ b.Buffer.elems ])

(* --- element conversion ---------------------------------------------- *)

(* A value closure converted for a store into an integer buffer
   ([~i8] for I8), by Tensor.set_flat's rules. *)
let int_value ~i8 (c : code) : rt -> int =
  match (c, i8) with
  | I f, false -> f
  | I f, true -> fun rt -> wrap_i8 (f rt)
  | F f, false -> fun rt -> int_of_f32 (f rt)
  | F f, true -> fun rt -> wrap_i8 (int_of_f32 (f rt))
  | V f, false -> (
      fun rt ->
        match f rt with T.Value.Int n -> n | T.Value.Float x -> int_of_f32 x)
  | V f, true -> (
      fun rt ->
        match f rt with
        | T.Value.Int n -> wrap_i8 n
        | T.Value.Float x -> wrap_i8 (int_of_f32 x))

let float_value (c : code) : rt -> float =
  match c with
  | F f -> f
  | I f -> fun rt -> round_f32 (float_of_int (f rt))
  | V f -> (
      fun rt ->
        match f rt with
        | T.Value.Float x -> x
        | T.Value.Int n -> round_f32 (float_of_int n))

(* Boxed element access, by Tensor.get_flat's and set_flat's rules. *)
let get_value (dt : D.t) slot rt i =
  match dt with
  | D.I8 | D.I32 -> T.Value.Int rt.ints.(slot).(i)
  | D.F32 -> T.Value.Float rt.floats.(slot).(i)

let set_value (dt : D.t) slot rt i (v : T.Value.t) =
  match (dt, v) with
  | D.I8, T.Value.Int n -> rt.ints.(slot).(i) <- wrap_i8 n
  | D.I8, T.Value.Float f -> rt.ints.(slot).(i) <- wrap_i8 (int_of_f32 f)
  | D.I32, T.Value.Int n -> rt.ints.(slot).(i) <- n
  | D.I32, T.Value.Float f -> rt.ints.(slot).(i) <- int_of_f32 f
  | D.F32, T.Value.Float f -> rt.floats.(slot).(i) <- f
  | D.F32, T.Value.Int n -> rt.floats.(slot).(i) <- round_f32 (float_of_int n)

(* Copies [n] elements between storage slots, converting by
   Tensor.set_flat's rules.  The caller has checked bounds, and the two
   slots differ.  Integer copies are typed loops: [Array.blit] into a
   major-heap array goes through the write barrier element by
   element. *)
let copier (src : D.t) sslot (dst : D.t) dslot : rt -> int -> int -> int -> unit
    =
  match (src, dst) with
  | (D.I8 | D.I32), D.I32 | D.I8, D.I8 ->
      fun rt so d n ->
        let s = rt.ints.(sslot) and t = rt.ints.(dslot) in
        for k = 0 to n - 1 do
          t.(d + k) <- s.(so + k)
        done
  | D.F32, D.F32 ->
      fun rt so d n ->
        if n > 0 then Array.blit rt.floats.(sslot) so rt.floats.(dslot) d n
  | _ ->
      fun rt so d n ->
        for k = 0 to n - 1 do
          set_value dst dslot rt (d + k) (get_value src sslot rt (so + k))
        done

(* --- expression combinators ------------------------------------------ *)

let as_value = function
  | I f -> fun rt -> T.Value.Int (f rt)
  | F f -> fun rt -> T.Value.Float (f rt)
  | V f -> f

let as_truth = function
  | I f -> fun rt -> f rt <> 0
  | F f -> fun rt -> f rt <> 0.
  | V f -> (
      fun rt ->
        match f rt with
        | T.Value.Int 0 -> false
        | T.Value.Int _ -> true
        | T.Value.Float x -> x <> 0.)

(* Eval's generic Binop semantics (including the floor-division special
   case for non-zero integer divisors), for the boxed fallback. *)
let apply_binop (op : Expr.binop) x y =
  match op with
  | Add -> T.Value.add x y
  | Sub -> T.Value.sub x y
  | Mul -> T.Value.mul x y
  | Div -> (
      match (x, y) with
      | T.Value.Int a, T.Value.Int b when b <> 0 ->
          T.Value.Int (Simplify.fold_binop Div a b)
      | _, _ -> T.Value.div x y)
  | Mod -> (
      match (x, y) with
      | T.Value.Int a, T.Value.Int b when b <> 0 ->
          T.Value.Int (Simplify.fold_binop Mod a b)
      | _, _ -> T.Value.rem x y)
  | Min -> T.Value.min_v x y
  | Max -> T.Value.max_v x y

let comp_binop (op : Expr.binop) ca cb =
  match (ca, cb) with
  | I fa, I fb -> (
      match op with
      | Add -> I (fun rt -> let x = fa rt in let y = fb rt in wrap_i32 (x + y))
      | Sub -> I (fun rt -> let x = fa rt in let y = fb rt in wrap_i32 (x - y))
      | Mul -> I (fun rt -> let x = fa rt in let y = fb rt in wrap_i32 (x * y))
      | Div ->
          I
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              if y <> 0 then Simplify.fold_binop Div x y
              else raise Division_by_zero)
      | Mod ->
          I
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              if y <> 0 then Simplify.fold_binop Mod x y
              else raise Division_by_zero)
      (* Value.min_v/max_v compare via to_float even for two ints;
         replicate so constants beyond the float53 range agree. *)
      | Min ->
          I
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              if float_of_int x <= float_of_int y then x else y)
      | Max ->
          I
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              if float_of_int x >= float_of_int y then x else y))
  | F fa, F fb -> (
      match op with
      | Add -> F (fun rt -> let x = fa rt in let y = fb rt in round_f32 (x +. y))
      | Sub -> F (fun rt -> let x = fa rt in let y = fb rt in round_f32 (x -. y))
      | Mul -> F (fun rt -> let x = fa rt in let y = fb rt in round_f32 (x *. y))
      (* A float divisor never raises (Eval checks for [Int 0] only). *)
      | Div -> F (fun rt -> let x = fa rt in let y = fb rt in round_f32 (x /. y))
      | Mod ->
          F (fun rt -> let x = fa rt in let y = fb rt in round_f32 (Float.rem x y))
      (* min_v/max_v return an operand unchanged: no rounding. *)
      | Min -> F (fun rt -> let x = fa rt in let y = fb rt in if x <= y then x else y)
      | Max -> F (fun rt -> let x = fa rt in let y = fb rt in if x >= y then x else y))
  | I fa, F fb -> (
      match op with
      | Add ->
          F (fun rt -> let x = fa rt in let y = fb rt in round_f32 (float_of_int x +. y))
      | Sub ->
          F (fun rt -> let x = fa rt in let y = fb rt in round_f32 (float_of_int x -. y))
      | Mul ->
          F (fun rt -> let x = fa rt in let y = fb rt in round_f32 (float_of_int x *. y))
      | Div ->
          F (fun rt -> let x = fa rt in let y = fb rt in round_f32 (float_of_int x /. y))
      | Mod ->
          F
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              round_f32 (Float.rem (float_of_int x) y))
      | Min | Max ->
          (* type-preserving on mixed operands: generic *)
          let va = as_value (I fa) and vb = as_value (F fb) in
          V (fun rt -> let x = va rt in let y = vb rt in apply_binop op x y))
  | F fa, I fb -> (
      match op with
      | Add ->
          F (fun rt -> let x = fa rt in let y = fb rt in round_f32 (x +. float_of_int y))
      | Sub ->
          F (fun rt -> let x = fa rt in let y = fb rt in round_f32 (x -. float_of_int y))
      | Mul ->
          F (fun rt -> let x = fa rt in let y = fb rt in round_f32 (x *. float_of_int y))
      (* An integer divisor of 0 raises even under float promotion. *)
      | Div ->
          F
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              if y = 0 then raise Division_by_zero
              else round_f32 (x /. float_of_int y))
      | Mod ->
          F
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              if y = 0 then raise Division_by_zero
              else round_f32 (Float.rem x (float_of_int y)))
      | Min | Max ->
          let va = as_value (F fa) and vb = as_value (I fb) in
          V (fun rt -> let x = va rt in let y = vb rt in apply_binop op x y))
  | (V _, _ | _, V _) ->
      let va = as_value ca and vb = as_value cb in
      V (fun rt -> let x = va rt in let y = vb rt in apply_binop op x y)

let comp_cmp (op : Expr.cmp) ca cb =
  let test : int -> bool =
    match op with
    | Lt -> fun c -> c < 0
    | Le -> fun c -> c <= 0
    | Gt -> fun c -> c > 0
    | Ge -> fun c -> c >= 0
    | Eq -> fun c -> c = 0
    | Ne -> fun c -> c <> 0
  in
  match (ca, cb) with
  | I fa, I fb ->
      I
        (fun rt ->
          let x = fa rt in
          let y = fb rt in
          if test (Int.compare x y) then 1 else 0)
  | F fa, F fb ->
      (* Float.compare semantics (total order on NaN), as Value.compare. *)
      I
        (fun rt ->
          let x = fa rt in
          let y = fb rt in
          if test (Float.compare x y) then 1 else 0)
  | I fa, F fb ->
      I
        (fun rt ->
          let x = fa rt in
          let y = fb rt in
          if test (Float.compare (float_of_int x) y) then 1 else 0)
  | F fa, I fb ->
      I
        (fun rt ->
          let x = fa rt in
          let y = fb rt in
          if test (Float.compare x (float_of_int y)) then 1 else 0)
  | (V _, _ | _, V _) ->
      let va = as_value ca and vb = as_value cb in
      I
        (fun rt ->
          let x = va rt in
          let y = vb rt in
          if test (T.Value.compare x y) then 1 else 0)

(* --- per-element access (DMA fallback path) --------------------------- *)

let comp_read_elem st sc name : rt -> int -> T.Value.t =
  match resolve st sc name ~write:false with
  | Error msg -> fun _ _ -> raise (Eval.Error msg)
  | Ok m ->
      let elems = m.buf.Buffer.elems in
      fun rt off ->
        if off < 0 || off >= elems then oob m ~write:false rt.dpu off
        else get_value m.buf.Buffer.dtype m.slot rt ((rt.dpu * m.dstride) + off)

let comp_write_elem st sc name : rt -> int -> T.Value.t -> unit =
  match resolve st sc name ~write:true with
  | Error msg -> fun _ _ _ -> raise (Eval.Error msg)
  | Ok m ->
      let elems = m.buf.Buffer.elems in
      fun rt off v ->
        if off < 0 || off >= elems then oob m ~write:true rt.dpu off
        else set_value m.buf.Buffer.dtype m.slot rt ((rt.dpu * m.dstride) + off) v

(* --- the expression compiler ------------------------------------------ *)

let var_slot sc (e : Expr.t) =
  match e with
  | Var v -> Option.map snd (List.find_opt (fun (u, _) -> Var.equal u v) sc.vars)
  | _ -> None

let rec comp_expr st sc (e : Expr.t) : code =
  match e with
  | Int_const n -> I (fun _ -> n)
  | Float_const f -> F (fun _ -> f)
  | Var v -> (
      match var_slot sc e with
      | Some slot -> I (fun rt -> rt.frame.(slot))
      | None ->
          let msg = "unbound variable " ^ Var.name v in
          I (fun _ -> raise (Eval.Error msg)))
  | Binop (((Add | Sub | Mul) as op), a, Int_const k) -> (
      (* Index arithmetic: a constant right operand, and a bound
         variable on the left, are read inline, not through closures. *)
      match (var_slot sc a, op) with
      | Some s, Add -> I (fun rt -> wrap_i32 (rt.frame.(s) + k))
      | Some s, Sub -> I (fun rt -> wrap_i32 (rt.frame.(s) - k))
      | Some s, _ -> I (fun rt -> wrap_i32 (rt.frame.(s) * k))
      | None, _ -> (
          match (comp_expr st sc a, op) with
          | I fa, Add -> I (fun rt -> wrap_i32 (fa rt + k))
          | I fa, Sub -> I (fun rt -> wrap_i32 (fa rt - k))
          | I fa, _ -> I (fun rt -> wrap_i32 (fa rt * k))
          | ca, _ -> comp_binop op ca (I (fun _ -> k))))
  | Binop (op, a, b) -> comp_binop op (comp_expr st sc a) (comp_expr st sc b)
  | Cmp (op, a, b) -> comp_cmp op (comp_expr st sc a) (comp_expr st sc b)
  | And (a, b) ->
      let ta = as_truth (comp_expr st sc a)
      and tb = as_truth (comp_expr st sc b) in
      I (fun rt -> if ta rt && tb rt then 1 else 0)
  | Or (a, b) ->
      let ta = as_truth (comp_expr st sc a)
      and tb = as_truth (comp_expr st sc b) in
      I (fun rt -> if ta rt || tb rt then 1 else 0)
  | Not a ->
      let ta = as_truth (comp_expr st sc a) in
      I (fun rt -> if ta rt then 0 else 1)
  | Select (c, t, f) -> (
      let tc = as_truth (comp_expr st sc c) in
      let ct = comp_expr st sc t and cf = comp_expr st sc f in
      match (ct, cf) with
      | I ft, I ff -> I (fun rt -> if tc rt then ft rt else ff rt)
      | F ft, F ff -> F (fun rt -> if tc rt then ft rt else ff rt)
      | _ ->
          let vt = as_value ct and vf = as_value cf in
          V (fun rt -> if tc rt then vt rt else vf rt))
  | Load (buf, idx) -> (
      match sc.fast_load with
      | Some load -> load buf idx
      | None -> comp_load st sc buf (comp_index st sc idx))
  | Cast (dt, a) -> (
      let ca = comp_expr st sc a in
      match (dt, ca) with
      | D.I8, I f -> I (fun rt -> wrap_i8 (f rt))
      | D.I8, F f -> I (fun rt -> wrap_i8 (int_of_f32 (f rt)))
      | D.I8, V f ->
          I
            (fun rt ->
              match f rt with
              | T.Value.Int n -> wrap_i8 n
              | T.Value.Float x -> wrap_i8 (int_of_f32 x))
      | D.I32, I f -> I (fun rt -> wrap_i32 (f rt))
      | D.I32, F f -> I (fun rt -> int_of_f32 (f rt))
      | D.I32, V f ->
          I
            (fun rt ->
              match f rt with
              | T.Value.Int n -> wrap_i32 n
              | T.Value.Float x -> int_of_f32 x)
      | D.F32, I f -> F (fun rt -> round_f32 (float_of_int (f rt)))
      | D.F32, F f -> F (fun rt -> round_f32 (f rt))
      | D.F32, V f -> F (fun rt -> round_f32 (T.Value.to_float (f rt))))

(* Index contexts: float-valued expressions are evaluated (for their
   side effects and errors) and then rejected with Eval's message. *)
and comp_index st sc (e : Expr.t) : rt -> int =
  match comp_expr st sc e with
  | I f -> f
  | F f ->
      let msg = "float used as index: " ^ Expr.to_string e in
      fun rt ->
        let _ = f rt in
        raise (Eval.Error msg)
  | V f -> (
      let msg = "float used as index: " ^ Expr.to_string e in
      fun rt ->
        match f rt with
        | T.Value.Int n -> n
        | T.Value.Float _ -> raise (Eval.Error msg))

(* Order, as in Eval: offset, kernel-load counter bump, bounds, read.
   The counter bump is resolved at compile time: kernel and host sites
   get different closures. *)
and comp_load st sc name get_off : code =
  let in_k = sc.side = Kernel_c in
  match resolve st sc name ~write:false with
  | Error msg ->
      I
        (fun rt ->
          let _ = get_off rt in
          if in_k then
            rt.counters.Eval.kernel_loads <- rt.counters.Eval.kernel_loads + 1;
          raise (Eval.Error msg))
  | Ok m -> (
      let slot = m.slot and elems = m.buf.Buffer.elems and ds = m.dstride in
      match (is_int m.buf, in_k) with
      | true, true ->
          I
            (fun rt ->
              let off = get_off rt in
              let c = rt.counters in
              c.Eval.kernel_loads <- c.Eval.kernel_loads + 1;
              if off < 0 || off >= elems then oob m ~write:false rt.dpu off
              else rt.ints.(slot).((rt.dpu * ds) + off))
      | true, false ->
          I
            (fun rt ->
              let off = get_off rt in
              if off < 0 || off >= elems then oob m ~write:false rt.dpu off
              else rt.ints.(slot).(off))
      | false, true ->
          F
            (fun rt ->
              let off = get_off rt in
              let c = rt.counters in
              c.Eval.kernel_loads <- c.Eval.kernel_loads + 1;
              if off < 0 || off >= elems then oob m ~write:false rt.dpu off
              else rt.floats.(slot).((rt.dpu * ds) + off))
      | false, false ->
          F
            (fun rt ->
              let off = get_off rt in
              if off < 0 || off >= elems then oob m ~write:false rt.dpu off
              else rt.floats.(slot).(off)))

(* Order, as in Eval: offset, counter bump, value, bounds, store. *)
and comp_store st sc name coff cval : rt -> unit =
  let in_k = sc.side = Kernel_c in
  match resolve st sc name ~write:true with
  | Error msg ->
      let vfn = as_value cval in
      fun rt ->
        let _ = coff rt in
        if in_k then
          rt.counters.Eval.kernel_stores <- rt.counters.Eval.kernel_stores + 1;
        let _ = vfn rt in
        raise (Eval.Error msg)
  | Ok m -> (
      let slot = m.slot and elems = m.buf.Buffer.elems and ds = m.dstride in
      match (is_int m.buf, in_k) with
      | true, true ->
          let v = int_value ~i8:(m.buf.Buffer.dtype = D.I8) cval in
          fun rt ->
            let off = coff rt in
            let c = rt.counters in
            c.Eval.kernel_stores <- c.Eval.kernel_stores + 1;
            let x = v rt in
            if off < 0 || off >= elems then oob m ~write:true rt.dpu off
            else rt.ints.(slot).((rt.dpu * ds) + off) <- x
      | true, false ->
          let v = int_value ~i8:(m.buf.Buffer.dtype = D.I8) cval in
          fun rt ->
            let off = coff rt in
            let x = v rt in
            if off < 0 || off >= elems then oob m ~write:true rt.dpu off
            else rt.ints.(slot).(off) <- x
      | false, true ->
          let v = float_value cval in
          fun rt ->
            let off = coff rt in
            let c = rt.counters in
            c.Eval.kernel_stores <- c.Eval.kernel_stores + 1;
            let x = v rt in
            if off < 0 || off >= elems then oob m ~write:true rt.dpu off
            else rt.floats.(slot).((rt.dpu * ds) + off) <- x
      | false, false ->
          let v = float_value cval in
          fun rt ->
            let off = coff rt in
            let x = v rt in
            if off < 0 || off >= elems then oob m ~write:true rt.dpu off
            else rt.floats.(slot).(off) <- x)

(* --- bounds-prechecked loops ------------------------------------------ *)

(* A loop qualifies for the prechecked path when its body is
   straight-line stores, every index (stored or loaded) is affine in the
   loop variable over a loop-invariant base, and nothing in the body can
   raise.  At loop entry the first and last index of every access is
   checked; when all are in bounds the loop runs with no per-access
   checks and adds its counters in bulk.  Otherwise it takes the checked
   path, so an error still fires at Eval's element with Eval's
   counters. *)

exception Ineligible

(* An index's dependence on the loop variable.  [Inv] leaves are pure
   loop-invariant integer closures, evaluated once at loop entry. *)
type aff =
  | Inv of (rt -> int)
  | Loop_var
  | Aadd of aff * aff
  | Asub of aff * aff
  | Amul of aff * aff

(* One memory access of a prechecked body.  While the loop runs, frame
   slot [base] holds its absolute offset at iteration 0 (DPU copy
   included) and slot [step] its stride. *)
type access = { m : mem; aff : aff; base : int; step : int }

(* Whether evaluating [e] cannot raise: every variable is bound and
   every Div/Mod has a non-zero constant divisor.  Loads are allowed
   (with [~loads]) only where they always execute — not under And, Or or
   a Select branch — so every iteration performs the same loads; their
   indices must be load-free. *)
let rec safe sc ~loads (e : Expr.t) =
  match e with
  | Int_const _ | Float_const _ -> true
  | Var _ -> var_slot sc e <> None
  | Binop ((Div | Mod), a, b) -> (
      match b with
      | Int_const 0 -> false
      | Int_const _ | Float_const _ -> safe sc ~loads a
      | _ -> false)
  | Binop (_, a, b) | Cmp (_, a, b) -> safe sc ~loads a && safe sc ~loads b
  | And (a, b) | Or (a, b) -> safe sc ~loads:false a && safe sc ~loads:false b
  | Select (c, t, f) ->
      safe sc ~loads c && safe sc ~loads:false t && safe sc ~loads:false f
  | Not a | Cast (_, a) -> safe sc ~loads a
  | Load (_, idx) -> loads && safe sc ~loads:false idx

let i32 x = x >= -0x80000000 && x <= 0x7FFFFFFF

(* [(r, c)] such that the index is [r + c * i] for every i in
   [0, last].  Raises [Exit] unless every node's value lies in int32 at
   both ends of the range: each node is affine in i, hence extreme at an
   end, so then no node wraps anywhere in the range and the compiled
   index is exactly the affine one. *)
let rec aff_eval rt last = function
  | Loop_var -> (0, 1)
  | Inv f ->
      let r = f rt in
      if i32 r then (r, 0) else raise Exit
  | Aadd (a, b) ->
      let ra, ca = aff_eval rt last a in
      let rb, cb = aff_eval rt last b in
      aff_node last (ra + rb) (ca + cb)
  | Asub (a, b) ->
      let ra, ca = aff_eval rt last a in
      let rb, cb = aff_eval rt last b in
      aff_node last (ra - rb) (ca - cb)
  | Amul (a, b) ->
      let ra, ca = aff_eval rt last a in
      let rb, cb = aff_eval rt last b in
      if ca <> 0 && cb <> 0 then raise Exit
      else aff_node last (ra * rb) ((ra * cb) + (ca * rb))

and aff_node last r c =
  if i32 r && i32 c && i32 (r + (c * last)) then (r, c) else raise Exit

(* Fills every access's base and stride for [n >= 1] iterations; false
   when some index may leave its buffer (or wrap), and the loop must
   take the checked path. *)
let prep (accs : access array) rt n =
  let last = n - 1 in
  last <= 0x7FFFFFFF
  &&
  try
    for k = 0 to Array.length accs - 1 do
      let a = accs.(k) in
      let r, c = aff_eval rt last a.aff in
      let e = r + (c * last) in
      let lo = min r e and hi = max r e in
      let len =
        if is_int a.m.buf then Array.length rt.ints.(a.m.slot)
        else Array.length rt.floats.(a.m.slot)
      in
      let dpu_base = rt.dpu * a.m.dstride in
      if lo < 0 || hi >= a.m.buf.Buffer.elems || dpu_base < 0
         || dpu_base + hi >= len
      then raise Exit;
      rt.frame.(a.base) <- dpu_base + r;
      rt.frame.(a.step) <- c
    done;
    true
  with Exit -> false

let rec aff_of st sc v (e : Expr.t) =
  if Analysis.is_free_of v e then
    match (safe sc ~loads:false e, comp_expr st sc e) with
    | true, I f -> Inv f
    | _ -> raise Ineligible
  else
    match e with
    | Var _ -> Loop_var
    | Binop (Add, a, b) -> Aadd (aff_of st sc v a, aff_of st sc v b)
    | Binop (Sub, a, b) -> Asub (aff_of st sc v a, aff_of st sc v b)
    | Binop (Mul, a, b)
      when Analysis.is_free_of v a || Analysis.is_free_of v b ->
        Amul (aff_of st sc v a, aff_of st sc v b)
    | _ -> raise Ineligible

(* Eval's integer and float semantics of an accumulating operator. *)
let int_op : Expr.binop -> int -> int -> int = function
  | Add -> fun x y -> wrap_i32 (x + y)
  | Sub -> fun x y -> wrap_i32 (x - y)
  | Mul -> fun x y -> wrap_i32 (x * y)
  | Min -> fun x y -> if float_of_int x <= float_of_int y then x else y
  | Max -> fun x y -> if float_of_int x >= float_of_int y then x else y
  | Div | Mod -> raise Ineligible

let float_op : Expr.binop -> float -> float -> float = function
  | Add -> fun x y -> round_f32 (x +. y)
  | Sub -> fun x y -> round_f32 (x -. y)
  | Mul -> fun x y -> round_f32 (x *. y)
  | Min -> fun x y -> if x <= y then x else y
  | Max -> fun x y -> if x >= y then x else y
  | Div | Mod -> raise Ineligible

(* The prechecked variant of a loop over [v] (frame slot [islot]), or
   [None] when the body does not qualify.  The variant returns false,
   having done nothing, when the entry check fails. *)
let comp_fast_loop st sc v islot (body : Stmt.t) : (rt -> int -> bool) option =
  let in_k = sc.side = Kernel_c in
  let access ~write name idx =
    match resolve st sc name ~write with
    | Error _ -> raise Ineligible
    | Ok m ->
        let aff = aff_of st sc v idx in
        let base = st.n_frame in
        st.n_frame <- st.n_frame + 2;
        { m; aff; base; step = base + 1 }
  in
  (* [run] executes [n >= 1] prechecked iterations. *)
  let finish accs ~loads ~stores run =
    let accs = Array.of_list accs in
    fun rt n ->
      n <= 0
      || prep accs rt n
         && begin
              run rt n;
              if in_k then begin
                let c = rt.counters in
                c.Eval.kernel_loads <- c.Eval.kernel_loads + (loads * n);
                c.Eval.kernel_stores <- c.Eval.kernel_stores + (stores * n)
              end;
              true
            end
  in
  (* A value with every Load an unchecked access, collected in [loads]. *)
  let comp_value loads e =
    if not (safe sc ~loads:true e) then raise Ineligible;
    let load name idx =
      let a = access ~write:false name idx in
      loads := a :: !loads;
      let slot = a.m.slot and base = a.base and step = a.step in
      if is_int a.m.buf then
        I
          (fun rt ->
            let f = rt.frame in
            Array.unsafe_get rt.ints.(slot) (f.(base) + (f.(step) * f.(islot))))
      else
        F
          (fun rt ->
            let f = rt.frame in
            Array.unsafe_get rt.floats.(slot) (f.(base) + (f.(step) * f.(islot))))
    in
    comp_expr st { sc with fast_load = Some load } e
  in
  (* [C[x] = C[x] op rest] with [x] loop-invariant and [rest] not
     reading C: the element lives in a local for the whole loop.  A
     product of two loads under [+] is a dot product and runs with no
     closure call at all. *)
  let accumulator buf index op rest =
    let acc = access ~write:true buf index in
    let reads_acc a = a.m.slot = acc.m.slot in
    let slot = acc.m.slot and off = acc.base in
    let i8 = acc.m.buf.Buffer.dtype = D.I8 in
    match (op, rest) with
    | Expr.Add, Expr.Binop (Mul, Load (ba, ia), Load (bb, ib)) -> (
        let a = access ~write:false ba ia and b = access ~write:false bb ib in
        if reads_acc a || reads_acc b then raise Ineligible;
        let run =
          match (is_int acc.m.buf, is_int a.m.buf, is_int b.m.buf) with
          | true, true, true ->
              fun rt n ->
                let f = rt.frame and c = rt.ints.(slot) in
                let o = f.(off) in
                let xa = rt.ints.(a.m.slot) and pa = f.(a.base) and sa = f.(a.step) in
                let xb = rt.ints.(b.m.slot) and pb = f.(b.base) and sb = f.(b.step) in
                let s = ref (Array.unsafe_get c o) in
                for i = 0 to n - 1 do
                  let x =
                    wrap_i32
                      (!s
                      + wrap_i32
                          (Array.unsafe_get xa (pa + (sa * i))
                          * Array.unsafe_get xb (pb + (sb * i))))
                  in
                  s := if i8 then wrap_i8 x else x
                done;
                Array.unsafe_set c o !s
          | false, false, false ->
              fun rt n ->
                let f = rt.frame and c = rt.floats.(slot) in
                let o = f.(off) in
                let xa = rt.floats.(a.m.slot) and pa = f.(a.base) and sa = f.(a.step) in
                let xb = rt.floats.(b.m.slot) and pb = f.(b.base) and sb = f.(b.step) in
                let s = ref (Array.unsafe_get c o) in
                for i = 0 to n - 1 do
                  s :=
                    round_f32
                      (!s
                      +. round_f32
                           (Array.unsafe_get xa (pa + (sa * i))
                           *. Array.unsafe_get xb (pb + (sb * i))))
                done;
                Array.unsafe_set c o !s
          | _ -> raise Ineligible
        in
        finish [ acc; a; b ] ~loads:3 ~stores:1 run)
    | _ -> (
        let loads = ref [] in
        let crest = comp_value loads rest in
        if List.exists reads_acc !loads then raise Ineligible;
        let finish = finish (acc :: !loads) ~loads:(1 + List.length !loads) ~stores:1 in
        match (is_int acc.m.buf, crest) with
        | true, I r ->
            let op = int_op op in
            finish (fun rt n ->
                let f = rt.frame and c = rt.ints.(slot) in
                let o = f.(off) in
                let s = ref (Array.unsafe_get c o) in
                for i = 0 to n - 1 do
                  f.(islot) <- i;
                  let x = op !s (r rt) in
                  s := if i8 then wrap_i8 x else x
                done;
                Array.unsafe_set c o !s)
        | false, F r ->
            let op = float_op op in
            finish (fun rt n ->
                let f = rt.frame and c = rt.floats.(slot) in
                let o = f.(off) in
                let s = ref (Array.unsafe_get c o) in
                for i = 0 to n - 1 do
                  f.(islot) <- i;
                  s := op !s (r rt)
                done;
                Array.unsafe_set c o !s)
        | _ -> raise Ineligible)
  in
  (* Any straight-line store sequence, run store by store in order. *)
  let straight ss =
    let accs = ref [] and loads = ref [] in
    let store (buf, index, value) =
      let l = ref [] in
      let cv = comp_value l value in
      let a = access ~write:true buf index in
      accs := (a :: !l) @ !accs;
      loads := !l @ !loads;
      let slot = a.m.slot and base = a.base and step = a.step in
      if is_int a.m.buf then
        let v = int_value ~i8:(a.m.buf.Buffer.dtype = D.I8) cv in
        fun rt ->
          let x = v rt in
          let f = rt.frame in
          Array.unsafe_set rt.ints.(slot) (f.(base) + (f.(step) * f.(islot))) x
      else
        let v = float_value cv in
        fun rt ->
          let x = v rt in
          let f = rt.frame in
          Array.unsafe_set rt.floats.(slot) (f.(base) + (f.(step) * f.(islot))) x
    in
    let cs = Array.of_list (List.map store ss) in
    let ns = Array.length cs in
    finish !accs ~loads:(List.length !loads) ~stores:ns (fun rt n ->
        let f = rt.frame in
        for i = 0 to n - 1 do
          f.(islot) <- i;
          for k = 0 to ns - 1 do
            cs.(k) rt
          done
        done)
  in
  let rec stores (s : Stmt.t) =
    match s with
    | Store { buf; index; value } -> [ (buf, index, value) ]
    | Seq ss -> List.concat_map stores ss
    | Nop -> []
    | _ -> raise Ineligible
  in
  let attempt f = try Some (f ()) with Ineligible -> None in
  match attempt (fun () -> stores body) with
  | None | Some [] -> None
  | Some ss -> (
      let acc =
        match ss with
        | [ (buf, index, Binop (op, Load (buf', index'), rest)) ]
          when String.equal buf buf' && Expr.equal index index'
               && Analysis.is_free_of v index ->
            attempt (fun () -> accumulator buf index op rest)
        | _ -> None
      in
      match acc with Some _ -> acc | None -> attempt (fun () -> straight ss))

(* --- the statement compiler ------------------------------------------- *)

let rec comp_stmt st sc (s : Stmt.t) : rt -> unit =
  match s with
  | Nop | Barrier -> fun _ -> ()
  | Seq ss -> (
      match List.map (comp_stmt st sc) ss with
      | [] -> fun _ -> ()
      | [ c ] -> c
      | cs ->
          let cs = Array.of_list cs in
          let n = Array.length cs in
          fun rt ->
            for i = 0 to n - 1 do
              cs.(i) rt
            done)
  | For { var; extent; body; kind = _ } -> (
      let slot = st.n_frame in
      st.n_frame <- st.n_frame + 1;
      let cext = comp_index st sc extent in
      let sc = { sc with vars = (var, slot) :: sc.vars } in
      let cbody = comp_stmt st sc body in
      let checked rt n =
        for i = 0 to n - 1 do
          rt.frame.(slot) <- i;
          cbody rt
        done
      in
      match comp_fast_loop st sc var slot body with
      | None -> fun rt -> checked rt (cext rt)
      | Some fast ->
          fun rt ->
            let n = cext rt in
            if not (fast rt n) then checked rt n)
  | If { cond; then_; else_ } -> (
      let tc = as_truth (comp_expr st sc cond) in
      let ct = comp_stmt st sc then_ in
      match else_ with
      | None -> fun rt -> if tc rt then ct rt
      | Some e ->
          let ce = comp_stmt st sc e in
          fun rt -> if tc rt then ct rt else ce rt)
  | Store { buf; index; value } ->
      comp_store st sc buf (comp_index st sc index) (comp_expr st sc value)
  | Alloc { buffer; body } -> (
      let slot = st.n_slots in
      st.n_slots <- st.n_slots + 1;
      let cbody =
        comp_stmt st
          { sc with allocs = (buffer.Buffer.name, (slot, buffer)) :: sc.allocs }
          body
      in
      (* Allocated on first entry, zero-filled on every later one. *)
      let elems = buffer.Buffer.elems in
      match buffer.Buffer.dtype with
      | D.I8 | D.I32 ->
          fun rt ->
            let a = rt.ints.(slot) in
            if Array.length a <> elems then rt.ints.(slot) <- Array.make elems 0
            else
              for k = 0 to elems - 1 do
                a.(k) <- 0
              done;
            cbody rt
      | D.F32 ->
          fun rt ->
            let a = rt.floats.(slot) in
            if Array.length a <> elems then rt.floats.(slot) <- Array.make elems 0.
            else Array.fill a 0 elems 0.;
            cbody rt)
  | Dma { dir; wram; wram_off; mram; mram_off; elems } -> (
      match sc.side with
      | Host_c -> fun _ -> err "Dma executed in host code"
      | Kernel_c ->
          let celems = comp_index st sc elems in
          let cwoff = comp_index st sc wram_off in
          let cmoff = comp_index st sc mram_off in
          let read_w = comp_read_elem st sc wram
          and write_w = comp_write_elem st sc wram
          and read_m = comp_read_elem st sc mram
          and write_m = comp_write_elem st sc mram in
          let per_element rt n woff moff =
            for i = 0 to n - 1 do
              match dir with
              | Stmt.Mram_to_wram ->
                  let v = read_m rt (moff + i) in
                  write_w rt (woff + i) v
              | Stmt.Wram_to_mram ->
                  let v = read_w rt (woff + i) in
                  write_m rt (moff + i) v
            done
          in
          (* A raw copy when both names resolve to distinct kernel-side
             memories and the range is in bounds; anything else (scope
             errors, out-of-bounds, a buffer copied onto itself) takes
             the per-element loop, which raises Eval's message at Eval's
             element. *)
          let bulk =
            match
              (resolve st sc wram ~write:false, resolve st sc mram ~write:false)
            with
            | Ok w, Ok m when w.slot <> m.slot ->
                let wt = w.buf.Buffer.dtype and mt = m.buf.Buffer.dtype in
                let copy =
                  match dir with
                  | Stmt.Mram_to_wram -> copier mt m.slot wt w.slot
                  | Stmt.Wram_to_mram -> copier wt w.slot mt m.slot
                in
                Some (w, m, copy)
            | _ -> None
          in
          match bulk with
          | None ->
              fun rt ->
                let n = celems rt in
                rt.counters.Eval.dma_ops <- rt.counters.Eval.dma_ops + 1;
                rt.counters.Eval.dma_elems <- rt.counters.Eval.dma_elems + n;
                let woff = cwoff rt in
                let moff = cmoff rt in
                per_element rt n woff moff
          | Some (w, m, copy) ->
              let wsize = w.buf.Buffer.elems and msize = m.buf.Buffer.elems in
              fun rt ->
                let n = celems rt in
                rt.counters.Eval.dma_ops <- rt.counters.Eval.dma_ops + 1;
                rt.counters.Eval.dma_elems <- rt.counters.Eval.dma_elems + n;
                let woff = cwoff rt in
                let moff = cmoff rt in
                if n >= 0 && woff >= 0 && moff >= 0 && woff + n <= wsize
                   && moff + n <= msize
                then
                  let wabs = (rt.dpu * w.dstride) + woff
                  and mabs = (rt.dpu * m.dstride) + moff in
                  match dir with
                  | Stmt.Mram_to_wram -> copy rt mabs wabs n
                  | Stmt.Wram_to_mram -> copy rt wabs mabs n
                else per_element rt n woff moff)
  | Xfer { dir; mode; host; host_off; dpu; mram; mram_off; elems; group_dpus = _ }
    -> (
      match sc.side with
      | Kernel_c -> fun _ -> err "Xfer executed in kernel code"
      | Host_c -> (
          let celems = comp_index st sc elems in
          let choff = comp_index st sc host_off in
          let cmoff = comp_index st sc mram_off in
          let cdpu = comp_index st sc dpu in
          let unknown what name rt =
            let _ = celems rt in
            let _ = choff rt in
            let _ = cmoff rt in
            err "Xfer references unknown %s buffer %s" what name
          in
          match
            (List.assoc_opt host st.host_slots, List.assoc_opt mram st.mram_slots)
          with
          | None, _ -> unknown "host" host
          | Some _, None -> unknown "MRAM" mram
          | Some (hslot, hb), Some (mslot, mb) ->
              let hsize = hb.Buffer.elems and msize = mb.Buffer.elems in
              let copy =
                match dir with
                | Stmt.To_dpu -> copier hb.Buffer.dtype hslot mb.Buffer.dtype mslot
                | Stmt.From_dpu -> copier mb.Buffer.dtype mslot hb.Buffer.dtype hslot
              in
              let check_mram moff n =
                if moff < 0 || moff + n > msize then
                  err "Xfer %s out of bounds (%d, off=%d, n=%d, size=%d)" mram
                    msize moff n msize
              in
              let move rt d hoff moff n =
                check_mram moff n;
                match dir with
                | Stmt.To_dpu -> copy rt hoff ((d * msize) + moff) n
                | Stmt.From_dpu -> copy rt ((d * msize) + moff) hoff n
              in
              fun rt ->
                let n = celems rt in
                let hoff = choff rt in
                let moff = cmoff rt in
                if hoff < 0 || hoff + n > hsize then
                  err "Xfer %s out of bounds (%s, off=%d, n=%d, size=%d)" host
                    (T.Shape.to_string (T.Tensor.shape rt.host.(hslot)))
                    hoff n hsize;
                let c = rt.counters in
                (match dir with
                | Stmt.To_dpu ->
                    c.Eval.xfer_elems_h2d <-
                      c.Eval.xfer_elems_h2d
                      + n
                        *
                        (match mode with
                        | Stmt.Broadcast_x -> rt.ndpus
                        | Stmt.Copy | Stmt.Push -> 1)
                | Stmt.From_dpu -> c.Eval.xfer_elems_d2h <- c.Eval.xfer_elems_d2h + n);
                match mode with
                | Stmt.Broadcast_x ->
                    if dir = Stmt.From_dpu then
                      err "Broadcast_x only supports host-to-DPU";
                    for d = 0 to rt.ndpus - 1 do
                      move rt d hoff moff n
                    done
                | Stmt.Copy | Stmt.Push ->
                    let d = cdpu rt in
                    if d < 0 || d >= rt.ndpus then
                      err "Xfer to out-of-range DPU %d" d;
                    move rt d hoff moff n))
  | Launch kname -> (
      match Program.kernel_of st.prog kname with
      | None -> fun _ -> err "launch of unknown kernel %s" kname
      | Some k ->
          (* Kernels start with an empty variable scope but inherit the
             Alloc chain active at the Launch site (Eval's dynamic wram
             list), hence per-site compilation. *)
          let ck =
            comp_kernel st
              { vars = []; allocs = sc.allocs; side = Kernel_c; fast_load = None }
              k.Program.body
          in
          fun rt ->
            let saved = rt.dpu in
            ck rt 0;
            rt.dpu <- saved)

(* The block-bound loop spine accumulating the linearized DPU id;
   mirrors Eval.run_kernel's [go]. *)
and comp_kernel st sc (s : Stmt.t) : rt -> int -> unit =
  match s with
  | For { var; extent; kind = Bound (Block_x | Block_y | Block_z); body } ->
      let slot = st.n_frame in
      st.n_frame <- st.n_frame + 1;
      let cext = comp_index st sc extent in
      let cbody = comp_kernel st { sc with vars = (var, slot) :: sc.vars } body in
      fun rt dpu_acc ->
        let n = cext rt in
        for i = 0 to n - 1 do
          rt.frame.(slot) <- i;
          cbody rt ((dpu_acc * n) + i)
        done
  | s ->
      let c = comp_stmt st sc s in
      fun rt dpu_acc ->
        rt.dpu <- dpu_acc;
        c rt

(* --- whole-program staging and execution ------------------------------ *)

(* The MRAM, WRAM and frame storage of a finished run, kept for the
   next run of the same staged program: allocating megabytes of arena
   per run costs more in major-heap work than refilling them. *)
type storage = { s_ints : int array array; s_floats : float array array; s_frame : int array }

type compiled = {
  cprog : Program.t;
  c_n_frame : int;
  c_n_slots : int;
  c_host : rt -> unit;
  c_written : bool array;  (* host slot -> some statement may write it *)
  spare : storage option Atomic.t;
      (* taken by one run at a time; a concurrent run allocates its own *)
}

let compile (p : Program.t) : compiled =
  (match Program.validate p with
  | Ok () -> ()
  | Error m -> err "invalid program: %s" m);
  let n_host = List.length p.host_buffers in
  let slots base = List.mapi (fun i (b : Buffer.t) -> (b.Buffer.name, (base + i, b))) in
  let st =
    {
      prog = p;
      host_slots = slots 0 p.host_buffers;
      mram_slots = slots n_host p.mram_buffers;
      n_frame = 0;
      n_slots = n_host + List.length p.mram_buffers;
    }
  in
  let c_host =
    comp_stmt st { vars = []; allocs = []; side = Host_c; fast_load = None } p.host
  in
  (* Names a statement may write.  Kernel stores and DMAs never reach a
     host buffer (they raise first), but listing them keeps this a plain
     syntactic over-approximation. *)
  let written = Hashtbl.create 8 in
  let note (s : Stmt.t) =
    match s with
    | Store { buf; _ } -> Hashtbl.replace written buf ()
    | Xfer { dir = From_dpu; host; _ } -> Hashtbl.replace written host ()
    | Dma { wram; mram; _ } ->
        Hashtbl.replace written wram ();
        Hashtbl.replace written mram ()
    | _ -> ()
  in
  Stmt.iter note p.host;
  List.iter (fun (k : Program.kernel) -> Stmt.iter note k.Program.body) p.kernels;
  {
    cprog = p;
    c_n_frame = st.n_frame;
    c_n_slots = st.n_slots;
    c_host;
    c_written =
      Array.of_list
        (List.map (fun (b : Buffer.t) -> Hashtbl.mem written b.Buffer.name) p.host_buffers);
    spare = Atomic.make None;
  }

(* Fills [a] with [v] (typed, so no write barrier), or makes a fresh
   array when [a] has the wrong length. *)
let refill_ints (a : int array) len (v : int) =
  if Array.length a <> len then Array.make len v
  else begin
    for k = 0 to len - 1 do
      a.(k) <- v
    done;
    a
  end

let refill_floats (a : float array) len (v : float) =
  if Array.length a <> len then Array.make len v
  else begin
    Array.fill a 0 len v;
    a
  end

let run_compiled c ~inputs =
  let p = c.cprog in
  (* The compiled load/store closures specialize on the declared buffer
     dtype; an input tensor of a different dtype would box differently
     in Eval, so those (pathological) runs take the interpreter. *)
  let dtypes_ok =
    List.for_all
      (fun (b : Buffer.t) ->
        match List.assoc_opt b.Buffer.name inputs with
        | Some t -> D.equal (T.Tensor.dtype t) b.Buffer.dtype
        | None -> true)
      p.Program.host_buffers
  in
  if not dtypes_ok then Eval.run_counted p ~inputs
  else begin
    (* An input the program never writes is read in place and returned
       as is; every other host buffer is the run's own copy. *)
    let host =
      Array.of_list
        (List.mapi
           (fun i (b : Buffer.t) ->
             match List.assoc_opt b.Buffer.name inputs with
             | Some t ->
                 if T.Tensor.size t <> b.Buffer.elems then
                   err "input %s has %d elements, buffer declares %d"
                     b.Buffer.name (T.Tensor.size t) b.Buffer.elems;
                 if c.c_written.(i) then T.Tensor.copy t else t
             | None -> flat_tensor b)
           p.Program.host_buffers)
    in
    let { s_ints = ints; s_floats = floats; s_frame = frame } =
      match Atomic.exchange c.spare None with
      | Some s -> s
      | None ->
          {
            s_ints = Array.make c.c_n_slots [||];
            s_floats = Array.make c.c_n_slots [||];
            s_frame = Array.make c.c_n_frame 0;
          }
    in
    Array.iteri
      (fun i t ->
        match T.Tensor.view t with
        | T.Tensor.Ints a -> ints.(i) <- a
        | T.Tensor.Floats a -> floats.(i) <- a)
      host;
    (* One arena per MRAM buffer, poisoned with Eval's constants so
       untransferred padding is caught identically by both executors.
       WRAM arrays left by a previous run are zero-filled on entry. *)
    let ndpus = Program.dpus_used p in
    List.iteri
      (fun j (b : Buffer.t) ->
        let slot = Array.length host + j and len = ndpus * b.Buffer.elems in
        match b.Buffer.dtype with
        | D.I8 -> ints.(slot) <- refill_ints ints.(slot) len 77
        | D.I32 -> ints.(slot) <- refill_ints ints.(slot) len 1_000_003
        | D.F32 -> floats.(slot) <- refill_floats floats.(slot) len 1e9)
      p.Program.mram_buffers;
    let rt =
      {
        host;
        ints;
        floats;
        ndpus;
        frame;
        dpu = 0;
        counters =
          {
            Eval.kernel_stores = 0;
            kernel_loads = 0;
            dma_elems = 0;
            dma_ops = 0;
            xfer_elems_h2d = 0;
            xfer_elems_d2h = 0;
          };
      }
    in
    c.c_host rt;
    (* The host arrays now belong to the caller. *)
    Array.iteri
      (fun i _ ->
        ints.(i) <- [||];
        floats.(i) <- [||])
      host;
    Atomic.set c.spare (Some { s_ints = ints; s_floats = floats; s_frame = frame });
    ( List.mapi
        (fun i (b : Buffer.t) -> (b.Buffer.name, host.(i)))
        p.Program.host_buffers,
      rt.counters )
  end

let run_counted p ~inputs =
  match backend () with
  | Interp -> Eval.run_counted p ~inputs
  | Compiled -> run_compiled (compile p) ~inputs

let run p ~inputs = fst (run_counted p ~inputs)
