module Op = Imtp_workload.Op
module S = Imtp_schedule.Sched
module E = Imtp_tir.Expr
module St = Imtp_tir.Stmt
module B = Imtp_tir.Buffer
module V = Imtp_tir.Var
module P = Imtp_tir.Program
module Simp = Imtp_tir.Simplify

exception Lower_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Lower_error m)) fmt

type options = {
  bulk_transfer : bool;
  parallel_transfer : bool;
  skip_input_transfer : string list;
  skip_output_transfer : bool;
      (* Omit the device-to-host gather of the output: the graph
         compiler's MRAM-residency path, where a consumer kernel in the
         same combined program reads the tile in place.  Ignored for
         rfactor schedules (partials must reach the host). *)
}

let default_options =
  {
    bulk_transfer = true;
    parallel_transfer = true;
    skip_input_transfer = [];
    skip_output_transfer = false;
  }

let partial_buffer_name = "P_partial"

(* Expression constructors that fold as they build: given operands
   [Simplify.expr] returns unchanged, each returns what [Simplify.expr]
   returns for the node, so the emitted program needs no cleanup walk.
   (Module-level operators would shadow Stdlib's.) *)
let ei = E.int
let ( +: ) = Simp.binop E.Add
let ( -: ) = Simp.binop E.Sub
let ( *: ) = Simp.binop E.Mul
let ( <: ) = Simp.cmp E.Lt

let mram_name t = t ^ "_m"
let wram_name t = t ^ "_w"
let kernel_name = "main_kernel"

(* --- statement emission ------------------------------------------------ *)

(* Loops and guards are emitted the way the simplifier's statement
   walk would leave them.  A serial loop of extent 1 emits no loop: its body is built
   with the index bound to 0 ([index]) and stands in its place, and a
   loop of non-positive extent emits nothing. *)
let unit_loop (kind : St.loop_kind) extent =
  match kind with
  | St.Serial -> extent = 1
  | St.Unrolled | St.Host_parallel _ | St.Bound _ -> false

let index ?(kind = St.Serial) var extent =
  if unit_loop kind extent then ei 0 else E.var var

let loop ?(kind = St.Serial) var extent body =
  if extent <= 0 then St.Nop
  else if unit_loop kind extent then body
  else St.For { var; extent = ei extent; kind; body }

(* [body] under the conjunction of [conds], each of which reads a
   loop index.  The guard is an [If] even when binding extent-1 loop
   indices to 0 folds it to a constant: only a condition that reads no
   loop index is decided here (by not passing it), which keeps every
   lowered program the one test/golden_lowering.txt pins. *)
let guard conds body =
  match conds with
  | [] -> body
  | c :: rest -> St.if_ (List.fold_left Simp.and_ c rest) body

(* Schedule facts about one operator axis, derived once per lowering. *)
type axis_info = {
  aname : string;
  reduction : bool;
  segs : S.loop list;  (* outermost (largest stride) first. *)
  block_segs : S.loop list;  (* the DPU-bound ones among [segs]. *)
  extent : int;
  misaligned : bool;  (* the segments over-cover the extent. *)
  mram_ext : int;  (* product of the non-block segment extents. *)
  deepest : int;  (* loop position of the innermost segment. *)
}

type ctx = {
  sched : S.t;
  op : Op.t;
  opts : options;
  positions : int array;  (* loop position by [lid]; -1 when absent. *)
  kvars : V.t array;  (* kernel loop variable by [lid]. *)
  kidx : E.t array;  (* kernel loop index by [lid] (see [index]). *)
  hvars : V.t array;  (* host loop variable of a DPU-bound loop, by [lid]. *)
  loop_axis : axis_info array;  (* a loop's axis, by [lid]. *)
  caches_at : S.cache list array;  (* the caches placed at a loop, by [lid]. *)
  blocks : S.loop list;  (* the DPU-bound loops, outermost first. *)
  block_strides : int list;  (* their row-major strides in the grid. *)
  axes : axis_info list;  (* in the op's axis order. *)
  tensors : (string * axis_info list) list;  (* output, then inputs. *)
}

(* --- schedule queries ------------------------------------------------ *)

let pos ctx (l : S.loop) =
  let lid = l.S.lid in
  let i = if lid < Array.length ctx.positions then ctx.positions.(lid) else -1 in
  if i < 0 then raise Not_found else i

let axis_of ctx (l : S.loop) = ctx.loop_axis.(l.S.lid)

let non_block_segs a = List.filter (fun l -> not (S.is_block l)) a.segs

let deeper_segs ctx loc a =
  let p = pos ctx loc in
  List.filter (fun l -> pos ctx l > p) a.segs

let extent_product = List.fold_left (fun acc (l : S.loop) -> acc * l.S.extent) 1
let cache_ext ctx loc a = extent_product (deeper_segs ctx loc a)

let kidx ctx (l : S.loop) = ctx.kidx.(l.S.lid)
let hvar ctx (l : S.loop) = ctx.hvars.(l.S.lid)

(* Σ index(l)·stride(l) over the given segments. *)
let seg_sum idx segs =
  List.fold_left
    (fun acc (l : S.loop) -> acc +: (idx l *: ei l.S.stride))
    (ei 0) segs

(* Row-major strides for a dims list given per-dim extents. *)
let strides_of exts =
  fst (List.fold_right (fun e (ss, p) -> (p :: ss, p * e)) exts ([], 1))

let tensor_dims ctx t =
  let rec find = function
    | [] -> err "unknown tensor %s" t
    | (n, dims) :: rest -> if String.equal n t then dims else find rest
  in
  find ctx.tensors

let mram_tile_elems ctx t =
  List.fold_left (fun acc a -> acc * a.mram_ext) 1 (tensor_dims ctx t)

let host_elems ctx t =
  List.fold_left (fun acc a -> acc * a.extent) 1 (tensor_dims ctx t)

let output_name ctx = fst ctx.op.Op.output

(* The index variable standing for [a] in a nest over [dims] whose
   variables are [vars], position by position. *)
let var_of_dim dims vars a =
  let rec go ds vs =
    match (ds, vs) with
    | d :: _, v :: _ when d == a -> v
    | _ :: ds', _ :: vs' -> go ds' vs'
    | _, _ -> assert false
  in
  go dims vars

(* --- structural checks ------------------------------------------------ *)

let is_thread (l : S.loop) =
  match l.S.annot with
  | S.Bound S.Thread_x -> true
  | S.Bound _ | S.Serial | S.Unrolled | S.Host_parallel _ -> false

let thread_reduction ctx =
  match S.thread_loop ctx.sched with
  | Some l -> (axis_of ctx l).reduction
  | None -> false

let hierarchical ctx = S.rfactor_loop ctx.sched <> None

(* The epilogue runs inside the kernel (at the write-cache flush) unless
   the schedule is hierarchical — rfactor partials only become the full
   accumulated value on the host — or a tasklet-level reduction, whose
   combine step applies it instead. *)
let epi_in_kernel ctx =
  ctx.op.Op.epilogue <> None
  && (not (hierarchical ctx))
  && not (thread_reduction ctx)

let epi_wram_name t = t ^ "_we"

let cache_of ctx t =
  match
    List.find_opt (fun (c : S.cache) -> String.equal c.S.tensor t) (S.caches ctx.sched)
  with
  | Some c -> c
  | None -> err "tensor %s has no cache declaration" t

let cache_loc (c : S.cache) =
  match c.S.at with
  | Some l -> l
  | None -> err "cache for %s has no location (compute_at missing)" c.S.tensor

let check_structure ctx =
  let order = S.order ctx.sched in
  (* blocks prefix, then optional thread, then serial/unrolled. *)
  let rec check_prefix = function
    | l :: rest when S.is_block l -> check_prefix rest
    | rest -> rest
  in
  let after_blocks = check_prefix order in
  let after_thread =
    match after_blocks with l :: rest when is_thread l -> rest | rest -> rest
  in
  List.iter
    (fun (l : S.loop) ->
      match l.S.annot with
      | S.Serial | S.Unrolled | S.Host_parallel _ -> ()
      | S.Bound _ ->
          err "loop %s: bound loops must precede serial kernel loops" l.S.lname)
    after_thread;
  (* per axis: the non-block segments must jointly cover a contiguous
     [0, tile) range with unit granularity, so that per-DPU MRAM tiles
     are contiguous slices of the axis ("local padding", §5.3.1).
     Extent-1 segments contribute nothing and are ignored. *)
  let spans_unit segments =
    let live =
      List.sort
        (fun (x : S.loop) (y : S.loop) -> Int.compare x.S.stride y.S.stride)
        (List.filter (fun (l : S.loop) -> l.S.extent > 1) segments)
    in
    let rec go base = function
      | [] -> true
      | (l : S.loop) :: rest -> l.S.stride = base && go (base * l.S.extent) rest
    in
    go 1 live
  in
  List.iter
    (fun a ->
      if not (spans_unit (non_block_segs a)) then
        err "axis %s: DPU-bound segments must be its outermost segments"
          a.aname;
      (* On a reduction axis the block segment's stride must also meet
         the inner span exactly: overlapping per-DPU tiles would count
         interior elements twice, and the boundary guards only clamp
         the tail.  (Spatial overlap merely rewrites equal values.) *)
      if a.reduction && not (spans_unit a.segs) then
        err "reduction axis %s: segments overlap; split factors must tile \
             the axis without double coverage"
          a.aname)
    ctx.axes;
  (* reduction-axis block segment must be the rfactor loop. *)
  let red_blocks =
    List.filter (fun l -> (axis_of ctx l).reduction) (S.block_loops ctx.sched)
  in
  (match (red_blocks, S.rfactor_loop ctx.sched) with
  | [], None -> ()
  | [ l ], Some rf when l.S.lid = rf.S.lid -> ()
  | [ _ ], Some _ | [ _ ], None ->
      err "a DPU-bound reduction segment requires rfactor on that segment"
  | _ :: _ :: _, _ -> err "at most one DPU-bound reduction segment is supported"
  | [], Some _ -> err "rfactor loop must be DPU-bound");
  (* caches: all inputs read-cached, output write-cached, locations ok. *)
  let check_cache t rw =
    let c = cache_of ctx t in
    if c.S.rw <> rw then err "cache for %s has wrong direction" t;
    let loc = cache_loc c in
    if S.is_block loc then err "cache for %s placed at a DPU-bound loop" t;
    if is_thread loc && not (thread_reduction ctx) then
      err "cache for %s placed at the tasklet loop" t;
    (* segments covered by the cache must be each axis's innermost
       ones, i.e. they telescope contiguously from stride 1. *)
    List.iter
      (fun a ->
        if not (spans_unit (deeper_segs ctx loc a)) then
          err "cache for %s at %s: covered segments of axis %s are not innermost"
            t loc.S.lname a.aname)
      (tensor_dims ctx t)
  in
  (* Only body-referenced inputs must be read-cached: epilogue-only
     inputs are staged by dedicated DMAs at the write-cache site, and
     unreferenced inputs never reach the kernel. *)
  List.iter (fun t -> check_cache t S.Read) (Op.body_refs ctx.op);
  check_cache (output_name ctx) S.Write;
  (* write cache must enclose all non-block reduction segments. *)
  let wc = cache_of ctx (output_name ctx) in
  let wloc = cache_loc wc in
  if not (thread_reduction ctx) then
    List.iter
      (fun a ->
        if a.reduction then
          List.iter
            (fun (l : S.loop) ->
              if pos ctx l <= pos ctx wloc then
                err
                  "write cache at %s does not enclose reduction segment %s"
                  wloc.S.lname l.S.lname)
            (non_block_segs a))
      ctx.axes
  else begin
    if Op.spatial_axes ctx.op <> [] then
      err "tasklet-level reduction requires an op with no spatial axes";
    match wc.S.at with
    | Some l when is_thread l -> ()
    | Some _ | None ->
        err "tasklet-level reduction requires the write cache at the tasklet loop"
  end

(* --- kernel emission --------------------------------------------------- *)

(* Guard ordering: deepest-segment axis first (Fig. 8 lists the
   innermost boundary condition first). *)
let misaligned_axes dims =
  List.filter (fun a -> a.misaligned) dims
  |> List.sort (fun a b -> Int.compare b.deepest a.deepest)

(* Per-element guarded DMA between a cache tile and the MRAM tile.
   [wname] overrides the WRAM buffer name (epilogue staging tiles live
   beside any regular read cache of the same tensor). *)
let cache_dma ?wname ctx (dir : St.dma_dir) t loc =
  let wram_buf = match wname with Some w -> w | None -> wram_name t in
  let dims = tensor_dims ctx t in
  let cexts = List.map (cache_ext ctx loc) dims in
  let mexts = List.map (fun a -> a.mram_ext) dims in
  let rvars = List.map (fun a -> V.fresh ("c" ^ a.aname)) dims in
  let ridx = List.map2 index rvars cexts in
  let wstrides = strides_of cexts and mstrides = strides_of mexts in
  let p = pos ctx loc in
  let not_deeper a = List.filter (fun l -> pos ctx l <= p) a.segs in
  let fixed_global a = seg_sum (kidx ctx) (not_deeper a) in
  let wram_off =
    List.fold_left2 (fun acc ri ws -> acc +: (ri *: ei ws)) (ei 0) ridx wstrides
  in
  let mram_off =
    List.fold_left2
      (fun acc (a, ri) ms ->
        let fixed_local =
          seg_sum (kidx ctx)
            (List.filter (fun l -> (not (S.is_block l)) && pos ctx l <= p) a.segs)
        in
        acc +: ((fixed_local +: ri) *: ei ms))
      (ei 0) (List.combine dims ridx) mstrides
  in
  let guards =
    List.map
      (fun a -> fixed_global a +: var_of_dim dims ridx a <: ei a.extent)
      (misaligned_axes dims)
  in
  let dma =
    St.Dma
      {
        dir;
        wram = wram_buf;
        wram_off;
        mram = mram_name t;
        mram_off;
        elems = ei 1;
      }
  in
  List.fold_right2 loop rvars cexts (guard guards dma)

let wram_index ctx t =
  let loc = cache_loc (cache_of ctx t) in
  let covered = List.map (deeper_segs ctx loc) (tensor_dims ctx t) in
  let cexts = List.map extent_product covered in
  List.fold_left2
    (fun acc segs ws -> acc +: (seg_sum (kidx ctx) segs *: ei ws))
    (ei 0) covered (strides_of cexts)

let bin_to_e = function
  | Op.Add -> E.Add
  | Op.Sub -> E.Sub
  | Op.Mul -> E.Mul
  | Op.Div -> E.Div
  | Op.Min -> E.Min
  | Op.Max -> E.Max

let const_expr v =
  match v with
  | Imtp_tensor.Value.Int n -> ei n
  | Imtp_tensor.Value.Float f -> E.float f

let rec elem_expr ctx (e : Op.elem) : E.t =
  match e with
  | Op.Const v -> const_expr v
  | Op.Acc -> err "Acc is only valid in an epilogue"
  | Op.Ref t -> E.load (wram_name t) (wram_index ctx t)
  | Op.Bin (op, a, b) ->
      let x = elem_expr ctx a and y = elem_expr ctx b in
      Simp.binop (bin_to_e op) x y

(* Epilogue expression: [acc] is the fully accumulated output value at
   the current point; [ref_of] resolves an input reference to a load. *)
let rec epi_expr ~acc ~ref_of (e : Op.elem) : E.t =
  match e with
  | Op.Const v -> const_expr v
  | Op.Acc -> acc
  | Op.Ref t -> ref_of t
  | Op.Bin (op, a, b) ->
      Simp.binop (bin_to_e op) (epi_expr ~acc ~ref_of a) (epi_expr ~acc ~ref_of b)

(* In-kernel epilogue: a loop nest over the write-cache tile applying
   the epilogue to each output element right before the tile is flushed
   to MRAM.  Guarded exactly like the flush DMA so padding elements of
   partial tiles are never touched (they may hold poison, and [Div]
   must not see a garbage denominator). *)
let epilogue_kernel_stmt ctx (e : Op.elem) (wloc : S.loop) =
  let out = output_name ctx in
  let out_dims = tensor_dims ctx out in
  let cexts = List.map (cache_ext ctx wloc) out_dims in
  let wstrides = strides_of cexts in
  let rvars = List.map (fun a -> V.fresh ("e" ^ a.aname)) out_dims in
  let ridx = List.map2 index rvars cexts in
  let rv_of = var_of_dim out_dims ridx in
  let p = pos ctx wloc in
  let fixed_global a =
    seg_sum (kidx ctx) (List.filter (fun l -> pos ctx l <= p) a.segs)
  in
  let woff =
    List.fold_left2 (fun acc ri ws -> acc +: (ri *: ei ws)) (ei 0) ridx wstrides
  in
  let ref_of t =
    let tdims = tensor_dims ctx t in
    let tcexts = List.map (cache_ext ctx wloc) tdims in
    let tstrides = strides_of tcexts in
    let off =
      List.fold_left2
        (fun acc a ts -> acc +: (rv_of a *: ei ts))
        (ei 0) tdims tstrides
    in
    E.load (epi_wram_name t) off
  in
  let acc = E.load (wram_name out) woff in
  let stored = St.store (wram_name out) woff (epi_expr ~acc ~ref_of e) in
  let guards =
    List.map
      (fun a -> fixed_global a +: rv_of a <: ei a.extent)
      (misaligned_axes out_dims)
  in
  List.fold_right2 loop rvars cexts (guard guards stored)

let compute_stmt ctx =
  let out = output_name ctx in
  let wc = wram_name out in
  let widx = wram_index ctx out in
  let value = elem_expr ctx ctx.op.Op.body in
  let stored =
    if Op.has_reduction ctx.op then
      St.store wc widx (E.load wc widx +: value)
    else St.store wc widx value
  in
  guard
    (List.map
       (fun a -> seg_sum (kidx ctx) a.segs <: ei a.extent)
       (misaligned_axes ctx.axes))
    stored

let wram_buffer ?wname ctx t loc =
  let elems =
    List.fold_left (fun acc a -> acc * cache_ext ctx loc a) 1 (tensor_dims ctx t)
  in
  let name = match wname with Some w -> w | None -> wram_name t in
  B.create name ctx.op.Op.dtype ~elems:(max 1 elems) B.Wram

let init_write_cache ctx (buf : B.t) =
  if Op.has_reduction ctx.op then begin
    let v = V.fresh "z" in
    loop v buf.B.elems (St.store buf.B.name (index v buf.B.elems) (ei 0))
  end
  else St.Nop

(* Wrap [inner] with the caches located at loop [l]. *)
let wrap_caches ctx (l : S.loop) inner =
  match ctx.caches_at.(l.S.lid) with
  | [] -> inner
  | here ->
      let reads = List.filter (fun (c : S.cache) -> c.S.rw = S.Read) here in
      let writes = List.filter (fun (c : S.cache) -> c.S.rw = S.Write) here in
      (* Epilogue machinery attaches to the write-cache site: stage each
         epilogue-referenced input into its own WRAM tile, apply the
         epilogue in place, then let the regular flush DMA run. *)
      let epi =
        if epi_in_kernel ctx && writes <> [] then ctx.op.Op.epilogue else None
      in
      let epi_reads = match epi with Some _ -> Op.epilogue_refs ctx.op | None -> [] in
      let body =
        St.seq
          (List.map (fun (c : S.cache) -> cache_dma ctx St.Mram_to_wram c.S.tensor l) reads
          @ List.concat_map
              (fun (c : S.cache) ->
                [ init_write_cache ctx (wram_buffer ctx c.S.tensor l) ])
              writes
          @ List.map
              (fun t -> cache_dma ~wname:(epi_wram_name t) ctx St.Mram_to_wram t l)
              epi_reads
          @ [ inner ]
          @ (match epi with
            | Some e -> [ epilogue_kernel_stmt ctx e l ]
            | None -> [])
          @ List.map
              (fun (c : S.cache) -> cache_dma ctx St.Wram_to_mram c.S.tensor l)
              writes)
      in
      let body =
        List.fold_right
          (fun t acc ->
            St.Alloc { buffer = wram_buffer ~wname:(epi_wram_name t) ctx t l; body = acc })
          epi_reads body
      in
      List.fold_right
        (fun (c : S.cache) acc -> St.Alloc { buffer = wram_buffer ctx c.S.tensor l; body = acc })
        here body

let stmt_kind_of (l : S.loop) : St.loop_kind =
  match l.S.annot with
  | S.Serial -> St.Serial
  | S.Unrolled -> St.Unrolled
  (* [parallel] is a host post-processing hint (Table 2): inside the
     kernel the loop runs serially per tasklet; the thread count feeds
     the host final-reduction loop instead (see [host_par_threads]). *)
  | S.Host_parallel _ -> St.Serial
  | S.Bound S.Block_x -> St.Bound St.Block_x
  | S.Bound S.Block_y -> St.Bound St.Block_y
  | S.Bound S.Block_z -> St.Bound St.Block_z
  | S.Bound S.Thread_x -> St.Bound St.Thread_x

(* The kernel loop of schedule loop [l] around [body], which reads its
   index as [kidx ctx l]. *)
let kernel_loop ctx (l : S.loop) body =
  loop ~kind:(stmt_kind_of l) ctx.kvars.(l.S.lid) l.S.extent body

(* Tasklet-level parallel reduction (no spatial axes): each tasklet
   accumulates a private partial, stores it to a shared WRAM slot,
   tasklet 0 combines after a barrier and DMAs the single result out. *)
let emit_thread_reduction ctx (thr : S.loop) rest =
  let out = output_name ctx in
  let partials =
    B.create (out ^ "_partials") ctx.op.Op.dtype ~elems:thr.S.extent B.Wram
  in
  let wc_buf = B.create (wram_name out) ctx.op.Op.dtype ~elems:1 B.Wram in
  let rec emit_inner = function
    | [] -> compute_stmt ctx
    | (l : S.loop) :: ls ->
        let inner = emit_inner ls in
        kernel_loop ctx l (wrap_caches ctx l inner)
  in
  (* Read caches placed at the thread loop itself: each tasklet stages
     its own MRAM slice before accumulating.  (The write cache at this
     loop is the hand-built partial slot above, not a generic cache.) *)
  let reads_at_thr =
    List.filter (fun (c : S.cache) -> c.S.rw = S.Read) ctx.caches_at.(thr.S.lid)
  in
  let with_reads body =
    List.fold_right
      (fun (c : S.cache) acc ->
        St.Alloc
          {
            buffer = wram_buffer ctx c.S.tensor thr;
            body =
              St.seq [ cache_dma ctx St.Mram_to_wram c.S.tensor thr; acc ];
          })
      reads_at_thr body
  in
  let per_tasklet =
    St.Alloc
      {
        buffer = wc_buf;
        body =
          St.seq
            [
              St.store wc_buf.B.name (ei 0) (ei 0);
              with_reads (emit_inner rest);
              St.store partials.B.name (kidx ctx thr)
                (E.load wc_buf.B.name (ei 0));
            ];
      }
  in
  let t = V.fresh "t" in
  (* Scalar epilogue (no spatial axes, so no input refs are possible):
     applied by tasklet 0 once the partials are combined.  Hierarchical
     schedules defer it to the host's final reduction instead. *)
  let epi_store =
    match ctx.op.Op.epilogue with
    | Some e when not (hierarchical ctx) ->
        [
          St.store partials.B.name (ei 0)
            (epi_expr
               ~acc:(E.load partials.B.name (ei 0))
               ~ref_of:(fun t -> err "epilogue input %s in a scalar reduction" t)
               e);
        ]
    | Some _ | None -> []
  in
  let combine =
    let n = thr.S.extent - 1 in
    St.seq
      ([
         St.Barrier;
         loop t n
           (St.store partials.B.name (ei 0)
              (E.load partials.B.name (ei 0)
              +: E.load partials.B.name (index t n +: ei 1)));
       ]
      @ epi_store
      @ [
          St.Dma
          {
            dir = St.Wram_to_mram;
            wram = partials.B.name;
            wram_off = ei 0;
            mram = mram_name out;
            mram_off = ei 0;
            elems = ei 1;
          };
        ])
  in
  St.Alloc
    {
      buffer = partials;
      body = St.seq [ kernel_loop ctx thr per_tasklet; combine ];
    }

let emit_kernel ctx : P.kernel =
  let rec emit = function
    | [] -> compute_stmt ctx
    | (l : S.loop) :: rest ->
        if is_thread l && thread_reduction ctx then emit_thread_reduction ctx l rest
        else begin
          let inner = emit rest in
          kernel_loop ctx l (wrap_caches ctx l inner)
        end
  in
  { P.kname = kernel_name; body = emit (S.order ctx.sched) }

(* --- host transfers ---------------------------------------------------- *)

(* The flat DPU id of the current grid point, [idx] giving each block
   loop's index. *)
let dpu_expr ctx idx =
  List.fold_left2
    (fun acc (l : S.loop) st -> acc +: (idx l *: ei st))
    (ei 0) ctx.blocks ctx.block_strides

let blockfix idx a = seg_sum idx a.block_segs

(* The index of host loop [l] run serially (see [index]). *)
let host_index ctx ?kind (l : S.loop) = index ?kind (hvar ctx l) l.S.extent

(* Transfer of one tensor between host and MRAM tiles.  [into_partial]
   redirects the host side into the gathered-partials buffer. *)
let tensor_xfer ctx (dir : St.xfer_dir) t ~into_partial =
  let dims = tensor_dims ctx t in
  let mexts = List.map (fun a -> a.mram_ext) dims in
  let hexts = List.map (fun a -> a.extent) dims in
  let mstrides = strides_of mexts and hstrides = strides_of hexts in
  let has_block = List.exists (fun a -> a.block_segs <> []) dims in
  let hidx = host_index ctx in
  let mode : St.xfer_mode =
    if not ctx.opts.parallel_transfer then St.Copy
    else if has_block || into_partial then St.Push
    else if dir = St.From_dpu then St.Push
      (* broadcast only exists host-to-DPU; an unpartitioned tensor is
         replicated across the grid, so read it back from DPU 0. *)
    else St.Broadcast_x
  in
  (* Coalescing: with bulk transfer, merge the maximal fully-covered,
     aligned suffix of dims into the row; the row dim itself may be
     clamped.  Without bulk transfer, emit per-element transfers. *)
  let n = List.length dims in
  let full_aligned i =
    let a = List.nth dims i in
    (not a.misaligned) && a.mram_ext = a.extent
  in
  let row_start =
    if not ctx.opts.bulk_transfer then n
    else if n = 0 then 0
    else begin
      (* smallest m such that all dims after m are fully covered. *)
      let m = ref (n - 1) in
      while !m > 0 && full_aligned !m do
        decr m
      done;
      !m
    end
  in
  (* Loop dims: indices < row_start get an explicit loop var. *)
  let loop_dims = List.filteri (fun i _ -> i < row_start) dims in
  let loop_mexts = List.filteri (fun i _ -> i < row_start) mexts in
  let rvars = List.map (fun a -> V.fresh ("t" ^ a.aname)) loop_dims in
  let ridx = List.map2 index rvars loop_mexts in
  let rv_of a =
    let rec go ds rs =
      match (ds, rs) with
      | d :: _, r :: _ when d == a -> Some r
      | _ :: ds', _ :: rs' -> go ds' rs'
      | _, _ -> None
    in
    go loop_dims ridx
  in
  let idx_of a =
    let fix = blockfix hidx a in
    match rv_of a with Some ri -> fix +: ri | None -> fix
  in
  let local_of a = match rv_of a with Some ri -> ri | None -> ei 0 in
  (* Row length: product of mram extents from row_start, clamped on the
     row dim when it is misaligned or partially covered.  The clamp's
     guard is statically true, and dropped, when the row dim has no
     DPU-bound segment. *)
  let suffix_prod l = List.fold_left ( * ) 1 (List.filteri (fun i _ -> i > l) mexts) in
  let elems, row_guard =
    if row_start >= n then (ei 1, [])
    else begin
      let a = List.nth dims row_start in
      let tail = suffix_prod row_start in
      let me = List.nth mexts row_start in
      if not a.misaligned then (ei (me * tail), [])
      else begin
        let start = blockfix hidx a in
        ( Simp.binop E.Min (ei me) (ei a.extent -: start) *: ei tail,
          if a.block_segs <> [] then [ start <: ei a.extent ] else [] )
      end
    end
  in
  let host_off =
    if into_partial then
      let tile = mram_tile_elems ctx t in
      (dpu_expr ctx hidx *: ei tile)
      +: List.fold_left2
           (fun acc a ms -> acc +: (local_of a *: ei ms))
           (ei 0) dims mstrides
    else
      List.fold_left2
        (fun acc a hs -> acc +: (idx_of a *: ei hs))
        (ei 0) dims hstrides
  in
  let mram_off =
    List.fold_left2
      (fun acc a ms -> acc +: (local_of a *: ei ms))
      (ei 0) dims mstrides
  in
  let host_buf = if into_partial then partial_buffer_name else t in
  let xfer =
    St.Xfer
      {
        dir;
        mode;
        host = host_buf;
        host_off;
        dpu =
          (match mode with
          | St.Broadcast_x -> ei 0
          | St.Copy | St.Push -> dpu_expr ctx hidx);
        mram = mram_name t;
        mram_off;
        elems;
        group_dpus = S.grid_dpus ctx.sched;
      }
  in
  (* Per-loop-dim validity guards (skip for partial gather: tiles are
     dense there). *)
  let guards =
    if into_partial then row_guard
    else
      row_guard
      @ List.filter_map
          (fun a ->
            if a.misaligned && rv_of a <> None then
              Some (idx_of a <: ei a.extent)
            else None)
          loop_dims
  in
  let rows = List.fold_right2 loop rvars loop_mexts (guard guards xfer) in
  (* Enclose in DPU loops (broadcast sends once for all DPUs). *)
  match mode with
  | St.Broadcast_x -> rows
  | St.Copy | St.Push ->
      List.fold_right
        (fun (l : S.loop) body -> loop (hvar ctx l) l.S.extent body)
        ctx.blocks rows

(* --- host reduction ----------------------------------------------------- *)

(* Host post-processing parallelism: the largest [Sched.parallel]
   annotation in the schedule, 1 without one. *)
let host_par_threads ctx =
  List.fold_left
    (fun acc (l : S.loop) ->
      match l.S.annot with
      | S.Host_parallel n -> max acc n
      | S.Serial | S.Unrolled | S.Bound _ -> acc)
    1 (S.order ctx.sched)

let final_reduction ctx =
  match S.rfactor_loop ctx.sched with
  | None -> St.Nop
  | Some rf ->
      let out = output_name ctx in
      let out_dims = tensor_dims ctx out in
      let mexts = List.map (fun a -> a.mram_ext) out_dims in
      let hexts = List.map (fun a -> a.extent) out_dims in
      let mstrides = strides_of mexts and hstrides = strides_of hexts in
      let tile = mram_tile_elems ctx out in
      let qvars = List.map (fun a -> V.fresh ("q" ^ a.aname)) out_dims in
      let qidx = List.map2 index qvars mexts in
      let spatial_blocks =
        List.filter (fun (l : S.loop) -> l.S.lid <> rf.S.lid) ctx.blocks
      in
      (* The outermost spatial-block loop runs on [host_par_threads]
         threads when requested; every other host loop is serial. *)
      let threads = host_par_threads ctx in
      let first_kind =
        if threads > 1 then St.Host_parallel threads else St.Serial
      in
      let kind_of (l : S.loop) =
        match spatial_blocks with
        | first :: _ when first.S.lid = l.S.lid -> first_kind
        | _ :: _ | [] -> St.Serial
      in
      let hidx l = host_index ctx ~kind:(kind_of l) l in
      let idx_of a qi = blockfix hidx a +: qi in
      let host_idx =
        List.fold_left2
          (fun acc (a, qi) hs -> acc +: (idx_of a qi *: ei hs))
          (ei 0)
          (List.combine out_dims qidx)
          hstrides
      in
      let local_idx =
        List.fold_left2 (fun acc qi ms -> acc +: (qi *: ei ms)) (ei 0) qidx mstrides
      in
      let p_idx = (dpu_expr ctx hidx *: ei tile) +: local_idx in
      (* Hierarchical epilogue: the host sees the full accumulated value
         only here, so apply it after the rfactor sum, reading epilogue
         inputs straight from their host buffers. *)
      let epi_store =
        match ctx.op.Op.epilogue with
        | None -> []
        | Some e ->
            let q_of_dim a =
              let rec go ds qs =
                match (ds, qs) with
                | d :: _, q :: _ when d == a -> q
                | _ :: ds', _ :: qs' -> go ds' qs'
                | _, _ -> err "epilogue input dim %s not an output dim" a.aname
              in
              go out_dims qidx
            in
            let ref_of t =
              let tdims = tensor_dims ctx t in
              let tstrides = strides_of (List.map (fun a -> a.extent) tdims) in
              let off =
                List.fold_left2
                  (fun acc a hs -> acc +: (idx_of a (q_of_dim a) *: ei hs))
                  (ei 0) tdims tstrides
              in
              E.load t off
            in
            [
              St.store out host_idx
                (epi_expr ~acc:(E.load out host_idx) ~ref_of e);
            ]
      in
      let body =
        St.seq
          ([
             St.store out host_idx (ei 0);
             loop (hvar ctx rf) rf.S.extent
               (St.store out host_idx
                  (E.load out host_idx +: E.load partial_buffer_name p_idx));
           ]
          @ epi_store)
      in
      let guards =
        List.filter_map
          (fun (a, qi) ->
            if a.misaligned then Some (idx_of a qi <: ei a.extent) else None)
          (List.combine out_dims qidx)
      in
      let with_tiles = List.fold_right2 loop qvars mexts (guard guards body) in
      List.fold_right
        (fun (l : S.loop) acc -> loop ~kind:(kind_of l) (hvar ctx l) l.S.extent acc)
        spatial_blocks with_tiles

(* --- program assembly ---------------------------------------------------- *)

let output_buffer_elems sched =
  let op = S.op sched in
  max 1 (Op.output_elems op)

(* Placeholder for the [lid]s a schedule does not use. *)
let unused_var = V.fresh "unused"

let lower ?(options = default_options) sched =
  let op = S.op sched in
  let order = S.order sched in
  let n = 1 + List.fold_left (fun acc (l : S.loop) -> max acc l.S.lid) 0 order in
  let positions = Array.make n (-1) in
  List.iteri (fun i (l : S.loop) -> positions.(l.S.lid) <- i) order;
  let kvars = Array.make n unused_var and hvars = Array.make n unused_var in
  let kidx = Array.make n (ei 0) in
  List.iter
    (fun (l : S.loop) ->
      let v = V.fresh l.S.lname in
      kvars.(l.S.lid) <- v;
      kidx.(l.S.lid) <- index ~kind:(stmt_kind_of l) v l.S.extent;
      (* Host code loops over the DPU grid only. *)
      if S.is_block l then hvars.(l.S.lid) <- V.fresh ("h_" ^ l.S.lname))
    order;
  let axes =
    List.map
      (fun (a : Op.axis) ->
        let segs = S.loops_of_axis sched a.Op.aname in
        let block_segs, local_segs = List.partition S.is_block segs in
        {
          aname = a.Op.aname;
          reduction = a.Op.kind = Op.Reduction;
          segs;
          block_segs;
          extent = a.Op.extent;
          misaligned = extent_product segs > a.Op.extent;
          mram_ext = extent_product local_segs;
          deepest =
            List.fold_left (fun acc (l : S.loop) -> max acc positions.(l.S.lid)) (-1) segs;
        })
      op.Op.axes
  in
  let loop_axis = Array.make n (List.hd axes) in
  List.iter (fun a -> List.iter (fun (l : S.loop) -> loop_axis.(l.S.lid) <- a) a.segs) axes;
  let caches_at = Array.make n [] in
  List.iter
    (fun (c : S.cache) ->
      match c.S.at with
      | Some l when l.S.lid < n -> caches_at.(l.S.lid) <- caches_at.(l.S.lid) @ [ c ]
      | Some _ | None -> ())
    (S.caches sched);
  let blocks = S.block_loops sched in
  let dims_of names =
    List.map (fun d -> List.find (fun a -> String.equal a.aname d) axes) names
  in
  let ctx =
    {
      sched;
      op;
      opts = options;
      positions;
      kvars;
      kidx;
      hvars;
      loop_axis;
      caches_at;
      blocks;
      block_strides = strides_of (List.map (fun (l : S.loop) -> l.S.extent) blocks);
      axes;
      tensors =
        List.map (fun (t, names) -> (t, dims_of names)) (op.Op.output :: op.Op.inputs);
    }
  in
  check_structure ctx;
  let out = output_name ctx in
  let kernel = emit_kernel ctx in
  let hierarchical = S.rfactor_loop sched <> None in
  let grid = S.grid_dpus sched in
  (* Inputs reach the DPUs when the schedule read-caches them (body
     inputs) or the in-kernel epilogue stages them; anything else stays
     a host-only buffer. *)
  let cached t =
    List.exists
      (fun (c : S.cache) -> c.S.rw = S.Read && String.equal c.S.tensor t)
      (S.caches sched)
  in
  let kernel_input t =
    cached t || (epi_in_kernel ctx && List.mem t (Op.epilogue_refs ctx.op))
  in
  let h2d =
    List.filter_map
      (fun (t, _) ->
        if (not (kernel_input t)) || List.mem t options.skip_input_transfer then
          None
        else Some (tensor_xfer ctx St.To_dpu t ~into_partial:false))
      ctx.op.Op.inputs
  in
  let d2h =
    if hierarchical then tensor_xfer ctx St.From_dpu out ~into_partial:true
    else if options.skip_output_transfer then St.Nop
    else tensor_xfer ctx St.From_dpu out ~into_partial:false
  in
  let host =
    St.seq (h2d @ [ St.Launch kernel_name; d2h; final_reduction ctx ])
  in
  let host_buffers =
    List.map
      (fun (t, _) -> B.create t ctx.op.Op.dtype ~elems:(host_elems ctx t) B.Host)
      ctx.op.Op.inputs
    @ [ B.create out ctx.op.Op.dtype ~elems:(output_buffer_elems sched) B.Host ]
    @
    if hierarchical then
      [
        B.create partial_buffer_name ctx.op.Op.dtype
          ~elems:(grid * mram_tile_elems ctx out)
          B.Host;
      ]
    else []
  in
  let mram_buffers =
    List.filter_map
      (fun (t, _) ->
        if not (kernel_input t) then None
        else
          Some
            (B.create (mram_name t) ctx.op.Op.dtype
               ~elems:(mram_tile_elems ctx t) B.Mram))
      ctx.op.Op.inputs
    @ [
        B.create (mram_name out) ctx.op.Op.dtype ~elems:(mram_tile_elems ctx out)
          B.Mram;
      ]
  in
  let prog =
    { P.name = ctx.op.Op.opname; host_buffers; mram_buffers; kernels = [ kernel ]; host }
  in
  (match P.validate prog with
  | Ok () -> ()
  | Error m -> err "generated invalid program: %s" m);
  prog
