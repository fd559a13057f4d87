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

(* Expression shorthands (module-level operators would shadow Stdlib's). *)
let ei = E.int
let ( +: ) a b = E.Binop (E.Add, a, b)
let ( -: ) a b = E.Binop (E.Sub, a, b)
let ( *: ) a b = E.Binop (E.Mul, a, b)
let ( <: ) a b = E.Cmp (E.Lt, a, b)

let mram_name t = t ^ "_m"
let wram_name t = t ^ "_w"
let kernel_name = "main_kernel"

(* Schedule facts about one operator axis, derived once per lowering. *)
type axis_info = {
  segs : S.loop list;  (* outermost (largest stride) first. *)
  extent : int;
  misaligned : bool;  (* the segments over-cover the extent. *)
  mram_ext : int;  (* product of the non-block segment extents. *)
}

type ctx = {
  sched : S.t;
  op : Op.t;
  opts : options;
  kvars : (int, V.t) Hashtbl.t;
  hvars : (int, V.t) Hashtbl.t;
  positions : int array;  (* loop position by [lid]; -1 when absent. *)
  axes : (string * axis_info) list;
}

(* --- schedule queries ------------------------------------------------ *)

let pos ctx (l : S.loop) =
  let lid = l.S.lid in
  let i = if lid < Array.length ctx.positions then ctx.positions.(lid) else -1 in
  if i < 0 then raise Not_found else i

let axis_info ctx a =
  match List.find_opt (fun (n, _) -> String.equal n a) ctx.axes with
  | Some (_, info) -> info
  | None -> invalid_arg (Printf.sprintf "Op.axis: unknown axis %s" a)

let segs ctx axis = (axis_info ctx axis).segs
let axis_extent ctx a = (axis_info ctx a).extent
let misaligned ctx a = (axis_info ctx a).misaligned
let mram_ext ctx axis = (axis_info ctx axis).mram_ext

let non_block_segs ctx axis =
  List.filter (fun l -> not (S.is_block l)) (segs ctx axis)

let deeper_segs ctx loc axis =
  List.filter (fun l -> pos ctx l > pos ctx loc) (segs ctx axis)

let cache_ext ctx loc axis =
  List.fold_left (fun acc (l : S.loop) -> acc * l.S.extent) 1 (deeper_segs ctx loc axis)

let kvar ctx (l : S.loop) = Hashtbl.find ctx.kvars l.S.lid
let hvar ctx (l : S.loop) = Hashtbl.find ctx.hvars l.S.lid

(* Σ var(l)·stride(l) over the given segments. *)
let seg_sum var_of segs =
  List.fold_left
    (fun acc (l : S.loop) -> acc +: (E.var (var_of l) *: ei l.S.stride))
    (ei 0) segs

(* Row-major strides for a dims list given per-dim extents. *)
let strides_of exts =
  let n = List.length exts in
  let arr = Array.of_list exts in
  let s = Array.make n 1 in
  for i = n - 2 downto 0 do
    s.(i) <- s.(i + 1) * arr.(i + 1)
  done;
  Array.to_list s

let tensor_dims ctx t =
  if String.equal t (fst ctx.op.Op.output) then snd ctx.op.Op.output
  else
    match List.assoc_opt t ctx.op.Op.inputs with
    | Some dims -> dims
    | None -> err "unknown tensor %s" t

let mram_tile_elems ctx t =
  List.fold_left (fun acc a -> acc * mram_ext ctx a) 1 (tensor_dims ctx t)

let host_elems ctx t =
  List.fold_left (fun acc a -> acc * axis_extent ctx a) 1 (tensor_dims ctx t)

let output_name ctx = fst ctx.op.Op.output

(* --- structural checks ------------------------------------------------ *)

let is_thread (l : S.loop) =
  match l.S.annot with
  | S.Bound S.Thread_x -> true
  | S.Bound _ | S.Serial | S.Unrolled | S.Host_parallel _ -> false

let thread_reduction ctx =
  match S.thread_loop ctx.sched with
  | Some l -> (Op.axis ctx.op l.S.axis).Op.kind = Op.Reduction
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
    (fun (a : Op.axis) ->
      if not (spans_unit (non_block_segs ctx a.Op.aname)) then
        err "axis %s: DPU-bound segments must be its outermost segments"
          a.Op.aname;
      (* On a reduction axis the block segment's stride must also meet
         the inner span exactly: overlapping per-DPU tiles would count
         interior elements twice, and the boundary guards only clamp
         the tail.  (Spatial overlap merely rewrites equal values.) *)
      if
        a.Op.kind = Op.Reduction
        && not (spans_unit (segs ctx a.Op.aname))
      then
        err "reduction axis %s: segments overlap; split factors must tile \
             the axis without double coverage"
          a.Op.aname)
    ctx.op.Op.axes;
  (* reduction-axis block segment must be the rfactor loop. *)
  let red_blocks =
    List.filter
      (fun (l : S.loop) -> (Op.axis ctx.op l.S.axis).Op.kind = Op.Reduction)
      (S.block_loops ctx.sched)
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
            t loc.S.lname a)
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
      (fun (a : Op.axis) ->
        if a.Op.kind = Op.Reduction then
          List.iter
            (fun (l : S.loop) ->
              if pos ctx l <= pos ctx wloc then
                err
                  "write cache at %s does not enclose reduction segment %s"
                  wloc.S.lname l.S.lname)
            (non_block_segs ctx a.Op.aname))
      ctx.op.Op.axes
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
let misaligned_axes ctx dims =
  let deepest a =
    List.fold_left (fun acc l -> max acc (pos ctx l)) (-1) (segs ctx a)
  in
  List.filter (misaligned ctx) dims
  |> List.sort (fun a b -> Int.compare (deepest b) (deepest a))

(* Per-element guarded DMA between a cache tile and the MRAM tile.
   [wname] overrides the WRAM buffer name (epilogue staging tiles live
   beside any regular read cache of the same tensor). *)
let cache_dma ?wname ctx (dir : St.dma_dir) t loc =
  let wram_buf = match wname with Some w -> w | None -> wram_name t in
  let dims = tensor_dims ctx t in
  let cexts = List.map (cache_ext ctx loc) dims in
  let mexts = List.map (mram_ext ctx) dims in
  let rvars = List.map (fun a -> V.fresh ("c" ^ a)) dims in
  let wstrides = strides_of cexts and mstrides = strides_of mexts in
  let not_deeper a =
    List.filter (fun l -> pos ctx l <= pos ctx loc) (segs ctx a)
  in
  let fixed_local a =
    seg_sum (kvar ctx)
      (List.filter (fun l -> not (S.is_block l)) (not_deeper a))
  in
  let fixed_global a = seg_sum (kvar ctx) (not_deeper a) in
  let wram_off =
    List.fold_left2
      (fun acc rv ws -> acc +: (E.var rv *: ei ws))
      (ei 0) rvars wstrides
  in
  let mram_off =
    let terms = List.combine dims (List.combine rvars mstrides) in
    List.fold_left
      (fun acc (a, (rv, ms)) -> acc +: ((fixed_local a +: E.var rv) *: ei ms))
      (ei 0) terms
  in
  let guard_axes = misaligned_axes ctx dims in
  let rv_of a =
    let rec go ds rs =
      match (ds, rs) with
      | d :: _, r :: _ when String.equal d a -> r
      | _ :: ds', _ :: rs' -> go ds' rs'
      | _, _ -> assert false
    in
    go dims rvars
  in
  let guard =
    List.map (fun a -> fixed_global a +: E.var (rv_of a) <: ei (axis_extent ctx a)) guard_axes
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
  let guarded =
    match guard with
    | [] -> dma
    | gs -> St.if_ (Imtp_tir.Analysis.conjoin gs) dma
  in
  List.fold_right2
    (fun rv ce body -> St.for_ rv (ei ce) body)
    rvars cexts guarded

let wram_index ctx t =
  let c = cache_of ctx t in
  let loc = cache_loc c in
  let dims = tensor_dims ctx t in
  let cexts = List.map (cache_ext ctx loc) dims in
  let wstrides = strides_of cexts in
  List.fold_left2
    (fun acc a ws -> acc +: (seg_sum (kvar ctx) (deeper_segs ctx loc a) *: ei ws))
    (ei 0) dims wstrides

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
      E.Binop (bin_to_e op, x, y)

(* Epilogue expression: [acc] is the fully accumulated output value at
   the current point; [ref_of] resolves an input reference to a load. *)
let rec epi_expr ~acc ~ref_of (e : Op.elem) : E.t =
  match e with
  | Op.Const v -> const_expr v
  | Op.Acc -> acc
  | Op.Ref t -> ref_of t
  | Op.Bin (op, a, b) ->
      E.Binop (bin_to_e op, epi_expr ~acc ~ref_of a, epi_expr ~acc ~ref_of b)

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
  let rvars = List.map (fun a -> V.fresh ("e" ^ a)) out_dims in
  let rv_of a =
    let rec go ds rs =
      match (ds, rs) with
      | d :: _, r :: _ when String.equal d a -> r
      | _ :: ds', _ :: rs' -> go ds' rs'
      | _, _ -> assert false
    in
    go out_dims rvars
  in
  let fixed_global a =
    seg_sum (kvar ctx)
      (List.filter (fun l -> pos ctx l <= pos ctx wloc) (segs ctx a))
  in
  let woff =
    List.fold_left2
      (fun acc a ws -> acc +: (E.var (rv_of a) *: ei ws))
      (ei 0) out_dims wstrides
  in
  let ref_of t =
    let tdims = tensor_dims ctx t in
    let tcexts = List.map (cache_ext ctx wloc) tdims in
    let tstrides = strides_of tcexts in
    let off =
      List.fold_left2
        (fun acc a ts -> acc +: (E.var (rv_of a) *: ei ts))
        (ei 0) tdims tstrides
    in
    E.load (epi_wram_name t) off
  in
  let acc = E.load (wram_name out) woff in
  let stored = St.store (wram_name out) woff (epi_expr ~acc ~ref_of e) in
  let guard_axes = misaligned_axes ctx out_dims in
  let guards =
    List.map
      (fun a -> fixed_global a +: E.var (rv_of a) <: ei (axis_extent ctx a))
      guard_axes
  in
  let guarded =
    match guards with
    | [] -> stored
    | gs -> St.if_ (Imtp_tir.Analysis.conjoin gs) stored
  in
  List.fold_right2
    (fun rv ce body -> St.for_ rv (ei ce) body)
    rvars cexts guarded

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
  let guards =
    List.map
      (fun a -> seg_sum (kvar ctx) (segs ctx a) <: ei (axis_extent ctx a))
      (misaligned_axes ctx (List.map (fun (a : Op.axis) -> a.Op.aname) ctx.op.Op.axes))
  in
  match guards with
  | [] -> stored
  | gs -> St.if_ (Imtp_tir.Analysis.conjoin gs) stored

let wram_buffer ?wname ctx t loc =
  let elems =
    List.fold_left (fun acc a -> acc * cache_ext ctx loc a) 1 (tensor_dims ctx t)
  in
  let name = match wname with Some w -> w | None -> wram_name t in
  B.create name ctx.op.Op.dtype ~elems:(max 1 elems) B.Wram

let init_write_cache ctx (buf : B.t) =
  if Op.has_reduction ctx.op then begin
    let v = V.fresh "z" in
    St.for_ v (ei buf.B.elems) (St.store buf.B.name (E.var v) (ei 0))
  end
  else St.Nop

(* Wrap [inner] with the caches located at loop [l]. *)
let wrap_caches ctx (l : S.loop) inner =
  let here =
    List.filter
      (fun (c : S.cache) ->
        match c.S.at with Some loc -> loc.S.lid = l.S.lid | None -> false)
      (S.caches ctx.sched)
  in
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
        let body = wrap_caches ctx l inner in
        St.For { var = kvar ctx l; extent = ei l.S.extent; kind = stmt_kind_of l; body }
  in
  (* Read caches placed at the thread loop itself: each tasklet stages
     its own MRAM slice before accumulating.  (The write cache at this
     loop is the hand-built partial slot above, not a generic cache.) *)
  let reads_at_thr =
    List.filter
      (fun (c : S.cache) ->
        c.S.rw = S.Read
        &&
        match c.S.at with
        | Some loc -> loc.S.lid = thr.S.lid
        | None -> false)
      (S.caches ctx.sched)
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
              St.store partials.B.name (E.var (kvar ctx thr))
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
    St.seq
      ([
         St.Barrier;
         St.for_ t
           (ei (thr.S.extent - 1))
           (St.store partials.B.name (ei 0)
              (E.load partials.B.name (ei 0)
              +: E.load partials.B.name (E.var t +: ei 1)));
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
      body =
        St.seq
          [
            St.For
              {
                var = kvar ctx thr;
                extent = ei thr.S.extent;
                kind = St.Bound St.Thread_x;
                body = per_tasklet;
              };
            combine;
          ];
    }

let emit_kernel ctx : P.kernel =
  let rec emit = function
    | [] -> compute_stmt ctx
    | (l : S.loop) :: rest ->
        if is_thread l && thread_reduction ctx then emit_thread_reduction ctx l rest
        else begin
          let inner = emit rest in
          let body = wrap_caches ctx l inner in
          St.For { var = kvar ctx l; extent = ei l.S.extent; kind = stmt_kind_of l; body }
        end
  in
  { P.kname = kernel_name; body = Simp.stmt (emit (S.order ctx.sched)) }

(* --- host transfers ---------------------------------------------------- *)

let block_loops ctx = S.block_loops ctx.sched

let dpu_expr ctx var_of =
  let blocks = block_loops ctx in
  let exts = List.map (fun (l : S.loop) -> l.S.extent) blocks in
  let strides = if blocks = [] then [] else strides_of exts in
  List.fold_left2
    (fun acc (l : S.loop) st -> acc +: (E.var (var_of l) *: ei st))
    (ei 0) blocks strides

let blockfix ctx var_of a =
  seg_sum var_of (List.filter S.is_block (segs ctx a))

(* Transfer of one tensor between host and MRAM tiles.  [into_partial]
   redirects the host side into the gathered-partials buffer. *)
let tensor_xfer ctx (dir : St.xfer_dir) t ~into_partial =
  let dims = tensor_dims ctx t in
  let mexts = List.map (mram_ext ctx) dims in
  let hexts = List.map (axis_extent ctx) dims in
  let mstrides = strides_of mexts and hstrides = strides_of hexts in
  let has_block =
    List.exists (fun a -> List.exists S.is_block (segs ctx a)) dims
  in
  let grid = S.grid_dpus ctx.sched in
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
    (not (misaligned ctx a)) && mram_ext ctx a = axis_extent ctx a
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
  let rvars = List.map (fun a -> V.fresh ("t" ^ a)) loop_dims in
  let rv_of a =
    let rec go ds rs =
      match (ds, rs) with
      | d :: _, r :: _ when String.equal d a -> Some r
      | _ :: ds', _ :: rs' -> go ds' rs'
      | _, _ -> None
    in
    go loop_dims rvars
  in
  let idx_of a =
    let fix = blockfix ctx (hvar ctx) a in
    match rv_of a with Some rv -> fix +: E.var rv | None -> fix
  in
  let local_of a =
    match rv_of a with Some rv -> E.var rv | None -> ei 0
  in
  (* Row length: product of mram extents from row_start, clamped on the
     row dim when it is misaligned or partially covered. *)
  let suffix_prod l = List.fold_left ( * ) 1 (List.filteri (fun i _ -> i > l) mexts) in
  let elems, row_guard =
    if row_start >= n then (ei 1, [])
    else begin
      let a = List.nth dims row_start in
      let tail = suffix_prod row_start in
      let me = List.nth mexts row_start in
      if (not (misaligned ctx a)) && me = axis_extent ctx a then
        (ei (me * tail), [])
      else if not (misaligned ctx a) then (ei (me * tail), [])
      else begin
        let start = blockfix ctx (hvar ctx) a in
        ( E.min_e (ei me) (ei (axis_extent ctx a) -: start) *: ei tail,
          [ start <: ei (axis_extent ctx a) ] )
      end
    end
  in
  let host_off =
    if into_partial then
      let tile = mram_tile_elems ctx t in
      (dpu_expr ctx (hvar ctx) *: ei tile)
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
          | St.Copy | St.Push -> dpu_expr ctx (hvar ctx));
        mram = mram_name t;
        mram_off;
        elems;
        group_dpus = grid;
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
            if misaligned ctx a && rv_of a <> None then
              Some (idx_of a <: ei (axis_extent ctx a))
            else None)
          loop_dims
  in
  let guarded =
    match guards with
    | [] -> xfer
    | gs -> St.if_ (Imtp_tir.Analysis.conjoin gs) xfer
  in
  let rows =
    List.fold_right2
      (fun rv me body -> St.for_ rv (ei me) body)
      rvars loop_mexts guarded
  in
  (* Enclose in DPU loops (broadcast sends once for all DPUs). *)
  match mode with
  | St.Broadcast_x -> rows
  | St.Copy | St.Push ->
      List.fold_right
        (fun (l : S.loop) body -> St.for_ (hvar ctx l) (ei l.S.extent) body)
        (block_loops ctx) rows

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
      let out_dims = snd ctx.op.Op.output in
      let mexts = List.map (mram_ext ctx) out_dims in
      let hexts = List.map (axis_extent ctx) out_dims in
      let mstrides = strides_of mexts and hstrides = strides_of hexts in
      let tile = mram_tile_elems ctx out in
      let qvars = List.map (fun a -> V.fresh ("q" ^ a)) out_dims in
      let spatial_blocks =
        List.filter (fun (l : S.loop) -> l.S.lid <> rf.S.lid) (block_loops ctx)
      in
      let idx_of a rv = blockfix ctx (hvar ctx) a +: E.var rv in
      let host_idx =
        List.fold_left2
          (fun acc (a, rv) hs -> acc +: (idx_of a rv *: ei hs))
          (ei 0)
          (List.combine out_dims qvars)
          hstrides
      in
      let local_idx =
        List.fold_left2
          (fun acc rv ms -> acc +: (E.var rv *: ei ms))
          (ei 0) qvars mstrides
      in
      let p_idx = (dpu_expr ctx (hvar ctx) *: ei tile) +: local_idx in
      (* Hierarchical epilogue: the host sees the full accumulated value
         only here, so apply it after the rfactor sum, reading epilogue
         inputs straight from their host buffers. *)
      let epi_store =
        match ctx.op.Op.epilogue with
        | None -> []
        | Some e ->
            let rv_of_dim a =
              let rec go ds qs =
                match (ds, qs) with
                | d :: _, q :: _ when String.equal d a -> q
                | _ :: ds', _ :: qs' -> go ds' qs'
                | _, _ -> err "epilogue input dim %s not an output dim" a
              in
              go out_dims qvars
            in
            let ref_of t =
              let tdims = tensor_dims ctx t in
              let thexts = List.map (axis_extent ctx) tdims in
              let tstrides = strides_of thexts in
              let off =
                List.fold_left2
                  (fun acc a hs -> acc +: (idx_of a (rv_of_dim a) *: ei hs))
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
             St.For
               {
                 var = hvar ctx rf;
                 extent = ei rf.S.extent;
                 kind = St.Serial;
                 body =
                   St.store out host_idx
                     (E.load out host_idx +: E.load partial_buffer_name p_idx);
               };
           ]
          @ epi_store)
      in
      let guards =
        List.filter_map
          (fun (a, rv) ->
            if misaligned ctx a then Some (idx_of a rv <: ei (axis_extent ctx a))
            else None)
          (List.combine out_dims qvars)
      in
      let guarded =
        match guards with
        | [] -> body
        | gs -> St.if_ (Imtp_tir.Analysis.conjoin gs) body
      in
      let with_tiles =
        List.fold_right2
          (fun rv me acc -> St.for_ rv (ei me) acc)
          qvars mexts guarded
      in
      let rec with_blocks = function
        | [] -> with_tiles
        | (l : S.loop) :: rest ->
            St.For
              {
                var = hvar ctx l;
                extent = ei l.S.extent;
                kind = St.Serial;
                body = with_blocks rest;
              }
      in
      (* Parallelize the outermost spatial-block loop when requested. *)
      let stmt =
        match spatial_blocks with
        | [] -> with_tiles
        | first :: rest ->
            let threads = host_par_threads ctx in
            let kind =
              if threads > 1 then St.Host_parallel threads else St.Serial
            in
            St.For
              {
                var = hvar ctx first;
                extent = ei first.S.extent;
                kind;
                body = with_blocks rest;
              }
      in
      stmt

(* --- program assembly ---------------------------------------------------- *)

let output_buffer_elems sched =
  let op = S.op sched in
  max 1 (Op.output_elems op)

let lower ?(options = default_options) sched =
  let op = S.op sched in
  let order = S.order sched in
  let positions =
    Array.make
      (1 + List.fold_left (fun acc (l : S.loop) -> max acc l.S.lid) 0 order)
      (-1)
  in
  List.iteri (fun i (l : S.loop) -> positions.(l.S.lid) <- i) order;
  let product = List.fold_left (fun acc (l : S.loop) -> acc * l.S.extent) 1 in
  let axes =
    List.map
      (fun (a : Op.axis) ->
        let segs = S.loops_of_axis sched a.Op.aname in
        ( a.Op.aname,
          {
            segs;
            extent = a.Op.extent;
            misaligned = product segs > a.Op.extent;
            mram_ext =
              product (List.filter (fun l -> not (S.is_block l)) segs);
          } ))
      op.Op.axes
  in
  let ctx =
    {
      sched;
      op;
      opts = options;
      kvars = Hashtbl.create 16;
      hvars = Hashtbl.create 16;
      positions;
      axes;
    }
  in
  List.iter
    (fun (l : S.loop) ->
      Hashtbl.replace ctx.kvars l.S.lid (V.fresh l.S.lname);
      Hashtbl.replace ctx.hvars l.S.lid (V.fresh ("h_" ^ l.S.lname)))
    order;
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
    {
      P.name = ctx.op.Op.opname;
      host_buffers;
      mram_buffers;
      kernels = [ kernel ];
      host = Simp.stmt host;
    }
  in
  (match P.validate prog with
  | Ok () -> ()
  | Error m -> err "generated invalid program: %s" m);
  prog
