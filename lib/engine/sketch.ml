module Op = Imtp_workload.Op
module S = Imtp_schedule.Sched
module L = Imtp_lower.Lowering

type params = {
  spatial_dpus : int;
  reduction_dpus : int;
  tasklets : int;
  cache_elems : int;
  rows_per_tasklet : int;
  unroll_inner : bool;
  host_threads : int;
}

let default_params =
  {
    spatial_dpus = 256;
    reduction_dpus = 1;
    tasklets = 16;
    cache_elems = 64;
    rows_per_tasklet = 1;
    unroll_inner = false;
    host_threads = 1;
  }

type family = Elementwise | Tasklet_reduce | Mat_vec | Batched | Mat_mat | Grid_map

let family_of (op : Op.t) =
  match
    (List.length (Op.spatial_axes op), List.length (Op.reduction_axes op))
  with
  | 1, 0 -> Elementwise
  | 0, 1 -> Tasklet_reduce
  | 1, 1 -> Mat_vec
  | 2, 0 -> Grid_map
  | 2, 1 ->
      if
        List.exists
          (fun (t, _) -> List.length (Op.input_shape op t) >= 3)
          op.Op.inputs
      then Batched
      else Mat_mat
  | s, r ->
      invalid_arg
        (Printf.sprintf
           "Sketch.family_of: unsupported iteration domain (%d spatial, %d \
            reduction axes)"
           s r)

let default_for cfg op =
  let dpus = min 256 (Imtp_upmem.Config.nr_dpus cfg) in
  let p =
    { default_params with spatial_dpus = dpus; tasklets = 8; cache_elems = 32 }
  in
  match family_of op with
  | Tasklet_reduce -> { p with reduction_dpus = dpus }
  | Elementwise | Mat_vec | Batched | Mat_mat | Grid_map -> p

let uses_rfactor p = p.reduction_dpus > 1
let ceil_div a b = (a + b - 1) / b

(* --- canonical tiling ----------------------------------------------- *)

type tiling = {
  splits : int list list;
  rfactor : bool;
  unroll : bool;
  host_threads : int;
}

(* Derive the per-DPU tiling for a 1-D axis of [n] elements spread over
   [dpus] DPUs: the requested DPU count takes priority, the caching
   tile shrinks to the per-DPU slice if needed, and tasklets beyond the
   available caching blocks stay idle (exactly how PrIM's fixed 1,024 B
   recommendation under-fills tasklets on small per-DPU slices, §7.1).
   Factors [tasklets; chunk; cache]. *)
let tile_1d ~n ~dpus p =
  let per_dpu = max 1 (ceil_div n dpus) in
  let cache_eff = max 1 (min p.cache_elems per_dpu) in
  let t_eff = max 1 (min p.tasklets (ceil_div per_dpu cache_eff)) in
  [ t_eff; max 1 (ceil_div per_dpu (t_eff * cache_eff)); cache_eff ]

(* [rows] spatial rows over [dpus] DPUs.  The requested DPU count is
   honored even when rows are scarce: the tasklet count is capped at the
   rows available per DPU (idle tasklets on the real machine contribute
   nothing).  Factors [tasklets; rows per tasklet]. *)
let tile_rows ~rows ~dpus p =
  let rows_per_dpu = max 1 (ceil_div rows dpus) in
  let t_eff = max 1 (min p.tasklets rows_per_dpu) in
  [ t_eff; max 1 (ceil_div rows_per_dpu t_eff) ]

(* A reduction axis of [k] elements: [chunk; cache] under the rfactor'd
   DPU split, one [cache] tile level without it. *)
let tile_reduce ~k p =
  if uses_rfactor p then
    [ max 1 (ceil_div k (p.reduction_dpus * p.cache_elems)); p.cache_elems ]
  else [ p.cache_elems ]

(* Every field is a count the templates divide by or tile with. *)
let check_positive p =
  let field name v =
    if v < 1 then
      invalid_arg (Printf.sprintf "Sketch.canonical: %s = %d, expected >= 1" name v)
  in
  field "spatial_dpus" p.spatial_dpus;
  field "reduction_dpus" p.reduction_dpus;
  field "tasklets" p.tasklets;
  field "cache_elems" p.cache_elems;
  field "rows_per_tasklet" p.rows_per_tasklet;
  field "host_threads" p.host_threads

let canonical op =
  let fam = family_of op in
  let extents = Array.of_list (List.map (fun a -> a.Op.extent) op.Op.axes) in
  let extent i = extents.(i) in
  fun p ->
    check_positive p;
    let splits, rfactor =
      match fam with
      | Elementwise -> ([ tile_1d ~n:(extent 0) ~dpus:p.spatial_dpus p ], false)
      | Tasklet_reduce ->
          ([ tile_1d ~n:(extent 0) ~dpus:p.reduction_dpus p ], true)
      | Mat_vec ->
          ( [ tile_rows ~rows:(extent 0) ~dpus:p.spatial_dpus p;
              tile_reduce ~k:(extent 1) p ],
            uses_rfactor p )
      | Batched ->
          let t_eff =
            max 1 (min p.tasklets (ceil_div (extent 1) p.rows_per_tasklet))
          in
          ( [ [ t_eff; p.rows_per_tasklet ]; tile_reduce ~k:(extent 2) p ],
            uses_rfactor p )
      | Mat_mat ->
          (* split the spatial DPU budget between i and j. *)
          let m = extent 1 in
          let j_blocks = max 1 (min m (min 32 (p.spatial_dpus / 16))) in
          let i_dpus = max 1 (p.spatial_dpus / j_blocks) in
          ( [ tile_rows ~rows:(extent 0) ~dpus:i_dpus p;
              [ max 1 (ceil_div m j_blocks) ];
              tile_reduce ~k:(extent 2) p ],
            uses_rfactor p )
      | Grid_map ->
          let j_dpus = max 1 (p.spatial_dpus / max 1 (extent 0)) in
          ([ tile_1d ~n:(extent 1) ~dpus:j_dpus p ], false)
    in
    (* The lowering reads [host_threads] only to parallelize the host's
       final reduction over the spatial DPU blocks, which a pure
       reduction does not have. *)
    let host_threads =
      if rfactor && fam <> Tasklet_reduce then p.host_threads else 0
    in
    { splits; rfactor; unroll = p.unroll_inner; host_threads }

(* --- schedule templates: each reads only the tiling ------------------ *)

let maybe_unroll s c loop = if c.unroll then S.unroll s loop

(* Host post-processing parallelism is a schedule primitive (Table 2):
   the row loop the host's final reduction walks runs on [host_threads]
   threads. *)
let maybe_parallel s c loop =
  if c.host_threads > 1 then S.parallel s loop ~threads:c.host_threads

(* Only body-referenced inputs get read caches: epilogue-only inputs
   are staged by the lowering at the write-cache site instead. *)
let cache_all_inputs s at =
  List.iter
    (fun t ->
      let c = S.cache_read s t in
      S.compute_at s c at)
    (Op.body_refs (S.op s))

let cache_output s at =
  let c = S.cache_write s (fst (S.op s).Op.output) in
  S.reverse_compute_at s c at

(* i -> [dpu][thread][chunk][inner] *)
let elementwise s c =
  match (S.order s, c.splits) with
  | [ i ], [ fi ] -> (
      match S.split s i ~factors:fi with
      | [ i_dpu; i_th; i_chunk; i_in ] ->
          S.bind s i_dpu S.Block_x;
          S.bind s i_th S.Thread_x;
          cache_all_inputs s i_chunk;
          cache_output s i_chunk;
          maybe_unroll s c i_in
      | _ -> assert false)
  | _ -> assert false

(* i(red) -> [dpu rfactor][thread][chunk][inner], tasklet partials *)
let tasklet_reduce s c =
  match (S.order s, c.splits) with
  | [ i ], [ fi ] -> (
      match S.split s i ~factors:fi with
      | [ i_dpu; i_th; i_chunk; i_in ] ->
          S.bind s i_dpu S.Block_x;
          S.rfactor s i_dpu;
          S.bind s i_th S.Thread_x;
          cache_all_inputs s i_chunk;
          (let cw = S.cache_write s (fst (S.op s).Op.output) in
           S.reverse_compute_at s cw i_th);
          maybe_unroll s c i_in
      | _ -> assert false)
  | _ -> assert false

(* i -> [dpu][thread][rows]; j -> ([dpu_r])[chunk][inner] *)
let mat_vec s c =
  match (S.order s, c.splits) with
  | [ i; j ], [ fi; fj ] -> (
      match S.split s i ~factors:fi with
      | [ i_dpu; i_th; i_r ] -> (
          S.bind s i_dpu S.Block_x;
          S.bind s i_th S.Thread_x;
          match S.split s j ~factors:fj with
          | [ j_blk; j_chunk; j_in ] when c.rfactor ->
              S.reorder s [ j_blk; i_th; i_r; j_chunk ];
              S.bind s j_blk S.Block_y;
              S.rfactor s j_blk;
              cache_all_inputs s j_chunk;
              cache_output s i_r;
              maybe_parallel s c i_r;
              maybe_unroll s c j_in
          | [ j_chunk; j_in ] ->
              cache_all_inputs s j_chunk;
              cache_output s i_r;
              maybe_unroll s c j_in
          | _ -> assert false)
      | _ -> assert false)
  | _ -> assert false

(* i -> Block_x; j -> [dpu][thread][rows]; k -> ([dpu_r])[chunk][inner] *)
let batched s c =
  match (S.order s, c.splits) with
  | [ i; j; k ], [ fj; fk ] -> (
      S.bind s i S.Block_x;
      match S.split s j ~factors:fj with
      | [ j_dpu; j_th; j_r ] -> (
          S.bind s j_dpu S.Block_y;
          S.bind s j_th S.Thread_x;
          match S.split s k ~factors:fk with
          | [ k_blk; k_chunk; k_in ] when c.rfactor ->
              S.reorder s [ k_blk; j_th; j_r; k_chunk ];
              S.bind s k_blk S.Block_z;
              S.rfactor s k_blk;
              cache_all_inputs s k_chunk;
              cache_output s j_r;
              maybe_parallel s c j_r;
              maybe_unroll s c k_in
          | [ k_chunk; k_in ] ->
              cache_all_inputs s k_chunk;
              cache_output s j_r;
              maybe_unroll s c k_in
          | _ -> assert false)
      | _ -> assert false)
  | _ -> assert false

(* GEMM: i -> [dpu][thread][rows]; j -> [dpu][tile]; k -> [chunk][inner].
   A tiles cache at the k-chunk level (contiguous k rows); B tiles cache
   per i-row iteration (a k-tile x j-tile block, contiguous along j);
   the scalar C accumulator caches at the j-tile loop. *)
let mat_mat s c =
  let cache_ab ~a_at ~b_at =
    (let ca = S.cache_read s "A" in
     S.compute_at s ca a_at);
    let cb = S.cache_read s "B" in
    S.compute_at s cb b_at
  in
  match (S.order s, c.splits) with
  | [ i; j; k ], [ fi; fj; fk ] -> (
      let i_th, i_r =
        match S.split s i ~factors:fi with
        | [ i_dpu; i_th; i_r ] ->
            S.bind s i_dpu S.Block_x;
            S.bind s i_th S.Thread_x;
            (i_th, i_r)
        | _ -> assert false
      in
      match S.split s j ~factors:fj with
      | [ j_dpu; j_t ] -> (
          S.bind s j_dpu S.Block_y;
          match S.split s k ~factors:fk with
          | [ k_blk; k_chunk; k_in ] when c.rfactor ->
              S.reorder s [ j_dpu; k_blk; i_th; i_r; j_t; k_chunk ];
              S.bind s k_blk S.Block_z;
              S.rfactor s k_blk;
              cache_ab ~a_at:k_chunk ~b_at:i_r;
              cache_output s j_t;
              maybe_parallel s c i_r;
              maybe_unroll s c k_in
          | [ k_chunk; k_in ] ->
              S.reorder s [ j_dpu; i_th; i_r; j_t; k_chunk ];
              cache_ab ~a_at:k_chunk ~b_at:i_r;
              cache_output s j_t;
              maybe_unroll s c k_in
          | _ -> assert false)
      | _ -> assert false)
  | _ -> assert false

(* i -> Block_x; j -> [dpu][thread][chunk][inner]: two spatial axes, no
   reduction (rowdiv, 2-D scaling) — the outer axis maps whole to the
   X grid dimension, the inner axis tiles like the elementwise family. *)
let grid_map s c =
  match (S.order s, c.splits) with
  | [ i; j ], [ fj ] -> (
      S.bind s i S.Block_x;
      match S.split s j ~factors:fj with
      | [ j_dpu; j_th; j_chunk; j_in ] ->
          S.bind s j_dpu S.Block_y;
          S.bind s j_th S.Thread_x;
          cache_all_inputs s j_chunk;
          cache_output s j_chunk;
          maybe_unroll s c j_in
      | _ -> assert false)
  | _ -> assert false

let instantiate op p =
  let c = canonical op p in
  let s = S.create op in
  (match family_of op with
  | Elementwise -> elementwise s c
  | Grid_map -> grid_map s c
  | Tasklet_reduce -> tasklet_reduce s c
  | Mat_vec -> mat_vec s c
  | Batched -> batched s c
  | Mat_mat -> mat_mat s c);
  s

let lower_options (_ : params) = L.default_options

let describe p =
  Printf.sprintf
    "dpus=(%d,%d) tasklets=%d cache=%d rows=%d unroll=%b host_threads=%d"
    p.spatial_dpus p.reduction_dpus p.tasklets p.cache_elems p.rows_per_tasklet
    p.unroll_inner p.host_threads

(* --- the sampling table ------------------------------------------------ *)

type table = {
  family : family;
  spatial_choices : int array;
  reduction_choices : int array;
  rfactor_choices : int array;
  tasklet_choices : int array;
  cache_choices : int array;
  rows_choices : int array;
  host_thread_choices : int array;
  work : float;
}

let pow2s lo hi =
  let rec go v = if v > hi then [] else v :: go (2 * v) in
  go lo

let tasklet_choices = [| 1; 2; 4; 8; 12; 16; 20; 24 |]
let rows_choices = [| 1; 2; 4; 8; 16 |]
let host_thread_choices = [| 1; 4; 16 |]

let build_table cfg (op : Op.t) =
  let family = family_of op in
  let maxd = Imtp_upmem.Config.nr_dpus cfg in
  let reduction =
    match Op.reduction_axes op with
    | [] -> [ 1 ]
    | a :: _ ->
        (* Pure reductions use the whole machine along the reduction
           dimension; ops with spatial axes multiply grids, so cap it. *)
        let cap = if Op.spatial_axes op = [] then maxd else 128 in
        List.filter (fun d -> d <= a.Op.extent) (pow2s 1 cap)
  in
  let cache =
    (* elements; 8 B .. 2 KB at 4 B/elem. *)
    let innermost = List.nth op.Op.axes (List.length op.Op.axes - 1) in
    let pow2 =
      List.filter (fun c -> c <= max 2 (2 * innermost.Op.extent)) (pow2s 2 512)
    in
    (* Shape-derived tiles: the ceil-halving chain of the innermost
       extent opens non-divisible split factors on ragged axes
       (500 → 500, 250, 125, 63, …) whose partial tiles carry boundary
       guards for the passes to remove.  On power-of-two extents
       the chain is a subset of [pow2] and dedups away, so existing
       search trajectories are unchanged. *)
    let rec chain v = if v < 2 then [] else v :: chain ((v + 1) / 2) in
    List.sort_uniq Int.compare (pow2 @ chain (min innermost.Op.extent 512))
  in
  {
    family;
    spatial_choices =
      Array.of_list (List.filter (fun d -> d <= maxd) (pow2s 16 maxd));
    reduction_choices = Array.of_list reduction;
    rfactor_choices = Array.of_list (List.filter (fun v -> v > 1) reduction);
    tasklet_choices;
    cache_choices = Array.of_list cache;
    rows_choices;
    host_thread_choices;
    work = Op.total_flops op;
  }

(* A search draws every proposal against one (config, operator) pair,
   so the tables of the last few pairs seen are kept, matched by
   physical identity as [Engine.memo_op_key] matches operators; domains
   racing on the list at worst rebuild a table. *)
let recent_tables : (Imtp_upmem.Config.t * Op.t * table) list Atomic.t =
  Atomic.make []

let rec find_table cfg op = function
  | [] -> None
  | (c, o, t) :: rest ->
      if c == cfg && o == op then Some t else find_table cfg op rest

let table cfg op =
  let recent = Atomic.get recent_tables in
  match find_table cfg op recent with
  | Some t -> t
  | None ->
      let t = build_table cfg op in
      Atomic.set recent_tables
        ((cfg, op, t) :: List.filteri (fun i _ -> i < 3) recent);
      t

let space_seq cfg op =
  let t = table cfg op in
  let base =
    Seq.concat_map
      (fun spatial_dpus ->
        Seq.concat_map
          (fun reduction_dpus ->
            Seq.concat_map
              (fun tasklets ->
                Seq.map
                  (fun cache_elems ->
                    {
                      default_params with
                      spatial_dpus;
                      reduction_dpus;
                      tasklets;
                      cache_elems;
                    })
                  (Array.to_seq t.cache_choices))
              (Array.to_seq t.tasklet_choices))
          (Array.to_seq t.reduction_choices))
      (Array.to_seq t.spatial_choices)
  in
  match t.family with
  | Elementwise | Grid_map ->
      Seq.filter (fun p -> p.reduction_dpus = 1) base
  | Tasklet_reduce ->
      (* the rfactor'd reduction split is the only DPU dimension, over
         at least two DPUs: a one-DPU split is the two-DPU one, listed
         only when there is no two-DPU choice. *)
      Seq.filter
        (fun p ->
          p.spatial_dpus = 16
          && (p.reduction_dpus > 1 || Array.length t.rfactor_choices = 0))
        base
      |> Seq.map (fun p -> { p with spatial_dpus = 1; reduction_dpus = max 2 p.reduction_dpus })
  | Mat_vec | Mat_mat -> base
  | Batched ->
      Seq.concat_map
        (fun rows -> Seq.map (fun p -> { p with rows_per_tasklet = rows }) base)
        (Array.to_seq t.rows_choices)

let space cfg op = List.of_seq (space_seq cfg op)

let random rng cfg op =
  let t = table cfg op in
  (* One draw per field, last field first: search trajectories and
     the golden traces depend on this order. *)
  let host_threads = Rng.pick_array rng t.host_thread_choices in
  let unroll_inner = Rng.bool rng in
  let rows_per_tasklet = Rng.pick_array rng t.rows_choices in
  let cache_elems = Rng.pick_array rng t.cache_choices in
  let tasklets = Rng.pick_array rng t.tasklet_choices in
  let reduction_dpus = Rng.pick_array rng t.reduction_choices in
  let spatial_dpus = Rng.pick_array rng t.spatial_choices in
  let p =
    {
      spatial_dpus;
      reduction_dpus;
      tasklets;
      cache_elems;
      rows_per_tasklet;
      unroll_inner;
      host_threads;
    }
  in
  match t.family with
  | Elementwise | Grid_map -> { p with reduction_dpus = 1; rows_per_tasklet = 1 }
  | Tasklet_reduce ->
      {
        p with
        spatial_dpus = 1;
        reduction_dpus = max 2 p.reduction_dpus;
        rows_per_tasklet = 1;
      }
  | Mat_vec | Mat_mat -> { p with rows_per_tasklet = 1 }
  | Batched -> p

type field = Sd | Rd | T | C | R | U | H

let fields_flat = [| Sd; T; C; U; H |]
let fields_reduce = [| Sd; Rd; T; C; U |]
let fields_rfactor = [| Sd; Rd; T; C; U; H |]
let fields_batched_rfactor = [| Rd; T; C; R; U; H |]
let fields_batched = [| T; C; R; U; H |]

let mutate rng cfg op p =
  let t = table cfg op in
  (* Mutation stays within the parent's design space: whether the
     schedule rfactors is a structural (sketch-level) choice, not a
     tunable parameter — evolution cannot cross it, only fresh
     sampling can (§5.2.3).  [Rd] therefore re-draws the reduction
     DPU count within the same family. *)
  let fields =
    match t.family with
    | Elementwise | Grid_map -> fields_flat
    | Tasklet_reduce -> fields_reduce
    | Mat_vec | Mat_mat -> if uses_rfactor p then fields_rfactor else fields_flat
    | Batched ->
        if uses_rfactor p then fields_batched_rfactor else fields_batched
  in
  match Rng.pick_array rng fields with
  | Sd -> { p with spatial_dpus = Rng.pick_array rng t.spatial_choices }
  | Rd ->
      let v =
        if Array.length t.rfactor_choices = 0 then p.reduction_dpus
        else Rng.pick_array rng t.rfactor_choices
      in
      { p with reduction_dpus = v }
  | T -> { p with tasklets = Rng.pick_array rng t.tasklet_choices }
  | C -> { p with cache_elems = Rng.pick_array rng t.cache_choices }
  | R -> { p with rows_per_tasklet = Rng.pick_array rng t.rows_choices }
  | U -> { p with unroll_inner = not p.unroll_inner }
  | H -> { p with host_threads = Rng.pick_array rng t.host_thread_choices }
