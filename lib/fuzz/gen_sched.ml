module Op = Imtp_workload.Op
module S = Imtp_schedule.Sched
module Rng = Imtp_engine.Rng

type step =
  | Split of string * int list
  | Reorder of string list
  | Bind of string * S.binding
  | Rfactor of string
  | Unroll of string
  | Parallel of string * int
  | Cache_read of string * string
  | Cache_write of string * string

let binding_name = function
  | S.Block_x -> "blockIdx.x"
  | S.Block_y -> "blockIdx.y"
  | S.Block_z -> "blockIdx.z"
  | S.Thread_x -> "threadIdx.x"

let step_to_string = function
  | Split (l, fs) ->
      Printf.sprintf "split(%s, [%s])" l
        (String.concat "; " (List.map string_of_int fs))
  | Reorder ls -> Printf.sprintf "reorder(%s)" (String.concat ", " ls)
  | Bind (l, b) -> Printf.sprintf "bind(%s, %s)" l (binding_name b)
  | Rfactor l -> Printf.sprintf "rfactor(%s)" l
  | Unroll l -> Printf.sprintf "unroll(%s)" l
  | Parallel (l, n) -> Printf.sprintf "parallel(%s, threads=%d)" l n
  | Cache_read (t, l) -> Printf.sprintf "cache_read(%s) @ %s" t l
  | Cache_write (t, l) -> Printf.sprintf "cache_write(%s) @ %s" t l

let apply s step =
  try
    (match step with
    | Split (l, fs) -> ignore (S.split s (S.find_loop s l) ~factors:fs)
    | Reorder names -> S.reorder s (List.map (S.find_loop s) names)
    | Bind (l, b) -> S.bind s (S.find_loop s l) b
    | Rfactor l -> S.rfactor s (S.find_loop s l)
    | Unroll l -> S.unroll s (S.find_loop s l)
    | Parallel (l, n) -> S.parallel s (S.find_loop s l) ~threads:n
    | Cache_read (t, l) ->
        let loc = S.find_loop s l in
        let c = S.cache_read s t in
        S.compute_at s c loc
    | Cache_write (t, l) ->
        let loc = S.find_loop s l in
        let c = S.cache_write s t in
        S.reverse_compute_at s c loc);
    true
  with Invalid_argument _ | Not_found -> false

let replay op steps =
  let s = S.create op in
  let applied = List.filter (apply s) steps in
  (s, applied)

(* --- random generation ------------------------------------------------ *)

(* Mirror of the lowering's telescoping test: the given segments must
   jointly cover a contiguous [0, n) range with unit granularity. *)
let spans_unit segs =
  let live =
    List.sort
      (fun (a : S.loop) (b : S.loop) -> Int.compare a.S.stride b.S.stride)
      (List.filter (fun (l : S.loop) -> l.S.extent > 1) segs)
  in
  let rec go base = function
    | [] -> true
    | (l : S.loop) :: rest -> l.S.stride = base && go (base * l.S.extent) rest
  in
  go 1 live

let shuffle rng l =
  let arr = Array.of_list l in
  for i = Array.length arr - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list arr

let is_reduction op (l : S.loop) =
  (Op.axis op l.S.axis).Op.kind = Op.Reduction

let is_thread (l : S.loop) =
  match l.S.annot with
  | S.Bound S.Thread_x -> true
  | S.Bound _ | S.Serial | S.Unrolled | S.Host_parallel _ -> false

let is_serial (l : S.loop) =
  match l.S.annot with
  | S.Serial -> true
  | S.Bound _ | S.Unrolled | S.Host_parallel _ -> false

let tensor_dims op t =
  if String.equal t (fst op.Op.output) then snd op.Op.output
  else List.assoc t op.Op.inputs

(* Valid cache locations for tensor [t] in the loop order [order]: a
   non-block loop (tasklet loop only for tasklet-level reductions)
   whose deeper segments, per axis of [t], are that axis's innermost
   telescoping segments — and, for the write cache of a reduction op,
   one that encloses every non-block reduction segment. *)
let cache_locs op order ~thread_red ~for_write t =
  let dims = tensor_dims op t in
  let positions = Hashtbl.create 16 in
  List.iteri (fun i (l : S.loop) -> Hashtbl.replace positions l.S.lid i) order;
  let pos (l : S.loop) = Hashtbl.find positions l.S.lid in
  let deeper loc axis =
    List.filter
      (fun (l : S.loop) -> String.equal l.S.axis axis && pos l > pos loc)
      order
  in
  let red_ok loc =
    (not for_write)
    || thread_red
    || List.for_all
         (fun (l : S.loop) ->
           (not (is_reduction op l)) || S.is_block l || pos l > pos loc)
         order
  in
  List.filter
    (fun (loc : S.loop) ->
      (not (S.is_block loc))
      && ((not (is_thread loc)) || thread_red)
      && (not (thread_red && for_write) || is_thread loc)
      && red_ok loc
      && List.for_all (fun a -> spans_unit (deeper loc a)) dims)
    order

let random rng op =
  let s = S.create op in
  let steps = ref [] in
  let push st = if apply s st then (steps := st :: !steps; true) else false in
  let pure_red = Op.spatial_axes op = [] in
  (* 1. splits: one per axis most of the time, occasionally a second
     level; factors include non-divisors so boundary guards appear.
     Shape-derived ragged factors (ceil-half and extent-1) are mixed in
     deliberately: they maximize partial-tile coverage, the shapes
     whose boundary guards the passes rewrite. *)
  let ragged_factor extent =
    if extent > 3 && Rng.bool rng then (extent + 1) / 2 else extent - 1
  in
  List.iter
    (fun (a : Op.axis) ->
      let always = pure_red && a.Op.kind = Op.Reduction in
      if always || Rng.int rng 10 < 8 then begin
        let nf = if always || Rng.bool rng then 2 else 1 in
        let factors =
          List.init nf (fun _ ->
              if a.Op.extent > 2 && Rng.int rng 5 = 0 then
                max 2 (ragged_factor a.Op.extent)
              else 2 + Rng.int rng 7)
        in
        ignore (push (Split (a.Op.aname, factors)))
      end)
    op.Op.axes;
  (if Rng.int rng 4 = 0 then
     match shuffle rng (S.serial_loops s) with
     | l :: _ when l.S.extent > 3 ->
         ignore (push (Split (l.S.lname, [ 2 + Rng.int rng 3 ])))
     | _ -> ());
  (* 2. DPU bindings: outermost segment of randomly chosen axes, grid
     capped; a bound reduction segment is immediately rfactor'd. *)
  let grid = ref 1 in
  let block_budget = ref (Rng.pick rng [ 0; 1; 1; 2; 2; 3 ]) in
  List.iter
    (fun (a : Op.axis) ->
      match S.loops_of_axis s a.Op.aname with
      | outer :: _
        when !block_budget > 0 && is_serial outer
             && !grid * outer.S.extent <= 64 ->
          let choices =
            List.filter
              (fun b -> b <> S.Thread_x)
              (S.unused_bindings s)
          in
          if choices <> [] then begin
            let b = Rng.pick rng choices in
            if push (Bind (outer.S.lname, b)) then begin
              decr block_budget;
              grid := !grid * outer.S.extent;
              if a.Op.kind = Op.Reduction then
                ignore (push (Rfactor outer.S.lname))
            end
          end
      | _ -> ())
    (shuffle rng op.Op.axes);
  (* 3. tasklet binding: a small spatial segment — or, for pure
     reductions, a reduction segment (tasklet-level reduction), which
     the lowering requires there. *)
  let thread_ok (l : S.loop) =
    is_serial l && l.S.extent <= 16
    && if pure_red then is_reduction op l else not (is_reduction op l)
  in
  (if pure_red || Rng.int rng 10 < 7 then
     match shuffle rng (List.filter thread_ok (S.order s)) with
     | l :: _ -> ignore (push (Bind (l.S.lname, S.Thread_x)))
     | [] -> ());
  let thread_red =
    match S.thread_loop s with Some l -> is_reduction op l | None -> false
  in
  (* 4. reorder into blocks-prefix structure, then search a shuffle of
     the remaining loops under which every tensor has a legal cache
     location. *)
  let blocks = shuffle rng (S.block_loops s) in
  let thread = Option.to_list (S.thread_loop s) in
  let rest =
    List.filter
      (fun (l : S.loop) -> not (S.is_block l || is_thread l))
      (S.order s)
  in
  (* canonical fallback: spatial segments (axis declaration order,
     outermost first), then reduction segments — always placeable. *)
  let canonical =
    List.concat_map
      (fun (a : Op.axis) ->
        List.filter (fun (l : S.loop) -> not (is_reduction op l)) rest
        |> List.filter (fun (l : S.loop) -> String.equal l.S.axis a.Op.aname))
      op.Op.axes
    @ List.filter (fun (l : S.loop) -> is_reduction op l) rest
  in
  let tensors =
    List.map fst op.Op.inputs @ [ fst op.Op.output ]
  in
  let placements order =
    let place t =
      let for_write = String.equal t (fst op.Op.output) in
      match cache_locs op order ~thread_red ~for_write t with
      | [] -> None
      | locs -> Some (t, Rng.pick rng locs)
    in
    let rec all = function
      | [] -> Some []
      | t :: ts -> (
          match place t with
          | None -> None
          | Some p -> Option.map (fun ps -> p :: ps) (all ts))
    in
    all tensors
  in
  let try_orders =
    List.init 6 (fun _ -> blocks @ thread @ shuffle rng rest)
    @ [ blocks @ thread @ canonical ]
  in
  let committed =
    List.find_map
      (fun order ->
        match placements order with
        | Some ps -> Some (order, ps)
        | None -> None)
      try_orders
  in
  (match committed with
  | None -> ()  (* no placement found: candidate will be rejected at lowering *)
  | Some (order, ps) ->
      ignore (push (Reorder (List.map (fun (l : S.loop) -> l.S.lname) order)));
      List.iter
        (fun (t, (loc : S.loop)) ->
          let st =
            if String.equal t (fst op.Op.output) then
              Cache_write (t, loc.S.lname)
            else Cache_read (t, loc.S.lname)
          in
          ignore (push st))
        (shuffle rng ps));
  (* 5. trailing annotations. *)
  (if Rng.int rng 10 < 4 then
     match List.rev (S.serial_loops s) with
     | l :: _ when l.S.extent <= 32 -> ignore (push (Unroll l.S.lname))
     | _ -> ());
  (if Rng.int rng 10 < 3 then
     match shuffle rng (S.serial_loops s) with
     | l :: _ -> ignore (push (Parallel (l.S.lname, Rng.pick rng [ 2; 4 ])))
     | [] -> ());
  List.rev !steps
