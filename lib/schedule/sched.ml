module Op = Imtp_workload.Op

type binding = Block_x | Block_y | Block_z | Thread_x
type loop_annot = Serial | Unrolled | Host_parallel of int | Bound of binding

type loop = {
  lid : int;
  lname : string;
  axis : string;
  extent : int;
  stride : int;
  mutable annot : loop_annot;
}

type rw = Read | Write
type cache = { tensor : string; rw : rw; mutable at : loop option }

(* One applied primitive, kept unformatted until [trace] asks: only
   reproducers and the CLI ever read the trace.  Every field printed
   is immutable, so formatting late gives the line formatting early
   would have. *)
type prim =
  | P_split of loop * int list * loop list
  | P_reorder of loop list
  | P_bind of loop * binding
  | P_unroll of loop
  | P_parallel of loop * int
  | P_rfactor of loop
  | P_cache of string * rw
  | P_compute_at of cache * loop
  | P_reverse_compute_at of cache * loop

type t = {
  sop : Op.t;
  mutable sorder : loop list;
  mutable scaches : cache list;
  mutable srfactor : loop option;
  mutable fresh : int;
  mutable strace : prim list;  (* reverse order *)
}

let op t = t.sop
let order t = t.sorder
let caches t = t.scaches
let rfactor_loop t = t.srfactor

let new_loop t ~name ~axis ~extent ~stride ~annot =
  t.fresh <- t.fresh + 1;
  { lid = t.fresh; lname = name; axis; extent; stride; annot }

let record t p = t.strace <- p :: t.strace

let create sop =
  let t =
    { sop; sorder = []; scaches = []; srfactor = None; fresh = 0; strace = [] }
  in
  t.sorder <-
    List.map
      (fun (a : Op.axis) ->
        new_loop t ~name:a.aname ~axis:a.aname ~extent:a.extent ~stride:1
          ~annot:Serial)
      sop.Op.axes;
  t

let loops_of_axis t axis =
  List.sort
    (fun a b -> Int.compare b.stride a.stride)
    (List.filter (fun l -> String.equal l.axis axis) t.sorder)

let covered_extent t axis =
  List.fold_left (fun acc l -> acc * l.extent) 1 (loops_of_axis t axis)

let find_loop t name =
  match List.find_opt (fun l -> String.equal l.lname name) t.sorder with
  | Some l -> l
  | None -> raise Not_found

let mem t l = List.exists (fun x -> x.lid = l.lid) t.sorder

let ceil_div a b = (a + b - 1) / b

let split t l ~factors =
  if not (mem t l) then invalid_arg "Sched.split: stale loop";
  if factors = [] then invalid_arg "Sched.split: empty factor list";
  List.iter
    (fun f -> if f <= 0 then invalid_arg "Sched.split: non-positive factor")
    factors;
  (match l.annot with
  | Serial -> ()
  | Unrolled | Host_parallel _ | Bound _ ->
      invalid_arg "Sched.split: cannot split an annotated loop");
  let inner_prod = List.fold_left ( * ) 1 factors in
  let outer_extent = ceil_div l.extent inner_prod in
  let outer =
    new_loop t ~name:(l.lname ^ "o") ~axis:l.axis ~extent:outer_extent
      ~stride:(l.stride * inner_prod) ~annot:Serial
  in
  let inners =
    let rec build stride_acc = function
      | [] -> []
      | f :: rest ->
          (* extents to the right of f multiply into its stride. *)
          let inner_stride = stride_acc / f in
          let lp =
            new_loop t
              ~name:(Printf.sprintf "%s%d" l.lname (List.length rest))
              ~axis:l.axis ~extent:f ~stride:(l.stride * inner_stride)
              ~annot:Serial
          in
          lp :: build inner_stride rest
    in
    build inner_prod factors
  in
  let news = outer :: inners in
  t.sorder <-
    List.concat_map
      (fun x -> if x.lid = l.lid then news else [ x ])
      t.sorder;
  record t (P_split (l, factors, news));
  news

let reorder t loops =
  List.iter
    (fun l -> if not (mem t l) then invalid_arg "Sched.reorder: stale loop")
    loops;
  let ids = List.map (fun l -> l.lid) loops in
  let uniq = List.sort_uniq Int.compare ids in
  if List.length uniq <> List.length ids then
    invalid_arg "Sched.reorder: duplicate loop";
  let remaining = ref loops in
  t.sorder <-
    List.map
      (fun x ->
        if List.exists (fun l -> l.lid = x.lid) loops then begin
          match !remaining with
          | next :: rest ->
              remaining := rest;
              next
          | [] -> assert false
        end
        else x)
      t.sorder;
  record t (P_reorder loops)

let bind t l b =
  if not (mem t l) then invalid_arg "Sched.bind: stale loop";
  (match l.annot with
  | Serial -> ()
  | Unrolled | Host_parallel _ | Bound _ ->
      invalid_arg "Sched.bind: loop already annotated");
  let clash =
    List.exists
      (fun x -> match x.annot with Bound b' -> b' = b | Serial | Unrolled | Host_parallel _ -> false)
      t.sorder
  in
  if clash then invalid_arg "Sched.bind: binding already in use";
  l.annot <- Bound b;
  record t (P_bind (l, b))

let unroll t l =
  if not (mem t l) then invalid_arg "Sched.unroll: stale loop";
  (match l.annot with
  | Serial -> ()
  | Unrolled | Host_parallel _ | Bound _ ->
      invalid_arg "Sched.unroll: loop already annotated");
  l.annot <- Unrolled;
  record t (P_unroll l)

let parallel t l ~threads =
  if not (mem t l) then invalid_arg "Sched.parallel: stale loop";
  if threads <= 0 then invalid_arg "Sched.parallel: non-positive threads";
  (match l.annot with
  | Serial -> ()
  | Unrolled | Host_parallel _ | Bound _ ->
      invalid_arg "Sched.parallel: loop already annotated");
  l.annot <- Host_parallel threads;
  record t (P_parallel (l, threads))

let rfactor t l =
  if not (mem t l) then invalid_arg "Sched.rfactor: stale loop";
  (match (Op.axis t.sop l.axis).Op.kind with
  | Op.Reduction -> ()
  | Op.Spatial -> invalid_arg "Sched.rfactor: loop is not a reduction segment");
  if t.srfactor <> None then invalid_arg "Sched.rfactor: already applied";
  t.srfactor <- Some l;
  record t (P_rfactor l)

let cache_decl t tensor rw =
  let known =
    match rw with
    | Read -> List.mem_assoc tensor t.sop.Op.inputs
    | Write -> String.equal tensor (fst t.sop.Op.output)
  in
  if not known then
    invalid_arg (Printf.sprintf "Sched.cache: unknown tensor %s" tensor);
  if
    List.exists
      (fun c -> String.equal c.tensor tensor && c.rw = rw)
      t.scaches
  then invalid_arg (Printf.sprintf "Sched.cache: duplicate cache for %s" tensor);
  let c = { tensor; rw; at = None } in
  t.scaches <- t.scaches @ [ c ];
  record t (P_cache (tensor, rw));
  c

let cache_read t tensor = cache_decl t tensor Read
let cache_write t tensor = cache_decl t tensor Write

let compute_at t c l =
  if not (mem t l) then invalid_arg "Sched.compute_at: stale loop";
  if c.rw <> Read then invalid_arg "Sched.compute_at: use reverse_compute_at for write caches";
  c.at <- Some l;
  record t (P_compute_at (c, l))

let reverse_compute_at t c l =
  if not (mem t l) then invalid_arg "Sched.reverse_compute_at: stale loop";
  if c.rw <> Write then invalid_arg "Sched.reverse_compute_at: use compute_at for read caches";
  c.at <- Some l;
  record t (P_reverse_compute_at (c, l))

let is_block l =
  match l.annot with
  | Bound (Block_x | Block_y | Block_z) -> true
  | Bound Thread_x | Serial | Unrolled | Host_parallel _ -> false

let block_loops t = List.filter is_block t.sorder

let thread_loop t =
  List.find_opt
    (fun l -> match l.annot with Bound Thread_x -> true | Bound _ | Serial | Unrolled | Host_parallel _ -> false)
    t.sorder

let grid_dpus t = List.fold_left (fun acc l -> acc * l.extent) 1 (block_loops t)

let tasklets t =
  match thread_loop t with Some l -> l.extent | None -> 1

let serial_loops t =
  List.filter
    (fun l ->
      match l.annot with
      | Serial -> true
      | Unrolled | Host_parallel _ | Bound _ -> false)
    t.sorder

let unused_bindings t =
  let used b =
    List.exists
      (fun l ->
        match l.annot with
        | Bound b' -> b' = b
        | Serial | Unrolled | Host_parallel _ -> false)
      t.sorder
  in
  List.filter (fun b -> not (used b)) [ Block_x; Block_y; Block_z; Thread_x ]

let binding_name = function
  | Block_x -> "blockIdx.x"
  | Block_y -> "blockIdx.y"
  | Block_z -> "blockIdx.z"
  | Thread_x -> "threadIdx.x"

let annot_name = function
  | Serial -> ""
  | Unrolled -> " unroll"
  | Host_parallel n -> Printf.sprintf " parallel(%d)" n
  | Bound b -> " @" ^ binding_name b

let describe t =
  let loop_str l =
    Printf.sprintf "%s[%s:%d*%d]%s" l.lname l.axis l.extent l.stride
      (annot_name l.annot)
  in
  let cache_str c =
    Printf.sprintf "cache_%s(%s)%s"
      (match c.rw with Read -> "read" | Write -> "write")
      c.tensor
      (match c.at with None -> "" | Some l -> "@" ^ l.lname)
  in
  let rf =
    match t.srfactor with None -> "" | Some l -> Printf.sprintf " rfactor(%s)" l.lname
  in
  Printf.sprintf "%s: [%s] {%s}%s" t.sop.Op.opname
    (String.concat " " (List.map loop_str t.sorder))
    (String.concat ", " (List.map cache_str t.scaches))
    rf

let prim_to_string = function
  | P_split (l, factors, news) ->
      Printf.sprintf "sch.split(%s, factors=[%s])  # -> %s" l.lname
        (String.concat ", " (List.map string_of_int factors))
        (String.concat ", " (List.map (fun (n : loop) -> n.lname) news))
  | P_reorder loops ->
      Printf.sprintf "sch.reorder(%s)"
        (String.concat ", " (List.map (fun l -> l.lname) loops))
  | P_bind (l, b) -> Printf.sprintf "sch.bind(%s, \"%s\")" l.lname (binding_name b)
  | P_unroll l -> Printf.sprintf "sch.unroll(%s)" l.lname
  | P_parallel (l, threads) ->
      Printf.sprintf "sch.parallel(%s, threads=%d)" l.lname threads
  | P_rfactor l -> Printf.sprintf "sch.rfactor(%s)" l.lname
  | P_cache (tensor, rw) ->
      Printf.sprintf "cache_%s = sch.cache_%s(%s, \"local\")" tensor
        (match rw with Read -> "read" | Write -> "write")
        tensor
  | P_compute_at (c, l) ->
      Printf.sprintf "sch.compute_at(cache_%s, %s)" c.tensor l.lname
  | P_reverse_compute_at (c, l) ->
      Printf.sprintf "sch.reverse_compute_at(cache_%s, %s)" c.tensor l.lname

let trace t = List.rev_map prim_to_string t.strace
