(* Graph-level compilation (§8 "DL framework interfaces" direction,
   grown into a real inter-op compiler): a dataflow graph of tensor
   programs is fused (elementwise consumers folded into their producers
   as epilogues or body compositions), tuned jointly under one shared
   engine and one trial budget, planned for MRAM residency (compatible
   producer/consumer tiles stay on the DPUs between launches), and
   linked into ONE combined multi-kernel program whose MRAM state
   persists across launches — so resident intermediates never take the
   host round-trip that the per-op path pays (§2.1). *)

module Op = Imtp_workload.Op
module T = Imtp_tensor
module U = Imtp_upmem
module S = Imtp_schedule.Sched
module Sk = Imtp_engine.Sketch
module Engine = Imtp_engine.Engine
module Verifier = Imtp_engine.Verifier
module Obs = Imtp_obs.Obs
module L = Imtp_lower.Lowering
module P = Imtp_tir.Program
module St = Imtp_tir.Stmt
module E = Imtp_tir.Expr
module B = Imtp_tir.Buffer

type tid = Input of string | Node of int

type gnode = {
  op : Op.t;
  bindings : (string * tid) list;  (* op input name -> graph tensor *)
}

type t = {
  gname : string;
  mutable inputs_rev : (string * int list) list;
  input_shapes : (string, int list) Hashtbl.t;
  mutable node_arr : gnode array;  (* first [n] slots are live *)
  mutable n : int;
}

let create gname =
  {
    gname;
    inputs_rev = [];
    input_shapes = Hashtbl.create 16;
    node_arr = [||];
    n = 0;
  }

(* Node outputs and internal buffers live in the ["node<i>..."]
   namespace; graph inputs may not shadow it (the historical bug where
   an input named "node0" collided with node 0's output). *)
let reserved name =
  String.length name > 4
  && String.sub name 0 4 = "node"
  && (match name.[4] with '0' .. '9' -> true | _ -> false)

let input g ~name ~shape =
  if name = "" then invalid_arg "Graph.input: empty name";
  if reserved name then
    invalid_arg
      (Printf.sprintf
         "Graph.input: %s is reserved (node<i>... names belong to node \
          outputs)"
         name);
  if Hashtbl.mem g.input_shapes name then
    invalid_arg (Printf.sprintf "Graph.input: duplicate input %s" name);
  Hashtbl.replace g.input_shapes name shape;
  g.inputs_rev <- (name, shape) :: g.inputs_rev;
  Input name

let inputs g = List.rev g.inputs_rev
let node_count g = g.n

let node g i =
  if i < 0 || i >= g.n then invalid_arg "Graph.node: index out of range";
  g.node_arr.(i)

let shape_of g = function
  | Input name -> (
      match Hashtbl.find_opt g.input_shapes name with
      | Some s -> s
      | None -> invalid_arg "Graph.shape_of: unknown input")
  | Node i -> (
      match Op.output_shape (node g i).op with [] -> [ 1 ] | s -> s)

let push g nd =
  let cap = Array.length g.node_arr in
  if g.n = cap then begin
    let grown = Array.make (max 8 (2 * cap)) nd in
    Array.blit g.node_arr 0 grown 0 g.n;
    g.node_arr <- grown
  end;
  g.node_arr.(g.n) <- nd;
  g.n <- g.n + 1

let add g op ~args =
  List.iter
    (fun (iname, _) ->
      if not (List.mem_assoc iname args) then
        invalid_arg
          (Printf.sprintf "Graph.add: missing binding for input %s of %s" iname
             op.Op.opname))
    op.Op.inputs;
  List.iter
    (fun (iname, tid) ->
      if not (List.mem_assoc iname op.Op.inputs) then
        invalid_arg
          (Printf.sprintf "Graph.add: %s is not an input of %s" iname
             op.Op.opname);
      let want = Op.input_shape op iname and got = shape_of g tid in
      if want <> got then
        invalid_arg
          (Printf.sprintf "Graph.add: input %s of %s expects shape %s, got %s"
             iname op.Op.opname
             (String.concat "x" (List.map string_of_int want))
             (String.concat "x" (List.map string_of_int got))))
    args;
  push g { op; bindings = args };
  Node (g.n - 1)

let tid_name = function
  | Input n -> n
  | Node i -> Printf.sprintf "node%d" i

let pp ppf g =
  Format.fprintf ppf "graph %s@." g.gname;
  List.iter
    (fun (n, s) ->
      Format.fprintf ppf "  input %s: %s@." n
        (String.concat "x" (List.map string_of_int s)))
    (inputs g);
  for i = 0 to g.n - 1 do
    let nd = g.node_arr.(i) in
    Format.fprintf ppf "  node%d = %s(%s)@." i nd.op.Op.opname
      (String.concat ", "
         (List.map (fun (k, v) -> k ^ "=" ^ tid_name v) nd.bindings))
  done

(* Build a graph from a whole-model spec; returns the graph and the
   spec-id -> graph-tensor mapping (node outputs change name under
   fusion, so callers address them through this map). *)
let of_spec (s : Imtp_workload.Nets.t) =
  let module N = Imtp_workload.Nets in
  let g = create s.N.sname in
  let env = Hashtbl.create 16 in
  List.iter
    (fun (name, shape) -> Hashtbl.replace env name (input g ~name ~shape))
    s.N.inputs;
  let ids =
    List.map
      (fun (nd : N.node) ->
        let args =
          List.map
            (fun (formal, actual) ->
              match Hashtbl.find_opt env actual with
              | Some tid -> (formal, tid)
              | None ->
                  invalid_arg
                    (Printf.sprintf "Graph.of_spec: %s: unbound ref %s" nd.N.id
                       actual))
            nd.N.args
        in
        let tid = add g nd.N.op ~args in
        Hashtbl.replace env nd.N.id tid;
        (nd.N.id, tid))
      s.N.nodes
  in
  (g, ids)

module Compiled = struct
  type graph = t

  (* ---- fusion planning ------------------------------------------------ *)

  (* A plan node accumulates a chain of fused original nodes; [pid] is
     the original id of the LAST node in the chain (whose output the
     plan node produces). *)
  type pnode = {
    mutable pid : int;
    mutable pop : Op.t;
    mutable pargs : (string * tid) list;
    mutable chain : string list;  (* op names folded in, for reporting *)
  }

  exception Skip

  let fresh_name taken base =
    if not (List.mem base taken) then base
    else
      let rec go k =
        let c = Printf.sprintf "%s_%d" base k in
        if List.mem c taken then go (k + 1) else c
      in
      go 2

  let rec subst_elem ~target ~repl ~ren = function
    | Op.Ref y when y = target -> repl
    | Op.Ref y -> Op.Ref (try List.assoc y ren with Not_found -> y)
    | Op.Const _ as c -> c
    | Op.Acc -> Op.Acc
    | Op.Bin (b, a, c) ->
        Op.Bin
          (b, subst_elem ~target ~repl ~ren a, subst_elem ~target ~repl ~ren c)

  (* Fold consumer [cop] (reading producer [p]'s output at input [x])
     into [p].  Legality: the consumer is all-spatial with a full-rank
     output in axis order, [x] covers all consumer axes in order, and
     dtypes match.  An elementwise producer composes bodies; a
     reduction (or already-fused) producer composes epilogues, with the
     consumer's other inputs re-dimensioned onto the producer's output
     axes through the positional map. *)
  let try_fuse (p : pnode) (cop : Op.t) (cargs : (string * tid) list) x =
    try
      let cdims = List.map (fun a -> a.Op.aname) cop.Op.axes in
      if cop.Op.epilogue <> None then raise Skip;
      if Op.has_reduction cop then raise Skip;
      if snd cop.Op.output <> cdims then raise Skip;
      if List.assoc x cop.Op.inputs <> cdims then raise Skip;
      if cop.Op.dtype <> p.pop.Op.dtype then raise Skip;
      let pod = snd p.pop.Op.output in
      if List.length pod <> List.length cdims then raise Skip;
      let dim_map = List.combine cdims pod in
      let taken = ref (List.map fst p.pop.Op.inputs) in
      let ren, extra_inputs, extra_args =
        List.fold_left
          (fun (ren, eis, eas) (iname, idims) ->
            if iname = x then (ren, eis, eas)
            else begin
              let f = fresh_name !taken iname in
              taken := f :: !taken;
              ( (iname, f) :: ren,
                (f, List.map (fun d -> List.assoc d dim_map) idims) :: eis,
                (f, List.assoc iname cargs) :: eas )
            end)
          ([], [], []) cop.Op.inputs
      in
      let ren = List.rev ren
      and extra_inputs = List.rev extra_inputs
      and extra_args = List.rev extra_args in
      let name = p.pop.Op.opname ^ "+" ^ cop.Op.opname in
      let inputs = p.pop.Op.inputs @ extra_inputs in
      let fused_op =
        if Op.has_reduction p.pop || p.pop.Op.epilogue <> None then begin
          (* epilogue composition on a reduction producer *)
          let base =
            match p.pop.Op.epilogue with Some e -> e | None -> Op.Acc
          in
          let epi = subst_elem ~target:x ~repl:base ~ren cop.Op.body in
          let core =
            Op.create ~name ~dtype:p.pop.Op.dtype ~axes:p.pop.Op.axes ~inputs
              ~output:p.pop.Op.output ~body:p.pop.Op.body
          in
          Op.with_epilogue core epi
        end
        else begin
          (* body composition on an elementwise producer *)
          if List.map (fun a -> a.Op.aname) p.pop.Op.axes <> pod then
            raise Skip;
          let body = subst_elem ~target:x ~repl:p.pop.Op.body ~ren cop.Op.body in
          Op.create ~name ~dtype:p.pop.Op.dtype ~axes:p.pop.Op.axes ~inputs
            ~output:p.pop.Op.output ~body
        end
      in
      Some (fused_op, p.pargs @ extra_args)
    with Skip | Invalid_argument _ -> None

  (* One pass over the nodes in topological order.  A node folds into
     its producer when the producer's output has exactly one use in the
     whole graph (nothing else needs the intermediate) and the
     composition is legal. *)
  let plan_of ~fuse (g : graph) =
    let rc = Array.make (max 1 g.n) 0 in
    for i = 0 to g.n - 1 do
      List.iter
        (fun (_, tid) ->
          match tid with Node j -> rc.(j) <- rc.(j) + 1 | Input _ -> ())
        g.node_arr.(i).bindings
    done;
    let owner = Hashtbl.create (max 16 g.n) in
    let plan = ref [] in
    for j = 0 to g.n - 1 do
      let nd = g.node_arr.(j) in
      let fused =
        if not fuse then None
        else
          List.fold_left
            (fun acc (x, tid) ->
              match (acc, tid) with
              | Some _, _ -> acc
              | None, Node i when rc.(i) = 1 -> (
                  let p = Hashtbl.find owner i in
                  match try_fuse p nd.op nd.bindings x with
                  | Some (fop, fargs) -> Some (p, fop, fargs)
                  | None -> None)
              | None, _ -> None)
            None nd.bindings
      in
      match fused with
      | Some (p, fop, fargs) ->
          p.pop <- fop;
          p.pargs <- fargs;
          p.pid <- j;
          p.chain <- p.chain @ [ nd.op.Op.opname ];
          Hashtbl.replace owner j p
      | None ->
          let p =
            {
              pid = j;
              pop = nd.op;
              pargs = nd.bindings;
              chain = [ nd.op.Op.opname ];
            }
          in
          plan := p :: !plan;
          Hashtbl.replace owner j p
    done;
    (* resolve arg tids to plan-level ids: Node i -> Node (owner i).pid *)
    let resolve (x, tid) =
      match tid with
      | Input _ -> (x, tid)
      | Node i -> (x, Node (Hashtbl.find owner i).pid)
    in
    List.rev_map
      (fun p -> { p with pargs = List.map resolve p.pargs })
      !plan

  (* ---- residency planning --------------------------------------------- *)

  (* MRAM tile extent of [axis]: product of its non-DPU-bound segment
     extents — the per-DPU tile footprint the lowering allocates. *)
  let mram_ext sched axis =
    List.fold_left
      (fun acc (l : S.loop) -> if S.is_block l then acc else acc * l.S.extent)
      1
      (S.loops_of_axis sched axis)

  exception Incompat

  (* Ordered (axis position, extent) signature of the schedule's
     DPU-bound loops over [dims], dropping extent-1 segments (they do
     not move the DPU linearization).  A block on an axis outside
     [dims] with extent > 1 partitions or replicates data the other
     side cannot mirror — incompatible. *)
  let block_sig sched dims =
    List.filter_map
      (fun (l : S.loop) ->
        if l.S.extent = 1 then None
        else
          let rec idx k = function
            | [] -> raise Incompat
            | d :: _ when d = l.S.axis -> k
            | _ :: tl -> idx (k + 1) tl
          in
          Some (idx 0 dims, l.S.extent))
      (S.block_loops sched)

  (* Producer tile at DPU d and consumer tile of input [x] at DPU d
     coincide iff the two schedules partition the tensor identically:
     same ordered block signature over the positionally-mapped axes and
     the same per-axis MRAM tile extent (same padded layout).  The
     producer must not rfactor (its partials must reach the host), and
     [x] must be a body input: epilogue-referenced inputs are read on
     the HOST whenever the lowering applies the epilogue after the
     combine (hierarchical and tasklet-level reductions), where a
     resident producer's host buffer was never filled.  The consumer's
     half of the test does not read the producer's schedule. *)
  let consumer_compatible ~prod:pop ~cons:(cop, sc) ~input:x =
    try
      (not (List.mem x (Op.epilogue_refs cop)))
      && pop.Op.dtype = cop.Op.dtype
      &&
      let xdims = List.assoc x cop.Op.inputs in
      List.length (snd pop.Op.output) = List.length xdims
      && (ignore (block_sig sc xdims); true)
    with Incompat | Not_found -> false

  let residency_compatible ~prod:(pop, sp) ~cons:(cop, sc) ~input:x =
    consumer_compatible ~prod:pop ~cons:(cop, sc) ~input:x
    && S.rfactor_loop sp = None
    &&
    try
      let pod = snd pop.Op.output and xdims = List.assoc x cop.Op.inputs in
      block_sig sp pod = block_sig sc xdims
      && List.for_all2 (fun pd xd -> mram_ext sp pd = mram_ext sc xd) pod xdims
    with Incompat | Not_found -> false

  (* ---- re-selection scans ---------------------------------------------- *)

  (* The planner's two walks over a plan node's [Sketch.space], in
     space order: the producer's non-rfactor alternatives to its winner
     (first 32) and a consumer's residency-compatible candidates (first
     48).  A point whose schedule cannot be built matches neither. *)
  type scans = {
    alternatives : int -> Sk.params -> Sk.params list;
    compatible : int -> (S.t -> bool) -> Sk.params list;
    tilings : unit -> int;
  }

  module Tilings = Hashtbl.Make (struct
    type t = Sk.tiling

    let equal = ( = )
    let hash = Hashtbl.hash_param 64 128
  end)

  (* One plan node's space, walked in order as far as the scans have
     needed it and indexed by canonical tiling.  [instantiate] reads a
     point only through [Sketch.canonical], so a schedule, and any test
     of it, is a function of the tiling: a tiling is named by its first
     point in space order, instantiated once per compile and tested
     once per scan. *)
  type indexed = {
    op : Op.t;
    canon : Sk.params -> Sk.tiling;
    mutable rest : Sk.params Seq.t;  (* the points not walked yet *)
    mutable points : Sk.params array;  (* walked prefix, [0, walked) *)
    mutable first_of : int array;  (* same tiling's first point; -1: none *)
    mutable walked : int;
    firsts : int Tilings.t;
    scheds : (int, S.t option) Hashtbl.t;  (* by first point, once built *)
  }

  let index cfg op =
    let rest = Sk.space_seq cfg op in
    {
      op;
      canon = Sk.canonical op;
      rest;
      points = [||];
      first_of = [||];
      walked = 0;
      firsts = Tilings.create 256;
      scheds = Hashtbl.create 256;
    }

  (* Whether point [i] exists, walking one point further when [i] is
     the first point not walked yet.  Scans advance one point at a
     time from 0, so [i] is never past [walked]. *)
  let reach ix i =
    i < ix.walked
    ||
    match ix.rest () with
    | Seq.Nil -> false
    | Seq.Cons (p, rest) ->
        ix.rest <- rest;
        if i = Array.length ix.points then begin
          let more = max 256 i in
          ix.points <- Array.append ix.points (Array.make more p);
          ix.first_of <- Array.append ix.first_of (Array.make more (-1))
        end;
        ix.points.(i) <- p;
        (ix.first_of.(i) <-
           match ix.canon p with
           | exception (Invalid_argument _ | Failure _) -> -1
           | c -> (
               match Tilings.find_opt ix.firsts c with
               | Some f -> f
               | None ->
                   Tilings.replace ix.firsts c i;
                   i));
        ix.walked <- i + 1;
        true

  let sched ix f =
    match Hashtbl.find_opt ix.scheds f with
    | Some s -> s
    | None ->
        let s =
          try Some (Sk.instantiate ix.op ix.points.(f))
          with Invalid_argument _ | Failure _ -> None
        in
        Hashtbl.replace ix.scheds f s;
        s

  (* The first [keep] points [skip] lets through whose schedule passes
     [ok], in space order; [ok] runs at most once per tiling. *)
  let first ix ~keep ~skip ok =
    let memo = ref (Bytes.make (max 256 ix.walked) '?') in
    let passes f =
      if f >= Bytes.length !memo then begin
        let grown = Bytes.make (2 * (f + 1)) '?' in
        Bytes.blit !memo 0 grown 0 (Bytes.length !memo);
        memo := grown
      end;
      match Bytes.get !memo f with
      | 'y' -> true
      | 'n' -> false
      | _ ->
          let r =
            match sched ix f with
            | None -> false
            | Some s -> ( try ok s with Invalid_argument _ | Failure _ -> false)
          in
          Bytes.set !memo f (if r then 'y' else 'n');
          r
    in
    let rec go i kept acc =
      if kept = keep || not (reach ix i) then List.rev acc
      else
        let p = ix.points.(i) in
        if (not (skip p))
           &&
           let f = ix.first_of.(i) in
           f >= 0 && passes f
        then go (i + 1) (kept + 1) (p :: acc)
        else go (i + 1) kept acc
    in
    go 0 0 []

  let indexed_scans cfg ops =
    let ixs = Array.map (fun op -> lazy (index cfg op)) ops in
    {
      alternatives =
        (fun i winner ->
          first (Lazy.force ixs.(i)) ~keep:32 ~skip:(fun p -> p = winner)
            (fun s -> S.rfactor_loop s = None));
      compatible =
        (fun i ok -> first (Lazy.force ixs.(i)) ~keep:48 ~skip:(fun _ -> false) ok);
      tilings =
        (fun () ->
          Array.fold_left
            (fun acc ix ->
              if Lazy.is_val ix then acc + Tilings.length (Lazy.force ix).firsts
              else acc)
            0 ixs);
    }

  (* ---- compiled representation ---------------------------------------- *)

  type cnode = {
    nid : int;  (* original node id of the produced output *)
    cop : Op.t;  (* op after fusion *)
    cargs : (string * tid) list;  (* plan-level bindings *)
    chain : string list;
    params : Sk.params;
    resident_in : string list;  (* op inputs read from MRAM in place *)
    resident_out : bool;  (* output stays in MRAM (no d2h gather) *)
    nstats : U.Stats.t;  (* per-node estimate under final options *)
  }

  type t = {
    cg : graph;
    cnodes : cnode list;
    program : P.t;
    staged : Imtp_tir.Exec.compiled option Atomic.t;
        (* [program] staged by the first compiled-backend run; later
           runs reuse it and its executor storage *)
    total : U.Stats.t;
    fused_away : int;
    resident_edges : int;
  }

  let node_program cfg op params ~skips ~skip_out =
    let sched = Sk.instantiate op params in
    let options =
      {
        L.default_options with
        L.skip_input_transfer = skips;
        skip_output_transfer = skip_out;
      }
    in
    match Engine.compile_sched ~options cfg sched with
    | Ok prog -> Ok (sched, prog)
    | Error e -> Error (Engine.error_to_string e)

  let node_latency cfg op params ~skips ~skip_out =
    match node_program cfg op params ~skips ~skip_out with
    | Error _ -> infinity
    | Ok (_, prog) -> (
        match Engine.estimate cfg prog with
        | Ok s -> U.Stats.total_s s
        | Error _ -> infinity)

  (* ---- linking: one combined multi-kernel program ---------------------- *)

  let out_host_name nid = Printf.sprintf "node%d" nid
  let mram_buf_name nid t = Printf.sprintf "node%d__%s_m" nid t
  let kernel_name_of nid = Printf.sprintf "k%d" nid

  let rename_expr rb =
    let rec re (e : E.t) =
      match e with
      | E.Int_const _ | E.Float_const _ | E.Var _ -> e
      | E.Binop (o, a, b) -> E.Binop (o, re a, re b)
      | E.Cmp (c, a, b) -> E.Cmp (c, re a, re b)
      | E.And (a, b) -> E.And (re a, re b)
      | E.Or (a, b) -> E.Or (re a, re b)
      | E.Not a -> E.Not (re a)
      | E.Select (c, a, b) -> E.Select (re c, re a, re b)
      | E.Load (b, i) -> E.Load (rb b, re i)
      | E.Cast (d, a) -> E.Cast (d, re a)
    in
    re

  let rename_stmt sigma kname st =
    let rb n = match Hashtbl.find_opt sigma n with Some m -> m | None -> n in
    let st = St.map_exprs (rename_expr rb) st in
    St.rewrite_bottom_up
      (fun s ->
        match s with
        | St.Store r -> St.Store { r with buf = rb r.buf }
        | St.Dma r -> St.Dma { r with wram = rb r.wram; mram = rb r.mram }
        | St.Xfer r -> St.Xfer { r with host = rb r.host; mram = rb r.mram }
        | St.Launch _ -> St.Launch kname
        | St.Alloc r ->
            St.Alloc
              { r with buffer = { r.buffer with B.name = rb r.buffer.B.name } }
        | s -> s)
      st

  let dedup_buffers kind bufs =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun (b : B.t) ->
        match Hashtbl.find_opt seen b.B.name with
        | None ->
            Hashtbl.replace seen b.B.name b;
            true
        | Some (prev : B.t) ->
            if prev.B.elems <> b.B.elems || prev.B.dtype <> b.B.dtype then
              invalid_arg
                (Printf.sprintf
                   "Graph.link: %s buffer %s redeclared with a different layout"
                   kind b.B.name);
            false)
      bufs

  (* ---- compilation ----------------------------------------------------- *)

  exception Compile_failed of string

  let compile_with ~scans ?(trials = 96) ?(seed = 17) ?jobs ?islands
      ?measure_ratio ?(fuse = true) ?(resident = true) ?engine cfg (g : graph) =
    if g.n = 0 then Error "Graph.compile: empty graph"
    else
      Obs.span ~name:"graph.compile"
        ~attrs:[ ("net", Obs.Str g.gname); ("nodes", Obs.Int g.n) ]
      @@ fun () ->
      let plan = Array.of_list (plan_of ~fuse g) in
      let np = Array.length plan in
      let engine =
        match engine with Some e -> e | None -> Engine.create cfg
      in
      (* one budget across the graph: split the trials over the unique
         structural keys, tune each once, share every build through the
         engine cache. *)
      let keys = Array.map (fun p -> Engine.op_key p.pop) plan in
      let uniq = Hashtbl.create 8 in
      Array.iter
        (fun k -> if not (Hashtbl.mem uniq k) then Hashtbl.replace uniq k None)
        keys;
      let per = max 16 (trials / max 1 (Hashtbl.length uniq)) in
      try
        let tuned =
          Obs.span ~name:"graph.tune" @@ fun () ->
          Array.mapi
            (fun i p ->
              match Hashtbl.find uniq keys.(i) with
              | Some params -> params
              | None -> (
                  match
                    Imtp_autotune.Tuner.tune ?jobs ?islands ?measure_ratio
                      ~seed ~trials:per ~engine cfg p.pop
                  with
                  | Error m ->
                      raise
                        (Compile_failed
                           (Printf.sprintf "node%d (%s): %s" p.pid
                              p.pop.Op.opname m))
                  | Ok r ->
                      Hashtbl.replace uniq keys.(i)
                        (Some r.Imtp_autotune.Tuner.params);
                      r.Imtp_autotune.Tuner.params))
            plan
        in
        (* residency planning over the tuned winners *)
        let pid2idx = Hashtbl.create 16 in
        Array.iteri (fun i p -> Hashtbl.replace pid2idx p.pid i) plan;
        let consumers = Array.make np [] in
        Array.iter
          (fun (p : pnode) ->
            let c = Hashtbl.find pid2idx p.pid in
            List.iter
              (fun (x, tid) ->
                match tid with
                | Node pid ->
                    let pi = Hashtbl.find pid2idx pid in
                    consumers.(pi) <- (c, x) :: consumers.(pi)
                | Input _ -> ())
              p.pargs)
          plan;
        Array.iteri (fun i l -> consumers.(i) <- List.rev l) consumers;
        let fparams = Array.copy tuned in
        let skip_in = Array.make np [] in
        let skip_out = Array.make np false in
        let pinned = Array.make np false in
        let resident_edges = ref 0 in
        let best_of results =
          List.fold_left
            (fun acc (prm, r) ->
              match r with
              | Ok (m : Engine.measurement) -> (
                  match acc with
                  | Some (_, l) when l <= m.Engine.latency_s -> acc
                  | _ -> Some (prm, m.Engine.latency_s))
              | Error _ -> acc)
            None results
        in
        Obs.span ~name:"graph.residency" (fun () ->
            let scans = scans cfg (Array.map (fun p -> p.pop) plan) in
            let candidates = ref 0 in
            let batch ~skip_inputs op cands =
              candidates := !candidates + List.length cands;
              Engine.batch engine ?jobs ~skip_inputs op cands
            in
            if resident then
              for pi = 0 to np - 1 do
                let cs = consumers.(pi) in
                if cs <> [] then begin
                  let pop = plan.(pi).pop in
                  (* group edges by consumer: a consumer keeps ONE set of
                     params across all its resident inputs. *)
                  let grouped =
                    let tbl = Hashtbl.create 4 and order = ref [] in
                    List.iter
                      (fun (c, x) ->
                        (if not (Hashtbl.mem tbl c) then order := c :: !order);
                        Hashtbl.replace tbl c
                          (x
                          ::
                          (match Hashtbl.find_opt tbl c with
                          | Some l -> l
                          | None -> [])))
                      cs;
                    List.rev_map
                      (fun c -> (c, List.rev (Hashtbl.find tbl c)))
                      !order
                  in
                  (* whether the consumer's current schedule, or (when
                     it is free to move) some point of its space, passes
                     the consumer's half of [residency_compatible]: if
                     not, no producer schedule can make the edges
                     resident. *)
                  let reachable (c, xs) =
                    let ok sc =
                      List.for_all
                        (fun x ->
                          consumer_compatible ~prod:pop
                            ~cons:(plan.(c).pop, sc) ~input:x)
                        xs
                    in
                    ok (Sk.instantiate plan.(c).pop fparams.(c))
                    || ((not pinned.(c)) && scans.compatible c ok <> [])
                  in
                  (* producer candidates: none when some consumer is
                     unreachable, else the tuned winner first, then
                     (when the producer is free to move) its non-rfactor
                     alternatives best-first by noise-free measurement —
                     the winner's partitioning may be one no consumer can
                     mirror. *)
                  let prod_cands =
                    let winner = fparams.(pi) in
                    if not (List.for_all reachable grouped) then []
                    else if pinned.(pi) then [ winner ]
                    else begin
                      let measured =
                        batch ~skip_inputs:skip_in.(pi) pop
                          (scans.alternatives pi winner)
                      in
                      let ranked =
                        List.filter_map
                          (fun (prm, r) ->
                            match r with
                            | Ok (m : Engine.measurement) ->
                                Some (prm, m.Engine.latency_s)
                            | Error _ -> None)
                          measured
                      in
                      let ranked =
                        List.stable_sort
                          (fun (_, a) (_, b) -> compare a b)
                          ranked
                      in
                      winner
                      :: List.filteri (fun i _ -> i < 8) (List.map fst ranked)
                    end
                  in
                  let try_producer pprm =
                    let sp = Sk.instantiate pop pprm in
                    if S.rfactor_loop sp <> None then None
                    else begin
                      let ok_all (c, xs) =
                        let ok sc =
                          List.for_all
                            (fun x ->
                              residency_compatible ~prod:(pop, sp)
                                ~cons:(plan.(c).pop, sc) ~input:x)
                            xs
                        in
                        if ok (Sk.instantiate plan.(c).pop fparams.(c)) then
                          Some (c, xs, fparams.(c))
                        else if pinned.(c) then None
                        else begin
                          (* constrained re-selection: restrict the
                             consumer's space to residency-compatible
                             candidates and pick the fastest. *)
                          let cands = scans.compatible c ok in
                          if cands = [] then None
                          else begin
                            let results =
                              batch ~skip_inputs:(xs @ skip_in.(c))
                                plan.(c).pop cands
                            in
                            match best_of results with
                            | Some (prm, _) -> Some (c, xs, prm)
                            | None -> None
                          end
                        end
                      in
                      let resolved = List.map ok_all grouped in
                      if List.for_all (fun r -> r <> None) resolved then
                        Some (pprm, List.filter_map (fun r -> r) resolved)
                      else None
                    end
                  in
                  let feasible =
                    List.fold_left
                      (fun acc pprm ->
                        match acc with
                        | Some _ -> acc
                        | None -> try_producer pprm)
                      None prod_cands
                  in
                  match feasible with
                  | None -> ()
                  | Some (pprm, resolved) ->
                      (* commit only when residency wins the modeled cost *)
                      let base =
                        node_latency cfg pop fparams.(pi) ~skips:skip_in.(pi)
                          ~skip_out:false
                        +. List.fold_left
                             (fun acc (c, _, _) ->
                               acc
                               +. node_latency cfg plan.(c).pop fparams.(c)
                                    ~skips:skip_in.(c) ~skip_out:false)
                             0. resolved
                      in
                      let res =
                        node_latency cfg pop pprm ~skips:skip_in.(pi)
                          ~skip_out:true
                        +. List.fold_left
                             (fun acc (c, xs, prm) ->
                               acc
                               +. node_latency cfg plan.(c).pop prm
                                    ~skips:(xs @ skip_in.(c)) ~skip_out:false)
                             0. resolved
                      in
                      if res < base then begin
                        fparams.(pi) <- pprm;
                        skip_out.(pi) <- true;
                        pinned.(pi) <- true;
                        List.iter
                          (fun (c, xs, prm) ->
                            fparams.(c) <- prm;
                            skip_in.(c) <- xs @ skip_in.(c);
                            pinned.(c) <- true;
                            resident_edges := !resident_edges + List.length xs)
                          resolved
                      end
                end
              done;
            Obs.add_attr "tilings" (Obs.Int (scans.tilings ()));
            Obs.add_attr "candidates" (Obs.Int !candidates);
            Obs.add_attr "resident_edges" (Obs.Int !resident_edges));
        Obs.span ~name:"graph.link" @@ fun () ->
        (* link: lower every plan node under its final options, rename
           its buffers and kernel into the graph namespace, and
           concatenate into one combined program. *)
        let parts =
          Array.to_list
            (Array.mapi
               (fun i p ->
                 match
                   node_program cfg p.pop fparams.(i) ~skips:skip_in.(i)
                     ~skip_out:skip_out.(i)
                 with
                 | Error m ->
                     raise
                       (Compile_failed
                          (Printf.sprintf "node%d (%s): lowering failed: %s"
                             p.pid p.pop.Op.opname m))
                 | Ok (_, prog) -> (
                     match Engine.estimate cfg prog with
                     | Ok nstats -> (i, p, prog, nstats)
                     | Error e ->
                         raise
                           (Compile_failed
                              (Printf.sprintf "node%d (%s): %s" p.pid
                                 p.pop.Op.opname (Engine.error_to_string e)))))
               plan)
        in
        let producer_of i x =
          match List.assoc x plan.(i).pargs with
          | Node pid -> Hashtbl.find pid2idx pid
          | Input _ ->
              invalid_arg "Graph.link: resident input bound to a graph input"
        in
        let renamed =
          List.map
            (fun (i, (p : pnode), (prog : P.t), nstats) ->
              let sigma = Hashtbl.create 16 in
              List.iter
                (fun (iname, tid) -> Hashtbl.replace sigma iname (tid_name tid))
                p.pargs;
              let out = fst p.pop.Op.output in
              Hashtbl.replace sigma out (out_host_name p.pid);
              Hashtbl.replace sigma L.partial_buffer_name
                (Printf.sprintf "node%d__partial" p.pid);
              List.iter
                (fun (iname, _) ->
                  let target =
                    if List.mem iname skip_in.(i) then
                      (* a resident input aliases its producer's output
                         tile: rename to the producer's MRAM buffer (the
                         duplicate declaration dedups away below). *)
                      let pi = producer_of i iname in
                      mram_buf_name plan.(pi).pid (fst plan.(pi).pop.Op.output)
                    else mram_buf_name p.pid iname
                  in
                  Hashtbl.replace sigma (iname ^ "_m") target)
                p.pop.Op.inputs;
              Hashtbl.replace sigma (out ^ "_m") (mram_buf_name p.pid out);
              let kname = kernel_name_of p.pid in
              let rb n =
                match Hashtbl.find_opt sigma n with Some m -> m | None -> n
              in
              let host_buffers =
                List.map
                  (fun (b : B.t) -> { b with B.name = rb b.B.name })
                  prog.P.host_buffers
              in
              let mram_buffers =
                List.map
                  (fun (b : B.t) -> { b with B.name = rb b.B.name })
                  prog.P.mram_buffers
              in
              let kernels =
                List.map
                  (fun (k : P.kernel) ->
                    { P.kname; body = rename_stmt sigma kname k.P.body })
                  prog.P.kernels
              in
              let host = rename_stmt sigma kname prog.P.host in
              ( i,
                p,
                { prog with P.host_buffers; mram_buffers; kernels; host },
                nstats ))
            parts
        in
        let program =
          {
            P.name = g.gname;
            host_buffers =
              dedup_buffers "host"
                (List.concat_map
                   (fun (_, _, pr, _) -> pr.P.host_buffers)
                   renamed);
            mram_buffers =
              dedup_buffers "mram"
                (List.concat_map
                   (fun (_, _, pr, _) -> pr.P.mram_buffers)
                   renamed);
            kernels =
              List.concat_map (fun (_, _, pr, _) -> pr.P.kernels) renamed;
            host = St.seq (List.map (fun (_, _, pr, _) -> pr.P.host) renamed);
          }
        in
        (match P.validate program with
        | Ok () -> ()
        | Error m ->
            raise
              (Compile_failed
                 (Printf.sprintf "combined program invalid: %s" m)));
        (match Verifier.check cfg program with
        | Ok () -> ()
        | Error r ->
            raise
              (Compile_failed
                 (Printf.sprintf "combined program rejected (%s): %s"
                    r.Verifier.constraint_name r.Verifier.reason)));
        let total =
          try Imtp_tir.Cost.measure cfg program
          with Imtp_tir.Cost.Error m ->
            raise (Compile_failed ("combined program cost: " ^ m))
        in
        let cnodes =
          List.map
            (fun (i, (p : pnode), _, nstats) ->
              {
                nid = p.pid;
                cop = p.pop;
                cargs = p.pargs;
                chain = p.chain;
                params = fparams.(i);
                resident_in = skip_in.(i);
                resident_out = skip_out.(i);
                nstats;
              })
            renamed
        in
        Ok
          {
            cg = g;
            cnodes;
            program;
            staged = Atomic.make None;
            total;
            fused_away = g.n - np;
            resident_edges = !resident_edges;
          }
      with Compile_failed m -> Error m

  let compile = compile_with ~scans:indexed_scans

  (* ---- execution -------------------------------------------------------- *)

  let program c = c.program

  let check_inputs (c : t) inputs =
    List.iter
      (fun (name, shape) ->
        match List.assoc_opt name inputs with
        | None ->
            invalid_arg (Printf.sprintf "Graph.run: missing input %s" name)
        | Some t ->
            let got = T.Shape.dims (T.Tensor.shape t) in
            if got <> shape then
              invalid_arg
                (Printf.sprintf "Graph.run: input %s has wrong shape" name))
      (List.rev c.cg.inputs_rev)

  (* The node's output shape over the flat prefix of its host buffer. *)
  let reshape_out (cn : cnode) raw =
    let shape =
      match Op.output_shape cn.cop with
      | [] -> T.Shape.create [ 1 ]
      | s -> T.Shape.create s
    in
    let t = T.Tensor.create (T.Tensor.dtype raw) shape in
    T.Tensor.blit_flat ~src:raw ~src_off:0 ~dst:t ~dst_off:0 (T.Shape.size shape);
    t

  let collect_outputs c ~inputs outs =
    inputs
    @ List.filter_map
        (fun cn ->
          if cn.resident_out then None
          else
            let name = out_host_name cn.nid in
            match List.assoc_opt name outs with
            | Some raw -> Some (name, reshape_out cn raw)
            | None -> None)
        c.cnodes

  let run_counted (c : t) ~inputs =
    check_inputs c inputs;
    let outs, counters =
      match Imtp_tir.Exec.backend () with
      | Imtp_tir.Exec.Interp -> Imtp_tir.Eval.run_counted c.program ~inputs
      | Imtp_tir.Exec.Compiled ->
          let staged =
            match Atomic.get c.staged with
            | Some s -> s
            | None ->
                let s = Imtp_tir.Exec.compile c.program in
                Atomic.set c.staged (Some s);
                s
          in
          Imtp_tir.Exec.run_compiled staged ~inputs
    in
    (collect_outputs c ~inputs outs, counters)

  let run c ~inputs = fst (run_counted c ~inputs)
  let estimate c = c.total

  let node_stats (c : t) =
    List.map
      (fun cn ->
        ( Printf.sprintf "node%d:%s" cn.nid (String.concat "+" cn.chain),
          cn.nstats ))
      c.cnodes

  let plan (c : t) =
    List.map (fun cn -> (cn.params, cn.resident_in, cn.resident_out)) c.cnodes

  let fused_count c = c.fused_away
  let resident_count c = c.resident_edges

  let describe (c : t) =
    let header =
      Printf.sprintf "%s: %d node(s) (%d fused away), %d resident edge(s)"
        c.cg.gname (List.length c.cnodes) c.fused_away c.resident_edges
    in
    header
    :: List.map
         (fun cn ->
           Printf.sprintf "  node%d %s  %s%s%s" cn.nid
             (String.concat "+" cn.chain)
             (Sk.describe cn.params)
             (match cn.resident_in with
             | [] -> ""
             | l -> "  resident-in:" ^ String.concat "," l)
             (if cn.resident_out then "  resident-out" else ""))
         c.cnodes
end
