type binding = Block_x | Block_y | Block_z | Thread_x

type loop_kind = Serial | Unrolled | Host_parallel of int | Bound of binding
type dma_dir = Mram_to_wram | Wram_to_mram
type xfer_dir = To_dpu | From_dpu
type xfer_mode = Copy | Push | Broadcast_x

type t =
  | Seq of t list
  | For of { var : Var.t; extent : Expr.t; kind : loop_kind; body : t }
  | If of { cond : Expr.t; then_ : t; else_ : t option }
  | Store of { buf : string; index : Expr.t; value : Expr.t }
  | Alloc of { buffer : Buffer.t; body : t }
  | Dma of {
      dir : dma_dir;
      wram : string;
      wram_off : Expr.t;
      mram : string;
      mram_off : Expr.t;
      elems : Expr.t;
    }
  | Xfer of {
      dir : xfer_dir;
      mode : xfer_mode;
      host : string;
      host_off : Expr.t;
      dpu : Expr.t;
      mram : string;
      mram_off : Expr.t;
      elems : Expr.t;
      group_dpus : int;
    }
  | Launch of string
  | Barrier
  | Nop

let seq stmts =
  let rec flat acc = function
    | [] -> acc
    | Nop :: rest -> flat acc rest
    | Seq inner :: rest -> flat (flat acc inner) rest
    | s :: rest -> flat (s :: acc) rest
  in
  match List.rev (flat [] stmts) with
  | [] -> Nop
  | [ s ] -> s
  | ss -> Seq ss

let for_ var extent ?(kind = Serial) body = For { var; extent; kind; body }
let if_ cond then_ = If { cond; then_; else_ = None }
let store buf index value = Store { buf; index; value }

(* [List.map] that returns [l] itself when [f] returns every element
   unchanged (physically).  Applies [f] left to right, as [List.map]. *)
let rec map_shared f l =
  match l with
  | [] -> l
  | x :: rest ->
      let x' = f x in
      let rest' = map_shared f rest in
      if x' == x && rest' == rest then l else x' :: rest'

(* What [seq] returns unchanged (up to a fresh [Seq] cell). *)
let is_flat ss =
  match ss with
  | [] | [ _ ] -> false
  | _ :: _ :: _ ->
      List.for_all
        (function
          | Seq _ | Nop -> false
          | For _ | If _ | Store _ | Alloc _ | Dma _ | Xfer _ | Launch _
          | Barrier ->
              true)
        ss

(* A node whose children all come back physically unchanged is reused
   rather than rebuilt, so a rewrite that changes nothing allocates
   nothing and returns its argument.  [else_] is rewritten before
   [then_], the order OCaml evaluates a record construction in: an [f]
   that draws fresh variables numbers them by visiting order. *)
let rec rewrite_bottom_up f t =
  let t' =
    match t with
    | Seq ss ->
        let ss' = map_shared (rewrite_bottom_up f) ss in
        if ss' == ss && is_flat ss then t else seq ss'
    | For r ->
        let body = rewrite_bottom_up f r.body in
        if body == r.body then t else For { r with body }
    | If r ->
        let else_ =
          match r.else_ with
          | None -> None
          | Some e ->
              let e' = rewrite_bottom_up f e in
              if e' == e then r.else_ else Some e'
        in
        let then_ = rewrite_bottom_up f r.then_ in
        if then_ == r.then_ && else_ == r.else_ then t
        else If { r with then_; else_ }
    | Alloc r ->
        let body = rewrite_bottom_up f r.body in
        if body == r.body then t else Alloc { r with body }
    | (Store _ | Dma _ | Xfer _ | Launch _ | Barrier | Nop) as leaf -> leaf
  in
  f t'

let map_exprs f t =
  rewrite_bottom_up
    (function
      | For r -> For { r with extent = f r.extent }
      | If r -> If { r with cond = f r.cond }
      | Store r -> Store { r with index = f r.index; value = f r.value }
      | Dma r ->
          Dma
            {
              r with
              wram_off = f r.wram_off;
              mram_off = f r.mram_off;
              elems = f r.elems;
            }
      | Xfer r ->
          Xfer
            {
              r with
              host_off = f r.host_off;
              dpu = f r.dpu;
              mram_off = f r.mram_off;
              elems = f r.elems;
            }
      | (Seq _ | Alloc _ | Launch _ | Barrier | Nop) as s -> s)
    t

let rec iter f t =
  f t;
  match t with
  | Seq ss -> List.iter (iter f) ss
  | For r -> iter f r.body
  | If r ->
      iter f r.then_;
      Option.iter (iter f) r.else_
  | Alloc r -> iter f r.body
  | Store _ | Dma _ | Xfer _ | Launch _ | Barrier | Nop -> ()

let exists p t =
  let found = ref false in
  iter (fun s -> if p s then found := true) t;
  !found

let rec free_vars = function
  | Seq ss ->
      List.fold_left (fun acc s -> Var.Set.union acc (free_vars s)) Var.Set.empty ss
  | For r ->
      Var.Set.union (Expr.free_vars r.extent)
        (Var.Set.remove r.var (free_vars r.body))
  | If r ->
      let e = match r.else_ with None -> Var.Set.empty | Some s -> free_vars s in
      Var.Set.union (Expr.free_vars r.cond) (Var.Set.union (free_vars r.then_) e)
  | Store r -> Var.Set.union (Expr.free_vars r.index) (Expr.free_vars r.value)
  | Alloc r -> free_vars r.body
  | Dma r ->
      Var.Set.union (Expr.free_vars r.wram_off)
        (Var.Set.union (Expr.free_vars r.mram_off) (Expr.free_vars r.elems))
  | Xfer r ->
      List.fold_left
        (fun acc e -> Var.Set.union acc (Expr.free_vars e))
        Var.Set.empty
        [ r.host_off; r.dpu; r.mram_off; r.elems ]
  | Launch _ | Barrier | Nop -> Var.Set.empty

let binding_to_string = function
  | Block_x -> "blockIdx.x"
  | Block_y -> "blockIdx.y"
  | Block_z -> "blockIdx.z"
  | Thread_x -> "threadIdx.x"

let loop_extents t =
  let acc = ref [] in
  iter
    (function
      | For r -> acc := (r.var, r.extent, r.kind) :: !acc
      | Seq _ | If _ | Store _ | Alloc _ | Dma _ | Xfer _ | Launch _ | Barrier
      | Nop ->
          ())
    t;
  List.rev !acc
