let fold_binop op a b =
  match (op : Expr.binop) with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div ->
      (* floor division; lowering only produces non-negative operands
         but stay correct regardless. *)
      if b = 0 then raise Division_by_zero
      else
        let q = a / b and r = a mod b in
        if r <> 0 && r < 0 <> (b < 0) then q - 1 else q
  | Mod ->
      if b = 0 then raise Division_by_zero
      else
        let r = a mod b in
        if r <> 0 && r < 0 <> (b < 0) then r + b else r
  | Min -> min a b
  | Max -> max a b

let fold_cmp op a b =
  match (op : Expr.cmp) with
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b
  | Eq -> a = b
  | Ne -> a <> b

let bool_e b = Expr.Int_const (if b then 1 else 0)

let rec expr (e : Expr.t) : Expr.t =
  match e with
  | Int_const _ | Float_const _ | Var _ -> e
  | Binop (op, a, b) -> binop op (expr a) (expr b)
  | Cmp (op, a, b) -> cmp op (expr a) (expr b)
  | And (a, b) -> and_ (expr a) (expr b)
  | Or (a, b) -> (
      match (expr a, expr b) with
      | Int_const 1, _ | _, Int_const 1 -> bool_e true
      | Int_const 0, x | x, Int_const 0 -> x
      | a, b -> Or (a, b))
  | Not a -> (
      match expr a with
      | Int_const 0 -> bool_e true
      | Int_const 1 -> bool_e false
      | Not x -> x
      | x -> Not x)
  | Select (c, t, f) -> (
      match expr c with
      | Int_const 0 -> expr f
      | Int_const n when n <> 0 -> expr t
      | c -> Select (c, expr t, expr f))
  | Load (buf, i) -> Load (buf, expr i)
  | Cast (dt, a) -> (
      match expr a with
      | Int_const n when Imtp_tensor.Dtype.equal dt Imtp_tensor.Dtype.I32 ->
          Int_const n
      | a -> Cast (dt, a))

and binop op a b : Expr.t =
  match (op, a, b) with
  | _, Expr.Int_const x, Expr.Int_const y -> Int_const (fold_binop op x y)
  | Expr.Add, Int_const 0, x | Expr.Add, x, Int_const 0 -> x
  | Expr.Sub, x, Int_const 0 -> x
  | Expr.Mul, Int_const 0, _ | Expr.Mul, _, Int_const 0 -> Int_const 0
  | Expr.Mul, Int_const 1, x | Expr.Mul, x, Int_const 1 -> x
  | Expr.Div, x, Int_const 1 -> x
  | Expr.Mod, _, Int_const 1 -> Int_const 0
  (* Fold negation chains so tightened bounds like
     Analysis.ceil_div_neg print as (k - r) instead of ((0 - r) + k):
     0 - (0 - x) -> x,  x - (0 - y) -> x + y,  (0 - y) + x -> x - y. *)
  | Expr.Sub, x, Binop (Sub, Int_const 0, y) -> binop Add x y
  | Expr.Add, Binop (Sub, Int_const 0, y), x
  | Expr.Add, x, Binop (Sub, Int_const 0, y) ->
      binop Sub x y
  (* Collapse nested floor-div/mod by matching positive constants
     (all sound for the floor semantics of fold_binop):
       (x // b) // c -> x // (b*c)
       (x * k) // c  -> x * (k/c)   when c | k
       (x * k) %  c  -> 0           when c | k
       (x %  b) // c -> 0           when c >= b (0 <= x%b < b)
       (x %  b) %  c -> x % c       when c | b. *)
  | Expr.Div, Binop (Div, x, Int_const b), Int_const c when b > 0 && c > 0 ->
      binop Div x (Int_const (b * c))
  | Expr.Div, Binop (Mul, x, Int_const k), Int_const c
    when c > 0 && k mod c = 0 ->
      binop Mul x (Int_const (k / c))
  | Expr.Mod, Binop (Mul, _, Int_const k), Int_const c
    when c > 0 && k mod c = 0 ->
      Int_const 0
  | Expr.Div, Binop (Mod, _, Int_const b), Int_const c when b > 0 && c >= b ->
      Int_const 0
  | Expr.Mod, Binop (Mod, x, Int_const b), Int_const c
    when b > 0 && c > 0 && b mod c = 0 ->
      if b = c then Binop (Mod, x, Int_const b)
      else binop Mod x (Int_const c)
  (* Re-associate constant addends: (x + c1) + c2 -> x + (c1+c2). *)
  | Expr.Add, Binop (Add, x, Int_const c1), Int_const c2 ->
      binop Add x (Int_const (c1 + c2))
  | Expr.Add, Int_const c1, Binop (Add, x, Int_const c2) ->
      binop Add x (Int_const (c1 + c2))
  (* Distribute constants over sums for address canonicalization:
     (x + y) * c -> x*c + y*c when c is a constant. *)
  | Expr.Mul, Binop (Add, x, y), (Int_const _ as c) ->
      binop Add (binop Mul x c) (binop Mul y c)
  | _, _, _ -> Binop (op, a, b)

and cmp op a b : Expr.t =
  match (a, b) with
  | Int_const x, Int_const y -> bool_e (fold_cmp op x y)
  | _, _ -> Cmp (op, a, b)

and and_ a b : Expr.t =
  match (a, b) with
  | Int_const 0, _ | _, Int_const 0 -> bool_e false
  | Int_const 1, x | x, Int_const 1 -> x
  | a, b -> And (a, b)

let rec eval_int env (e : Expr.t) : int option =
  let ( let* ) = Option.bind in
  match e with
  | Int_const n -> Some n
  | Float_const _ | Load _ -> None
  | Var v -> Var.Map.find_opt v env
  | Binop (op, a, b) ->
      let* x = eval_int env a in
      let* y = eval_int env b in
      if (op = Div || op = Mod) && y = 0 then None
      else Some (fold_binop op x y)
  | Cmp (op, a, b) ->
      let* x = eval_int env a in
      let* y = eval_int env b in
      Some (if fold_cmp op x y then 1 else 0)
  | And (a, b) ->
      let* x = eval_int env a in
      let* y = eval_int env b in
      Some (if x <> 0 && y <> 0 then 1 else 0)
  | Or (a, b) ->
      let* x = eval_int env a in
      let* y = eval_int env b in
      Some (if x <> 0 || y <> 0 then 1 else 0)
  | Not a ->
      let* x = eval_int env a in
      Some (if x = 0 then 1 else 0)
  | Select (c, t, f) ->
      let* cv = eval_int env c in
      if cv <> 0 then eval_int env t else eval_int env f
  | Cast (dt, a) ->
      if Imtp_tensor.Dtype.equal dt Imtp_tensor.Dtype.I32 then eval_int env a
      else None

let const_int e = eval_int Var.Map.empty e

(* The node rules, on a node whose own expressions are already
   simplified: constant [If], empty [For], unit serial [For]. *)
let prune (s : Stmt.t) : Stmt.t =
  match s with
  | If { cond = Int_const n; then_; else_ } ->
      if n <> 0 then then_ else Option.value else_ ~default:Stmt.Nop
  | For { extent = Int_const n; _ } when n <= 0 -> Stmt.Nop
  | For { var; extent = Int_const 1; body; kind = Serial } ->
      Stmt.map_exprs (fun e -> expr (Subst.expr var (Expr.int 0) e)) body
  | Seq _ | For _ | If _ | Store _ | Alloc _ | Dma _ | Xfer _ | Launch _
  | Barrier | Nop ->
      s

(* One bottom-up pass: each node's own expressions are simplified once,
   after its children, and then [prune] applies.  A [Seq] that
   flattens to a single statement gets [prune] again, as the
   single-node result of a generic bottom-up rewrite would. *)
let rec stmt (s : Stmt.t) : Stmt.t =
  match s with
  | Seq ss -> prune (Stmt.seq (List.map stmt ss))
  | For r -> prune (For { r with extent = expr r.extent; body = stmt r.body })
  | If r ->
      prune
        (If
           {
             cond = expr r.cond;
             then_ = stmt r.then_;
             else_ = Option.map stmt r.else_;
           })
  | Alloc r -> Alloc { r with body = stmt r.body }
  | Store r -> Store { r with index = expr r.index; value = expr r.value }
  | Dma r ->
      Dma
        {
          r with
          wram_off = expr r.wram_off;
          mram_off = expr r.mram_off;
          elems = expr r.elems;
        }
  | Xfer r ->
      Xfer
        {
          r with
          host_off = expr r.host_off;
          dpu = expr r.dpu;
          mram_off = expr r.mram_off;
          elems = expr r.elems;
        }
  | Launch _ | Barrier | Nop -> s
