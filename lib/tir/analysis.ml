(* Linear analysis over index expressions: the syntactic matchers the
   §5.3 passes and the lowering use to read strides out of affine
   indices, turn linear guards into loop bounds, and split or rebuild
   guard conjunctions. *)

let is_free_of v e = not (Var.Set.mem v (Expr.free_vars e))

let rec linear_in v (e : Expr.t) : (int * Expr.t) option =
  let ( let* ) = Option.bind in
  if is_free_of v e then Some (0, e)
  else
    match e with
    | Var v' when Var.equal v v' -> Some (1, Expr.int 0)
    | Binop (Add, a, b) ->
        let* ca, ra = linear_in v a in
        let* cb, rb = linear_in v b in
        Some (ca + cb, Expr.(ra + rb))
    | Binop (Sub, a, b) ->
        let* ca, ra = linear_in v a in
        let* cb, rb = linear_in v b in
        Some (ca - cb, Expr.(ra - rb))
    | Binop (Mul, a, b) -> (
        match (a, b) with
        | Expr.Int_const k, other | other, Expr.Int_const k ->
            let* c, r = linear_in v other in
            Some (c * k, Expr.(r * int k))
        | _, _ -> None)
    | Var _ | Int_const _ | Float_const _ | Binop _ | Cmp _ | And _ | Or _
    | Not _ | Select _ | Load _ | Cast _ ->
        None

let stride_in v e = Option.map fst (linear_in v e)

(* ceil(-r / c) as an expression, for positive constant c. *)
let ceil_div_neg r c =
  let num = Expr.( + ) (Expr.( - ) (Expr.int 0) r) (Expr.int (Stdlib.( - ) c 1)) in
  Simplify.expr (Expr.Binop (Div, num, Expr.int c))

let floor_div_neg r c =
  Simplify.expr (Expr.Binop (Div, Expr.( - ) (Expr.int 0) r, Expr.int c))

let upper_bound_from_cond v (cond : Expr.t) : Expr.t option =
  match cond with
  | Cmp (op, lhs, rhs) -> (
      (* Canonicalize to c*v + r OP 0. *)
      match linear_in v Expr.(lhs - rhs) with
      | None | Some (0, _) -> None
      | Some (c, r) -> (
          let r = Simplify.expr r in
          match (op, c > 0) with
          (* c*v + r < 0  ⟺  v < ceil(-r/c) when c > 0. *)
          | (Expr.Lt, true) -> Some (ceil_div_neg r c)
          (* c*v + r <= 0 ⟺  v < floor(-r/c) + 1. *)
          | (Expr.Le, true) -> Some (Simplify.expr Expr.(floor_div_neg r c + int 1))
          (* c*v + r > 0 with c < 0 ⟺ (-c)*v - r < 0 ⟺ v < ceil(r/-c). *)
          | (Expr.Gt, false) -> Some (ceil_div_neg (Simplify.expr Expr.(int 0 - r)) (-c))
          | (Expr.Ge, false) ->
              Some
                (Simplify.expr
                   Expr.(floor_div_neg (Simplify.expr Expr.(int 0 - r)) (-c) + int 1))
          | (Expr.Lt, false)
          | (Expr.Le, false)
          | (Expr.Gt, true)
          | (Expr.Ge, true)
          | ((Expr.Eq | Expr.Ne), _) ->
              None))
  | Int_const _ | Float_const _ | Var _ | Binop _ | And _ | Or _ | Not _
  | Select _ | Load _ | Cast _ ->
      None

let rec conjuncts = function
  | Expr.And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let conjoin = function
  | [] -> Expr.int 1
  | c :: rest -> List.fold_left Expr.and_ c rest

let rec contains_load (e : Expr.t) =
  match e with
  | Load _ -> true
  | Int_const _ | Float_const _ | Var _ -> false
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
      contains_load a || contains_load b
  | Not a | Cast (_, a) -> contains_load a
  | Select (c, t, f) -> contains_load c || contains_load t || contains_load f
