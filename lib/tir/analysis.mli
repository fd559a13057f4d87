(** Affine analysis over index expressions.

    The lowering produces affine indices and linear boundary conditions
    (§5.3: "loop-based TIR kernel codes with affine access patterns and
    static tensor shapes"); these utilities recover that structure for
    the bulk-transfer coalescer, the loop-bound-tightening pass, branch
    hoisting and the lowering's guard emission. *)

val is_free_of : Var.t -> Expr.t -> bool

val linear_in : Var.t -> Expr.t -> (int * Expr.t) option
(** [linear_in v e = Some (c, r)] when [e = c*v + r] with [r] free of
    [v] and [c] a static constant.  [None] when [e] is not linear in
    [v] (e.g. [v] occurs under division). *)

val stride_in : Var.t -> Expr.t -> int option
(** Just the coefficient of {!linear_in}. *)

val upper_bound_from_cond : Var.t -> Expr.t -> Expr.t option
(** [upper_bound_from_cond v cond] rewrites a linear inequality as an
    exclusive upper bound on [v]: returns [Some b] with
    [cond ⟺ v < b] (for the iteration ranges at hand).  Handles
    [c*v + r OP e] for OP ∈ {<, <=, >, >=} with the variable on either
    side and positive or negative [c]; returns [None] for conditions
    that are lower bounds on [v] or not linear. *)

val conjuncts : Expr.t -> Expr.t list
(** Flatten a conjunction into its atoms. *)

val conjoin : Expr.t list -> Expr.t
(** Inverse of {!conjuncts}; the empty list yields literal true. *)

val contains_load : Expr.t -> bool
(** Whether a memory load occurs anywhere in the expression; conditions
    that read memory are never moved or rewritten. *)
