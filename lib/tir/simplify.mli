(** Algebraic simplification and static evaluation of TIR expressions.

    The simplifier performs constant folding and the standard identity
    rewrites (x+0, x*1, x*0, min/max folding, boolean short-circuits).
    Its smart constructors ({!binop}, {!cmp}, {!and_}) let the lowering
    build simplified expressions directly; {!expr} is the engine behind
    the loop-bound-tightening and DMA-elimination passes. *)

val fold_binop : Expr.binop -> int -> int -> int
(** Constant folding of one integer operation (floor semantics for
    division and modulo).  @raise Division_by_zero. *)

val expr : Expr.t -> Expr.t
(** Bottom-up simplification.  Sound for the non-negative index ranges
    the lowering generates (division/modulo identities assume
    non-negative operands, as in TVM's index simplifier). *)

val binop : Expr.binop -> Expr.t -> Expr.t -> Expr.t
(** [binop op a b] is [expr (Binop (op, a, b))] for operands that
    {!expr} returns unchanged, without walking them again. *)

val cmp : Expr.cmp -> Expr.t -> Expr.t -> Expr.t
(** [cmp op a b] is [expr (Cmp (op, a, b))], on the same terms. *)

val and_ : Expr.t -> Expr.t -> Expr.t
(** [and_ a b] is [expr (And (a, b))], on the same terms. *)

val stmt : Stmt.t -> Stmt.t
(** Simplify every embedded expression, prune [If]s with constant
    conditions and loops with zero/one-extent bodies.

    One bottom-up pass, linear in the size of the tree (plus one walk
    of each unit serial loop's body for the substitution of its
    variable by 0): each node's own expressions are simplified once,
    after its children, and then the node rules apply.  The result
    equals that of re-simplifying every expression of the subtree at
    each enclosing statement, because {!expr} is idempotent: a second
    application returns its argument unchanged. *)

val eval_int : int Var.Map.t -> Expr.t -> int option
(** Evaluate an integer/boolean expression under a partial environment.
    Booleans evaluate to 0/1.  [None] if a free variable, load, or
    float subexpression is encountered. *)

val const_int : Expr.t -> int option
(** [eval_int empty]. *)
