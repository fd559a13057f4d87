(** Loop-bound tightening (§5.3.2).

    When a loop's body is exactly one boundary check (a conjunction of
    linear inequalities) guarding the computation, each conjunct that
    is an upper bound on the loop variable is intersected with the
    loop's extent — the loop becomes
    [for v in range(min(extent, bound))] — and removed from the check,
    eliminating the "dead" iterations that were known to fail it.
    Conjuncts over outer variables are left for
    {!Branch_hoist.rewrite}. *)

val rewrite : Imtp_tir.Stmt.t -> Imtp_tir.Stmt.t
val run : Imtp_tir.Program.t -> Imtp_tir.Program.t

