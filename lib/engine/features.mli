(** The learned cost model's feature vector of a lowered program (the
    model itself is [Cost_learn] in the autotune library).  It lives with
    the engine because the vector is a pure function of the program,
    hence of the engine fingerprint the program was built under, so
    {!Engine.features} can memoize it next to the program itself. *)

val dim : int
(** Fixed feature-vector width. *)

val names : string array
(** Stable names, index-aligned with {!of_program}
    ([Array.length] = {!dim}). *)

val of_program : Imtp_tir.Program.t -> float array
(** Extract the feature vector in one analytic walk (evaluation cost
    independent of tensor sizes).  Every component is finite for any
    program: unresolvable loop extents count as 1 and all magnitudes
    pass through [log2 (1 + x)]. *)
