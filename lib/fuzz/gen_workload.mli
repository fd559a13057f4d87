(** Random workload generation for the differential-testing subsystem.

    Draws operators across every supported iteration-domain family
    (elementwise — including randomized element expressions — pure
    reduction, matrix-vector, batched, and GEMM) with deliberately odd,
    non-power-of-two extents, the shapes that stress boundary-check
    generation and the PIM-aware passes that remove those checks.

    A workload is a value, not an [Op.t]: it records the family and the
    dimension list so the shrinker can rebuild smaller instances of the
    same computation ({!with_dims}). *)

type kind =
  | Va
  | Geva of int * int  (** scalar coefficients c, d. *)
  | Elemwise of Imtp_workload.Op.elem  (** randomized body over A, B. *)
  | Red
  | Mtv
  | Gemv of int  (** scalar coefficient c. *)
  | Ttv
  | Mmtv
  | Gemm

type t = { kind : kind; dims : int list }

val random : Imtp_engine.Rng.t -> t
(** Dimension extents are biased toward odd and non-power-of-two
    values, and the total iteration-domain size is capped so a fuzz
    case evaluates in milliseconds on the functional simulator. *)

val op : t -> Imtp_workload.Op.t
val dims : t -> int list

val with_dims : t -> int list -> t
(** Same computation over different extents (used by shrinking).
    @raise Invalid_argument on an arity mismatch. *)

val describe : t -> string
