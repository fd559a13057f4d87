(** Dense, row-major tensors used as host-side golden data and as the
    backing store of the UPMEM simulator's memories. *)

type t

val create : Dtype.t -> Shape.t -> t
(** Zero-initialized tensor. *)

val init : Dtype.t -> Shape.t -> (int array -> Value.t) -> t
(** [init dt shape f] stores [f idx] at every index, calling [f] once
    per element in row-major order (the order of {!Shape.iter}), so a
    stateful [f] such as a random stream fills the tensor
    deterministically. *)

val scalar : Value.t -> t
(** Rank-1, single-element tensor holding one value. *)

val dtype : t -> Dtype.t
val shape : t -> Shape.t
val size : t -> int

val get : t -> int array -> Value.t
val set : t -> int array -> Value.t -> unit
val get_flat : t -> int -> Value.t
val set_flat : t -> int -> Value.t -> unit

val blit_flat : src:t -> src_off:int -> dst:t -> dst_off:int -> int -> unit
(** [blit_flat ~src ~src_off ~dst ~dst_off n] copies [n] flat elements
    with {!set_flat} conversion semantics; same-dtype pairs use
    [Array.blit].  The caller is responsible for bounds. *)

type view = Ints of int array | Floats of float array

val view : t -> view
(** The tensor's flat elements in row-major order, shared, not copied:
    a write through the view is a write to the tensor.  I8 and I32
    tensors are [Ints], F32 tensors [Floats].  A writer must keep the
    dtype's invariant (an I8 element lies in [[-128, 127]]). *)

val copy : t -> t

val fill : t -> Value.t -> unit
(** Sets every element to [v], converted once by {!set_flat}'s rules. *)

val random : ?seed:int -> ?bound:int -> Dtype.t -> Shape.t -> t
(** Deterministic pseudo-random tensor.  Integer values are drawn
    uniformly from [[-bound, bound]] (default bound 100); floats from the
    same range scaled to [[-1, 1]]. *)

val equal : t -> t -> bool
(** Exact equality (shape, dtype and every element). *)

val close : ?rtol:float -> ?atol:float -> t -> t -> bool
(** Approximate elementwise equality, for float comparisons after
    reassociated reductions.  Defaults: rtol 1e-4, atol 1e-5. *)

val max_abs_diff : t -> t -> float
val to_value_list : t -> Value.t list

val same_values : t -> t -> bool
(** [same_values a b] is [to_value_list a = to_value_list b] without
    building the lists: the flat elements in row-major order, shapes
    aside.  Tensors of different sizes differ; an int tensor never
    equals a float one; I8 and I32 elements compare as ints; floats
    compare with IEEE [=] ([nan] differs from itself, [0.] equals
    [-0.]). *)

val pp : Format.formatter -> t -> unit
(** Prints shape, dtype and up to the first 16 elements. *)
