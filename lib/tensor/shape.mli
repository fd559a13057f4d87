(** Tensor shapes and row-major index algebra. *)

type t = private int array
(** A shape is a non-empty array of positive dimension extents. *)

val create : int list -> t
(** [create dims] builds a shape.  @raise Invalid_argument on an empty
    list or a non-positive extent. *)

val of_array : int array -> t
val dims : t -> int list
val rank : t -> int
val dim : t -> int -> int
val size : t -> int
(** Total number of elements. *)

val strides : t -> int array
(** Row-major strides, in elements. *)

val linearize : t -> int array -> int
(** [linearize shape idx] maps a multi-index to its flat offset.
    @raise Invalid_argument if [idx] is out of bounds or wrong rank. *)

val in_bounds : t -> int array -> bool
val equal : t -> t -> bool
val iter : t -> (int array -> unit) -> unit
(** Row-major iteration over all multi-indices: the [k]-th index the
    callback receives linearizes to [k].  Each call receives a fresh
    array, so a callback may keep or mutate it without disturbing the
    walk. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
