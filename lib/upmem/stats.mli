(** Latency breakdown of one offloaded operation, in seconds, following
    the paper's reporting categories (H2D transfer, kernel execution,
    D2H transfer, host post-processing). *)

type t = {
  h2d_s : float;
  kernel_s : float;
  d2h_s : float;
  host_s : float;
  launch_s : float;  (** kernel-launch overheads. *)
  bytes_h2d : int;
  bytes_d2h : int;
  dpus_used : int;
  tasklets_used : int;
}

val zero : t
val total_s : t -> float
val add : t -> t -> t
(** Componentwise sum (sequential composition of phases). *)

val scale : float -> t -> t
val speedup : baseline:t -> t -> float
(** [speedup ~baseline s] = baseline total / s total. *)

val pp : Format.formatter -> t -> unit
